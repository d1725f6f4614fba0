/**
 * @file
 * Relaxed-tier accuracy study (docs/ARCHITECTURE.md section 10):
 * how far do the reported metrics drift from the sequential
 * reference as the host-parallel quantum grows? Runs water/8p to
 * completion sequentially and under --host-threads 8 at quanta
 * 16..4096, through the differential harness's RunSignature
 * reduction, and reports the per-quantum error in parallel-section
 * cycles, IPC and the sync fraction of the breakdown.
 */

#include <cmath>
#include <iostream>

#include "check/differential.hh"
#include "common/config.hh"
#include "metrics/report.hh"
#include "splash/splash_suite.hh"

using namespace mtsim;

namespace {

std::string
pctErr(double ref, double v)
{
    if (ref == 0.0)
        return "n/a";
    return TextTable::pct(v / ref - 1.0);
}

double
syncFraction(const RunSignature &s)
{
    return s.breakdown.fraction(CycleClass::Sync);
}

} // namespace

int
main()
{
    const Config cfg = Config::makeMp(Scheme::Interleaved, 1, 8);
    const ParallelAppFn app = splashApp("water");

    std::cout << "Relaxed-quantum metric error (water, 8 nodes, 1 "
                 "context, host-threads 8,\n run to completion; "
                 "reference = sequential loop)\n\n";
    const RunSignature ref = mpSignature(cfg, app, false);

    TextTable t({"quantum", "cycles", "cycles err", "IPC err",
                 "sync-frac err", "digest"});
    t.addRow({"seq", std::to_string(ref.measuredCycles), "-", "-",
              "-", "reference"});
    for (Cycle q : {16, 64, 256, 1024, 4096}) {
        const RunSignature s =
            mpSignature(cfg, app, false, 500000000ull, true, 8, q);
        t.addRow({std::to_string(q),
                  std::to_string(s.measuredCycles),
                  pctErr(static_cast<double>(ref.measuredCycles),
                         static_cast<double>(s.measuredCycles)),
                  pctErr(ref.ipc(), s.ipc()),
                  pctErr(syncFraction(ref), syncFraction(s)),
                  s.probeDigest == ref.probeDigest ? "identical"
                                                   : "differs"});
    }
    t.print(std::cout);
    std::cout <<
        "\n(Each quantum defers cross-node invalidations and sync "
        "wakes to the next\n barrier, so timing drifts while total "
        "retired work stays fixed - the\n error the speed tier "
        "trades for host parallelism.)\n";
    return 0;
}
