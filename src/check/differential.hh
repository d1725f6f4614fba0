/**
 * @file
 * Differential test harness (docs/CHECKING.md): run a configuration
 * to a compact RunSignature - probe-stream digest, retired count,
 * cycle breakdown - and compare signatures across runs or across
 * schemes. The paper-level metamorphic properties (interleaved with
 * one context ≡ single-context, blocked ≡ single without misses or
 * hints, IPC ≤ issue width, breakdown total = width × cycles) all
 * reduce to assertions over these signatures.
 */

#ifndef MTSIM_CHECK_DIFFERENTIAL_HH
#define MTSIM_CHECK_DIFFERENTIAL_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "system/mp_system.hh"
#include "workload/program.hh"

namespace mtsim {

/** Everything observable about one run, reduced to fixed size. */
struct RunSignature
{
    std::uint64_t probeDigest = 0;
    std::uint64_t probeEvents = 0;
    Cycle measuredCycles = 0;
    std::uint64_t retired = 0;
    CycleBreakdown breakdown;
    std::uint64_t checkViolations = 0;

    double
    ipc() const
    {
        return measuredCycles > 0
                   ? static_cast<double>(retired) /
                         static_cast<double>(measuredCycles)
                   : 0.0;
    }
};

bool operator==(const RunSignature &a, const RunSignature &b);
inline bool
operator!=(const RunSignature &a, const RunSignature &b)
{
    return !(a == b);
}

/** Multi-line dump for test-failure messages. */
std::string describe(const RunSignature &sig);

/** Named applications forming one workstation workload. */
using UniApps = std::vector<std::pair<std::string, KernelFn>>;

/** The Table 5 mix (IC/DC/DT/FP/R0/R1) or SP workload as apps. */
UniApps mixApps(const std::string &mix);

/**
 * Run a workstation configuration and reduce it to a signature.
 * With @p check, the full invariant-checker battery runs alongside
 * and aborts on the first violation. @p fast_forward toggles the
 * event-driven clock jump; signatures must be identical either way
 * (that equivalence is itself a differential test).
 */
RunSignature uniSignature(const Config &cfg, const UniApps &apps,
                          Cycle warmup, Cycle measure,
                          bool check = true,
                          bool fast_forward = true);

/**
 * Run a multiprocessor application to completion (same contract).
 * @p host_threads / @p quantum go to MpSystem::setHostParallel:
 * (1, 1) is the cycle-exact sequential loop, and any quantum > 1
 * the relaxed tier (system/mp_parallel.cc), whose signature
 * approximates the sequential one (bench/par_quantum_error measures
 * how closely).
 */
RunSignature mpSignature(const Config &cfg, const ParallelAppFn &app,
                         bool check = true,
                         Cycle max_cycles = 500000000ull,
                         bool fast_forward = true,
                         std::uint32_t host_threads = 1,
                         Cycle quantum = 1);

} // namespace mtsim

#endif // MTSIM_CHECK_DIFFERENTIAL_HH
