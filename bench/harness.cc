#include "harness.hh"

#include <cstdlib>
#include <cstring>
#include <mutex>

#include <iostream>

#include "common/atomic_file.hh"
#include "metrics/json_stats.hh"
#include "metrics/report.hh"
#include "prof/profiler.hh"
#include "spec/spec_suite.hh"
#include "splash/splash_suite.hh"
#include "system/mp_system.hh"
#include "system/uni_system.hh"

namespace mtsim::bench {

namespace {

/**
 * Transparent result recorder behind MTSIM_BENCH_JSON: runUni/runMp
 * append one row each; the first append registers an atexit hook
 * that dumps every row as a JSON array when the binary finishes.
 */
struct BenchRow
{
    std::string kind;       ///< "uni" or "mp"
    std::string workload;   ///< mix or application name
    std::string scheme;
    std::uint8_t contexts;
    std::uint16_t procs;    ///< 1 for uniprocessor rows
    double ipc;
    Cycle cycles;
    std::uint64_t retired;
    CycleBreakdown bd;
};

std::vector<BenchRow> &
benchRows()
{
    static std::vector<BenchRow> rows;
    return rows;
}

void
dumpBenchRows()
{
    const char *path = std::getenv("MTSIM_BENCH_JSON");
    if (path == nullptr || *path == '\0')
        return;
    AtomicFile file(path);
    if (!file.ok())
        return;
    std::ostream &out = file.stream();
    JsonWriter w(out);
    w.beginArray();
    for (const BenchRow &r : benchRows()) {
        w.beginObject();
        w.kv("kind", r.kind);
        w.kv("workload", r.workload);
        w.kv("scheme", r.scheme);
        w.kv("contexts", static_cast<std::uint64_t>(r.contexts));
        w.kv("procs", static_cast<std::uint64_t>(r.procs));
        w.kv("ipc", r.ipc);
        w.kv("cycles", static_cast<std::uint64_t>(r.cycles));
        w.kv("retired", r.retired);
        w.key("breakdown");
        writeBreakdownJson(w, r.bd);
        w.endObject();
    }
    w.endArray();
    out << '\n';
    file.commit();
}

void
recordRow(BenchRow row)
{
    // Construct the rows before registering the dump: exit runs
    // handlers and destroys statics in reverse order, so the vector
    // then outlives the dump that reads it.
    std::vector<BenchRow> &rows = benchRows();
    static std::once_flag once;
    std::call_once(once, [] { std::atexit(dumpBenchRows); });
    rows.push_back(std::move(row));
}

/**
 * MTSIM_CHECK=1 turns on the invariant checker for every bench run
 * (docs/CHECKING.md). A violation aborts the bench via CheckError.
 */
bool
checkRequested()
{
    const char *v = std::getenv("MTSIM_CHECK");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

/**
 * MTSIM_PROF=1 turns on host-side self-profiling for every bench
 * run; the cost tree is printed to stderr at exit
 * (docs/OBSERVABILITY.md).
 */
void
maybeEnableProfiling()
{
    static std::once_flag once;
    std::call_once(once, [] {
        const char *v = std::getenv("MTSIM_PROF");
        if (v == nullptr || *v == '\0' || std::strcmp(v, "0") == 0)
            return;
        prof::Profiler::instance().enable(true);
        std::atexit(
            [] { prof::Profiler::instance().report(std::cerr); });
    });
}

} // namespace

std::size_t
recordedRows()
{
    return benchRows().size();
}

std::vector<std::string>
allMixes()
{
    auto mixes = uniWorkloadNames();
    mixes.push_back("SP");
    return mixes;
}

UniResult
runUni(const std::string &mix, Scheme scheme, std::uint8_t contexts,
       Cycle warm, Cycle measure)
{
    maybeEnableProfiling();
    Config cfg = Config::make(scheme, contexts);
    UniSystem sys(cfg);
    if (mix == "SP") {
        for (const auto &app : spWorkload())
            sys.addApp(app, splashUniKernel(app));
    } else {
        for (const auto &app : uniWorkload(mix))
            sys.addApp(app, specKernel(app));
    }
    if (checkRequested())
        sys.enableChecking();
    sys.run(warm, measure);
    recordRow({"uni", mix, schemeName(scheme), contexts, 1,
               sys.throughput(), sys.measuredCycles(), sys.retired(),
               sys.breakdown()});
    return {sys.throughput(), sys.breakdown()};
}

MpResult
runMp(const std::string &app, Scheme scheme, std::uint8_t contexts,
      std::uint16_t procs)
{
    maybeEnableProfiling();
    Config cfg = Config::makeMp(scheme, contexts, procs);
    MpSystem sys(cfg);
    sys.setStatsBarrier(kStatsBarrier);
    sys.loadApp(splashApp(app));
    if (checkRequested())
        sys.enableChecking();
    MpResult r;
    r.cycles = sys.run();
    r.bd = sys.aggregateBreakdown();
    r.retired = sys.retired();
    const double ipc =
        r.cycles > 0 ? static_cast<double>(r.retired) /
                           static_cast<double>(r.cycles)
                     : 0.0;
    recordRow({"mp", app, schemeName(scheme), contexts, procs, ipc,
               r.cycles, r.retired, r.bd});
    return r;
}

void
printUtilFigure(std::ostream &os, Scheme scheme)
{
    os << "Figure " << (scheme == Scheme::Blocked ? 6 : 7) << ": "
       << schemeName(scheme) << " scheme processor utilization\n";
    for (const auto &mix : allMixes()) {
        std::vector<BreakdownBar> bars;
        double base_ipc = 0.0;
        for (std::uint8_t n : {1, 2, 4}) {
            const Scheme s = (n == 1) ? Scheme::Single : scheme;
            UniResult r = runUni(mix, s, n);
            if (n == 1)
                base_ipc = r.ipc;
            // Normalized execution time: the same work takes
            // base_ipc/ipc of the single-context time.
            const double scale = r.ipc > 0 ? base_ipc / r.ipc : 0.0;
            bars.push_back(uniBar(mix + "/" + std::to_string(n),
                                  r.bd, scale));
        }
        printBars(os, "\nworkload " + mix, bars);
    }
    os << "\n(Numbers are percent of single-context execution time; "
          "the paper's bar-top\n busy number = busy column divided "
          "by norm.time.)\n";
}

void
printMpFigure(std::ostream &os, Scheme scheme)
{
    os << "Figure " << (scheme == Scheme::Blocked ? 8 : 9) << ": "
       << schemeName(scheme)
       << " scheme MP execution time breakdown (8 processors)\n";
    for (const auto &app : splashApps()) {
        std::vector<BreakdownBar> bars;
        double base_cycles = 0.0;
        for (std::uint8_t n : {1, 2, 4, 8}) {
            const Scheme s = (n == 1) ? Scheme::Single : scheme;
            MpResult r = runMp(app, s, n);
            if (n == 1)
                base_cycles = static_cast<double>(r.cycles);
            const double scale =
                static_cast<double>(r.cycles) / base_cycles;
            bars.push_back(mpBar(app + "/" + std::to_string(n),
                                 r.bd, scale));
        }
        printBars(os, "\napplication " + app, bars);
    }
    os << "\n(Bars are normalized to single-context execution "
          "time.)\n";
}

} // namespace mtsim::bench
