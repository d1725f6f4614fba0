/**
 * @file
 * Command-line driver: run one simulation configuration without
 * writing code. Covers both the workstation and the multiprocessor
 * setups and prints throughput, the cycle breakdown and the memory
 * counters. With --stats-json / --trace-out the same run also
 * produces machine-readable statistics and a Perfetto-loadable
 * Chrome trace (see docs/OBSERVABILITY.md).
 *
 * Examples:
 *   mtsim_run --scheme interleaved --contexts 4 --mix DC
 *   mtsim_run --scheme blocked --contexts 2 --mix SP --cycles 400000
 *   mtsim_run --mp --app water --scheme interleaved --contexts 4 \
 *             --procs 8
 *   mtsim_run --scheme interleaved --contexts 4 --mix DC \
 *             --stats-json out.json --trace-out trace.json
 *
 * With --prof the run also self-profiles the simulator (host-side
 * cost tree, docs/OBSERVABILITY.md section 5); --progress N prints a
 * KIPS heartbeat to stderr every N host seconds.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check/digest.hh"
#include "check/why_reconcile.hh"
#include "common/atomic_file.hh"
#include "common/config.hh"
#include "metrics/breakdown.hh"
#include "metrics/json_stats.hh"
#include "metrics/report.hh"
#include "obs/flight_recorder.hh"
#include "obs/trace_writer.hh"
#include "obs/why_ledger.hh"
#include "prof/host_info.hh"
#include "prof/profiler.hh"
#include "prof/progress.hh"
#include "prof/speed.hh"
#include "spec/spec_suite.hh"
#include "splash/splash_suite.hh"
#include "system/mp_system.hh"
#include "system/uni_system.hh"

using namespace mtsim;

namespace {

struct Options
{
    Scheme scheme = Scheme::Interleaved;
    std::uint8_t contexts = 4;
    std::string mix = "DC";
    std::string app;
    bool mp = false;
    std::uint16_t procs = 8;
    Cycle cycles = 600000;
    Cycle warmup = 600000;
    std::uint32_t width = 1;
    std::uint64_t seed = 1;
    int priority = -1;
    std::string traceOut;
    std::string statsJson;
    Cycle sampleInterval = 0;
    bool check = false;
    bool why = false;
    std::string whyJson;
    bool digest = false;
    Cycle digestWindow = prof::kSpeedDigestWindowCycles;
    std::string frDump;
    std::size_t frSize = FlightRecorder::kDefaultCapacity;
    bool testOsSwapLeak = false;
    bool testPerturb = false;
    Cycle testPerturbCycle = 0;
    bool prof = false;
    std::string profJson;
    std::uint64_t progressSeconds = 0;
    bool fastForward = true;
    std::uint32_t hostThreads = 1;
    Cycle quantum = 1;
    bool help = false;
};

Scheme
parseScheme(const std::string &s)
{
    if (s == "single")
        return Scheme::Single;
    if (s == "blocked")
        return Scheme::Blocked;
    if (s == "interleaved")
        return Scheme::Interleaved;
    if (s == "fine-grained" || s == "finegrained")
        return Scheme::FineGrained;
    throw std::invalid_argument("unknown scheme: " + s +
                                " (expected single, blocked, "
                                "interleaved or fine-grained)");
}

/** Parse a full decimal value for @p flag; reject trailing junk. */
std::uint64_t
parseU64(const std::string &flag, const std::string &value,
         std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    std::uint64_t v = 0;
    std::size_t used = 0;
    try {
        v = std::stoull(value, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used != value.size() || value.empty() || value[0] == '-')
        throw std::invalid_argument(flag + ": expected a number, got '"
                                    + value + "'");
    if (v > max)
        throw std::invalid_argument(flag + ": value " + value +
                                    " out of range (max " +
                                    std::to_string(max) + ")");
    return v;
}

/** Parse a count for @p flag that must be at least 1. */
std::uint64_t
parsePositive(const std::string &flag, const std::string &value,
              std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    const std::uint64_t v = parseU64(flag, value, max);
    if (v == 0)
        throw std::invalid_argument(
            flag + ": invalid value 0: must be at least 1");
    return v;
}

/**
 * Bound for --host-threads: more than 4x the host's hardware
 * concurrency is always a typo, so fail at flag-parse time like the
 * output-path validation does.
 */
std::uint64_t
parseHostThreads(const std::string &flag, const std::string &value)
{
    const std::uint64_t v = parsePositive(flag, value);
    const unsigned hw = std::thread::hardware_concurrency();
    const std::uint64_t max =
        static_cast<std::uint64_t>(hw > 0 ? hw : 1) * 4;
    if (v > max)
        throw std::invalid_argument(
            flag + ": value " + value +
            " out of range: exceeds 4x the host's hardware "
            "concurrency (max " + std::to_string(max) + ")");
    return v;
}

/** Bound for --quantum, in simulated cycles: a longer quantum defers
 *  every cross-node invalidation and wake past most runs' length. */
constexpr std::uint64_t kMaxQuantum = 1000000;

void
usage()
{
    std::cout <<
        "mtsim_run - drive one mtsim configuration\n"
        "\n"
        "  --scheme single|blocked|interleaved|fine-grained\n"
        "  --contexts N        hardware contexts per processor\n"
        "  --mix IC|DC|DT|FP|R0|R1|SP   workstation workload\n"
        "  --app NAME          single application instead of a mix\n"
        "                      (spec kernel or splash app)\n"
        "  --mp                multiprocessor mode (runs --app on\n"
        "                      --procs nodes to completion)\n"
        "  --procs N           processors in --mp mode (default 8)\n"
        "  --cycles N          measured cycles (workstation mode)\n"
        "  --warmup N          warm-up cycles (workstation mode)\n"
        "  --width 1|2         issue width\n"
        "  --priority C        priority context (interleaved)\n"
        "  --seed N            simulation seed\n"
        "  --stats-json FILE   write machine-readable statistics\n"
        "  --trace-out FILE    write a Chrome/Perfetto event trace\n"
        "  --sample-interval N record utilization every N cycles\n"
        "                      (series included in --stats-json)\n"
        "  --check             run the invariant checker alongside\n"
        "                      the simulation; exits 3 on the first\n"
        "                      violation (docs/CHECKING.md)\n"
        "  --why               latency-tolerance ledger: per-miss\n"
        "                      overlap accounting, tolerance ratio\n"
        "                      and the top exposed-stall pcs; exits 3\n"
        "                      if the ledger does not reconcile with\n"
        "                      the cycle breakdown (passive: results\n"
        "                      are bit-identical to a plain run)\n"
        "  --why-json FILE     write the ledger as mtsim_why/v1 JSON\n"
        "                      (implies --why)\n"
        "  --digest            print the probe-stream digest (two\n"
        "                      identical runs must match)\n"
        "  --digest-window N   sub-digest window size in cycles for\n"
        "                      the --stats-json digest block\n"
        "                      (default 10000, 0 = whole-run only)\n"
        "  --fr-dump FILE      arm the flight recorder: on a checker\n"
        "                      violation, assert or fatal signal,\n"
        "                      dump the last --fr-size probe events\n"
        "                      plus machine state to FILE as JSON\n"
        "  --fr-size N         flight-recorder ring capacity in\n"
        "                      events (default 4096)\n"
        "  --test-force-osswap-leak\n"
        "                      test-only: re-seed the historical\n"
        "                      OS-swap scoreboard leak so --check\n"
        "                      trips (exercises the flight recorder)\n"
        "  --test-perturb-digest CYCLE\n"
        "                      test-only: corrupt the digest stream\n"
        "                      at the first event at/after CYCLE\n"
        "                      (exercises mtsim_diff localization)\n"
        "  --prof              self-profile the simulator and print\n"
        "                      the host-side cost tree (also enabled\n"
        "                      by MTSIM_PROF=1); simulation output\n"
        "                      is bit-identical either way\n"
        "  --prof-json FILE    write the cost tree + host info as\n"
        "                      JSON (implies --prof)\n"
        "  --progress N        print cycle count and KIPS to stderr\n"
        "                      every N host seconds\n"
        "  --no-fast-forward   tick every node every cycle (pure\n"
        "                      lockstep): no node sleeps through a\n"
        "                      proven stall window or RAW-stall\n"
        "                      batch, and the clock never jumps, on\n"
        "                      the workstation (one node) or the MP\n"
        "                      (results are bit-identical either way;\n"
        "                      only speed changes)\n"
        "  --host-threads N    (--mp only) shard the nodes across N\n"
        "                      host worker threads of the relaxed\n"
        "                      tier; N > 1 needs --quantum > 1\n"
        "                      (docs/ARCHITECTURE.md section 10)\n"
        "  --quantum N         (--mp only) cycles between the relaxed\n"
        "                      tier's barriers, 1 to 1000000. 1\n"
        "                      (default) is the cycle-exact\n"
        "                      sequential loop; N > 1 is the relaxed\n"
        "                      tier (approximate, nondeterministic;\n"
        "                      incompatible with --check/--why/\n"
        "                      --sample-interval)\n";
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        if (a == "--scheme") {
            o.scheme = parseScheme(next());
        } else if (a == "--contexts") {
            o.contexts =
                static_cast<std::uint8_t>(parseU64(a, next(), 255));
        } else if (a == "--mix") {
            o.mix = next();
        } else if (a == "--app") {
            o.app = next();
        } else if (a == "--mp") {
            o.mp = true;
        } else if (a == "--procs") {
            o.procs = static_cast<std::uint16_t>(
                parseU64(a, next(), 65535));
        } else if (a == "--cycles") {
            o.cycles = parseU64(a, next());
        } else if (a == "--warmup") {
            o.warmup = parseU64(a, next());
        } else if (a == "--width") {
            o.width =
                static_cast<std::uint32_t>(parseU64(a, next(), 2));
        } else if (a == "--priority") {
            const std::string v = next();
            if (v == "-1") {
                o.priority = -1;
            } else {
                o.priority = static_cast<int>(
                    parseU64(a, v, std::numeric_limits<int>::max()));
            }
        } else if (a == "--seed") {
            o.seed = parseU64(a, next());
        } else if (a == "--trace-out") {
            o.traceOut = next();
        } else if (a == "--stats-json") {
            o.statsJson = next();
        } else if (a == "--sample-interval") {
            o.sampleInterval = parseU64(a, next());
            if (o.sampleInterval == 0)
                throw std::invalid_argument(
                    "--sample-interval: must be >= 1");
        } else if (a == "--check") {
            o.check = true;
        } else if (a == "--why") {
            o.why = true;
        } else if (a == "--why-json") {
            o.whyJson = next();
            o.why = true;
        } else if (a == "--digest") {
            o.digest = true;
        } else if (a == "--digest-window") {
            o.digestWindow = parseU64(a, next());
        } else if (a == "--fr-dump") {
            o.frDump = next();
        } else if (a == "--fr-size") {
            o.frSize = parseU64(a, next(), 1u << 24);
            if (o.frSize == 0)
                throw std::invalid_argument("--fr-size: must be >= 1");
        } else if (a == "--test-force-osswap-leak") {
            o.testOsSwapLeak = true;
        } else if (a == "--test-perturb-digest") {
            o.testPerturbCycle = parseU64(a, next());
            o.testPerturb = true;
        } else if (a == "--prof") {
            o.prof = true;
        } else if (a == "--prof-json") {
            o.profJson = next();
            o.prof = true;
        } else if (a == "--progress") {
            o.progressSeconds = parseU64(a, next());
            if (o.progressSeconds == 0)
                throw std::invalid_argument(
                    "--progress: must be >= 1");
        } else if (a == "--no-fast-forward") {
            o.fastForward = false;
        } else if (a == "--host-threads") {
            o.hostThreads = static_cast<std::uint32_t>(
                parseHostThreads(a, next()));
        } else if (a == "--quantum") {
            o.quantum = parsePositive(a, next(), kMaxQuantum);
        } else if (a == "--help" || a == "-h") {
            o.help = true;
        } else {
            throw std::invalid_argument("unknown flag: " + a);
        }
    }
    // Cross-flag validation, order-independent (after the loop).
    if ((o.hostThreads > 1 || o.quantum > 1) && !o.mp)
        throw std::invalid_argument(
            "--host-threads/--quantum: only valid with --mp (the "
            "workstation loop is single-node)");
    if (o.hostThreads > 1 && o.quantum == 1)
        throw std::invalid_argument(
            "--host-threads > 1 needs --quantum > 1: host threads run "
            "only the relaxed tier, and quantum 1 is the sequential "
            "loop");
    if (o.quantum > 1 && (o.check || o.why || o.sampleInterval > 0))
        throw std::invalid_argument(
            "--quantum > 1 (relaxed mode) cannot preserve "
            "cycle-exact observation; drop --check/--why/"
            "--sample-interval, or drop --host-threads/--quantum "
            "for the sequential loop");
    return o;
}

/**
 * Fail fast on unwritable output destinations, at flag-parse time: a
 * long run must not die at the very end because its stats directory
 * does not exist. AtomicFile probes by opening `path.tmp`; the
 * uncommitted probe is removed by the destructor.
 */
void
validateOutputs(const Options &o)
{
    const std::pair<const char *, const std::string *> outputs[] = {
        {"--trace-out", &o.traceOut},
        {"--stats-json", &o.statsJson},
        {"--prof-json", &o.profJson},
        {"--fr-dump", &o.frDump},
        {"--why-json", &o.whyJson},
    };
    for (const auto &[flag, path] : outputs) {
        if (path->empty())
            continue;
        errno = 0;
        AtomicFile probe(*path);
        if (!probe.ok())
            throw std::runtime_error(
                std::string(flag) + ": cannot write " + *path +
                (errno != 0
                     ? std::string(": ") + std::strerror(errno)
                     : std::string()));
    }
}

void
printBreakdown(const CycleBreakdown &bd)
{
    TextTable t({"category", "cycles", "fraction"});
    for (int c = 0; c < static_cast<int>(CycleClass::NumClasses);
         ++c) {
        const auto cc = static_cast<CycleClass>(c);
        t.addRow({cycleClassName(cc), std::to_string(bd.get(cc)),
                  TextTable::num(bd.fraction(cc) * 100, 1) + "%"});
    }
    t.print(std::cout);
}

void
printCounters(CounterSet &cs)
{
    if (cs.entries().empty())
        return;
    TextTable t({"counter", "value"});
    for (const auto &[name, value] : cs.entries())
        t.addRow({name, std::to_string(value)});
    t.print(std::cout);
}

/** Wall-clock timer for the sim-speed block of the stats JSON. */
class WallClock
{
  public:
    WallClock() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        const auto d = std::chrono::steady_clock::now() - start_;
        return std::chrono::duration<double>(d).count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Open a ChromeTraceWriter for --trace-out, or null when unset. */
std::unique_ptr<ChromeTraceWriter>
makeTraceWriter(const Options &o)
{
    if (o.traceOut.empty())
        return nullptr;
    auto w = std::make_unique<ChromeTraceWriter>(o.traceOut);
    if (!w->ok())
        throw std::runtime_error("--trace-out: cannot open " +
                                 o.traceOut);
    return w;
}

struct RunInfo
{
    Cycle simulatedCycles;  ///< warm-up + measured (for sim speed)
    Cycle measuredCycles;
    double ipc;
    std::uint64_t retired;
};

void
printDigest(const ProbeDigest &d)
{
    std::cout << "probe digest: " << std::hex << std::setw(16)
              << std::setfill('0') << d.digest() << std::dec
              << std::setfill(' ') << " (" << d.events()
              << " events)\n";
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** The stats-JSON digest block: whole-run hash + window stream. */
void
writeDigestJson(JsonWriter &w, ProbeDigest &d, Cycle end_cycle)
{
    d.finishWindows(end_cycle);
    w.beginObject();
    w.kv("hash", hex64(d.digest()));
    w.kv("events", d.events());
    w.kv("window_cycles", static_cast<std::uint64_t>(
                              d.windowCycles()));
    w.key("windows");
    w.beginArray();
    for (const DigestWindow &win : d.windows()) {
        w.beginObject();
        w.kv("index", win.index);
        w.kv("start", static_cast<std::uint64_t>(win.start));
        w.kv("end", static_cast<std::uint64_t>(win.end));
        w.kv("hash", hex64(win.hash));
        w.kv("events", win.events);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeStatsJson(const Options &o, const RunInfo &info,
               const CycleBreakdown &bd, const CounterSet &counters,
               const std::vector<std::pair<std::string,
                                           const Histogram *>> &hists,
               const IntervalSampler *sampler, ProbeDigest *digest,
               double wall_seconds)
{
    AtomicFile file(o.statsJson);
    if (!file.ok())
        throw std::runtime_error("--stats-json: cannot open " +
                                 file.tmpPath());
    std::ostream &out = file.stream();
    JsonWriter w(out);
    w.beginObject();

    w.key("run");
    w.beginObject();
    w.kv("mode", o.mp ? "multiprocessor" : "workstation");
    w.kv("scheme", schemeName(o.scheme));
    w.kv("contexts", static_cast<std::uint64_t>(o.contexts));
    if (o.mp) {
        w.kv("procs", static_cast<std::uint64_t>(o.procs));
        w.kv("app", o.app.empty() ? "water" : o.app);
        // Additive: absent means the sequential run loop (1, 1).
        if (o.hostThreads != 1 || o.quantum != 1) {
            w.kv("host_threads",
                 static_cast<std::uint64_t>(o.hostThreads));
            w.kv("quantum", static_cast<std::uint64_t>(o.quantum));
        }
    } else if (!o.app.empty()) {
        w.kv("app", o.app);
    } else {
        w.kv("mix", o.mix);
    }
    w.kv("width", static_cast<std::uint64_t>(o.width));
    w.kv("seed", o.seed);
    if (!o.mp)
        w.kv("warmup", static_cast<std::uint64_t>(o.warmup));
    w.kv("measured_cycles",
         static_cast<std::uint64_t>(info.measuredCycles));
    w.endObject();

    w.kv("ipc", info.ipc);
    w.kv("retired", info.retired);

    w.key("breakdown");
    writeBreakdownJson(w, bd);

    w.key("counters");
    writeCountersJson(w, counters);

    w.key("histograms");
    w.beginObject();
    for (const auto &[name, h] : hists) {
        w.key(name);
        writeHistogramJson(w, *h);
    }
    w.endObject();

    if (sampler != nullptr) {
        w.key("samples");
        writeSamplerJson(w, *sampler);
    }

    if (digest != nullptr) {
        w.key("digest");
        writeDigestJson(w, *digest, info.simulatedCycles);
    }

    w.key("sim_speed");
    w.beginObject();
    w.kv("wall_seconds", wall_seconds);
    w.kv("simulated_cycles",
         static_cast<std::uint64_t>(info.simulatedCycles));
    w.kv("cycles_per_second",
         wall_seconds > 0.0
             ? static_cast<double>(info.simulatedCycles) /
                   wall_seconds
             : 0.0);
    w.endObject();

    w.key("host");
    prof::writeHostJson(
        w, prof::Throughput{
               wall_seconds,
               static_cast<std::uint64_t>(info.simulatedCycles),
               info.retired});

    w.endObject();
    out << '\n';
    if (!file.commit())
        throw std::runtime_error("--stats-json: cannot write " +
                                 o.statsJson);
}

/** One "p50/p90/max" summary line for a ledger histogram. */
std::string
histLine(const Histogram &h)
{
    if (h.count() == 0)
        return "(none)";
    return "mean " + TextTable::num(h.mean(), 1) + ", p50 " +
           TextTable::num(h.percentile(50), 0) + ", p90 " +
           TextTable::num(h.percentile(90), 0) + ", max " +
           std::to_string(h.maxValue());
}

/** The --why text report (docs/OBSERVABILITY.md, "The
 *  latency-tolerance ledger"). */
void
printWhyReport(const WhyLedger &l)
{
    std::cout << "latency-tolerance ledger:\n"
              << "  tolerance ratio "
              << TextTable::num(l.toleranceRatio(), 4) << "  ("
              << l.hiddenCoveredCycles() << " of "
              << l.coveredCycles()
              << " miss-covered cycles hidden by issue)\n"
              << "  misses closed " << l.missesClosed()
              << ", still open " << l.openMisses() << '\n'
              << "  miss latency   " << histLine(l.latencyHist())
              << '\n'
              << "  hidden/miss    " << histLine(l.hiddenHist())
              << '\n'
              << "  exposed/miss   " << histLine(l.exposedHist())
              << "\n\n";

    TextTable t({"category", "under-miss", "clear"});
    t.addRow({"busy (same-ctx ILP)",
              std::to_string(l.aggHiddenSame()), "-"});
    t.addRow({"busy (other ctx)",
              std::to_string(l.aggHiddenOther()), "-"});
    t.addRow({"busy (no miss)", "-",
              std::to_string(l.aggClear(CycleClass::Busy))});
    for (int c = 1; c < static_cast<int>(CycleClass::NumClasses);
         ++c) {
        const auto cc = static_cast<CycleClass>(c);
        t.addRow({cycleClassName(cc),
                  std::to_string(l.aggUnder(cc)),
                  std::to_string(l.aggClear(cc))});
    }
    t.print(std::cout);

    const auto top = l.topExposed(10);
    if (!top.empty()) {
        std::cout << '\n';
        TextTable pcs({"exposed pc", "issues", "exposed cycles"});
        for (const auto &row : top) {
            pcs.addRow({hex64(row.pc), std::to_string(row.issues),
                        std::to_string(row.exposed)});
        }
        pcs.print(std::cout);
    }
}

/** Serialize the ledger as an mtsim_why/v1 document. */
void
writeWhyJson(const Options &o, const WhyLedger &l)
{
    AtomicFile file(o.whyJson);
    if (!file.ok())
        throw std::runtime_error("--why-json: cannot open " +
                                 file.tmpPath());
    std::ostream &out = file.stream();
    JsonWriter w(out);
    w.beginObject();
    w.kv("schema", "mtsim_why/v1");

    w.key("run");
    w.beginObject();
    w.kv("mode", o.mp ? "multiprocessor" : "workstation");
    w.kv("scheme", schemeName(o.scheme));
    w.kv("contexts", static_cast<std::uint64_t>(o.contexts));
    if (o.mp) {
        w.kv("procs", static_cast<std::uint64_t>(o.procs));
        w.kv("app", o.app.empty() ? "water" : o.app);
    } else if (!o.app.empty()) {
        w.kv("app", o.app);
    } else {
        w.kv("mix", o.mix);
    }
    w.kv("width", static_cast<std::uint64_t>(o.width));
    w.kv("seed", o.seed);
    w.endObject();

    w.key("tolerance");
    w.beginObject();
    w.kv("covered_cycles", l.coveredCycles());
    w.kv("hidden_covered_cycles", l.hiddenCoveredCycles());
    w.kv("ratio", l.toleranceRatio());
    w.kv("misses_closed", l.missesClosed());
    w.kv("open_misses", l.openMisses());
    w.kv("unexplained", l.unexplained());
    w.endObject();

    w.key("attribution");
    w.beginObject();
    w.kv("hidden_same_ctx", l.aggHiddenSame());
    w.kv("hidden_other_ctx", l.aggHiddenOther());
    w.key("classes");
    w.beginArray();
    for (int c = 0; c < static_cast<int>(CycleClass::NumClasses);
         ++c) {
        const auto cc = static_cast<CycleClass>(c);
        w.beginObject();
        w.kv("class", cycleClassName(cc));
        w.kv("under_miss", l.aggUnder(cc));
        w.kv("clear", l.aggClear(cc));
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("histograms");
    w.beginObject();
    w.key("miss_latency");
    writeHistogramJson(w, l.latencyHist());
    w.key("hidden_per_miss");
    writeHistogramJson(w, l.hiddenHist());
    w.key("exposed_per_miss");
    writeHistogramJson(w, l.exposedHist());
    w.endObject();

    // Sorted by pc so two runs' rows align and a diff localizes the
    // first diverging row (tools/mtsim_diff).
    std::vector<WhyLedger::PcEntry> rows;
    rows.reserve(l.pcTable().size());
    for (const auto &[pc, row] : l.pcTable())
        rows.push_back({pc, row.issues, row.exposed});
    std::sort(rows.begin(), rows.end(),
              [](const WhyLedger::PcEntry &a,
                 const WhyLedger::PcEntry &b) { return a.pc < b.pc; });
    w.key("pcs");
    w.beginArray();
    for (const auto &row : rows) {
        w.beginObject();
        w.kv("pc", hex64(row.pc));
        w.kv("issues", row.issues);
        w.kv("exposed", row.exposed);
        w.endObject();
    }
    w.endArray();

    w.endObject();
    out << '\n';
    if (!file.commit())
        throw std::runtime_error("--why-json: cannot write " +
                                 o.whyJson);
}

/** Enforce the breakdown reconciliation contract, then report. */
void
finishWhy(const Options &o, const WhyLedger &l)
{
    enforceWhyReconciliation(l);
    std::cout << '\n';
    printWhyReport(l);
    if (!o.whyJson.empty())
        writeWhyJson(o, l);
}

/**
 * Print the --prof cost tree and (with --prof-json) serialize it plus
 * the host block. Runs after the regular report so the tree lands at
 * the bottom of stdout.
 */
void
finishProfile(const Options &o, const prof::Throughput &t)
{
    if (!o.prof)
        return;
    std::cout << '\n';
    prof::Profiler::instance().report(std::cout);
    if (o.profJson.empty())
        return;
    AtomicFile file(o.profJson);
    if (!file.ok())
        throw std::runtime_error("--prof-json: cannot open " +
                                 file.tmpPath());
    JsonWriter w(file.stream());
    w.beginObject();
    w.key("host");
    prof::writeHostJson(w, t);
    w.key("profile");
    prof::Profiler::instance().writeJson(w);
    w.endObject();
    file.stream() << '\n';
    if (!file.commit())
        throw std::runtime_error("--prof-json: cannot write " +
                                 o.profJson);
}

int
runUniMode(const Options &o)
{
    if (o.prof)
        prof::Profiler::instance().enable(true);
    Config cfg = Config::make(o.scheme, o.contexts);
    cfg.issueWidth = o.width;
    cfg.priorityContext = o.priority;
    cfg.seed = o.seed;
    UniSystem sys(cfg);
    sys.setFastForward(o.fastForward);
    if (!o.app.empty()) {
        sys.addApp(o.app, specKernel(o.app));
    } else if (o.mix == "SP") {
        for (const auto &app : spWorkload())
            sys.addApp(app, splashUniKernel(app));
    } else {
        for (const auto &app : uniWorkload(o.mix))
            sys.addApp(app, specKernel(app));
    }

    // The recorder subscribes before the checker: the checker throws
    // from inside the emitting probe call, so only earlier sinks see
    // the violating event - and the dump must include it.
    std::optional<FlightRecorder> recorder;
    if (!o.frDump.empty()) {
        recorder.emplace(o.frSize);
        sys.attachFlightRecorder(&*recorder);
        FlightRecorder::installCrashDump(&*recorder, o.frDump);
    }
    if (o.testOsSwapLeak)
        sys.processor().testForceOsSwapLeak(true);
    if (o.check)
        sys.enableChecking();
    std::optional<WhyLedger> why;
    if (o.why) {
        why.emplace(cfg, std::vector<Processor *>{&sys.processor()});
        sys.attachWhyLedger(&*why);
    }
    auto trace = makeTraceWriter(o);
    if (trace)
        sys.probes().addSink(trace.get());
    std::optional<ProbeDigest> digest;
    if (o.digest || !o.statsJson.empty()) {
        digest.emplace(o.digestWindow);
        if (o.testPerturb)
            digest->testPerturbAtCycle(o.testPerturbCycle);
        sys.probes().addSink(&*digest);
    }
    std::optional<IntervalSampler> sampler;
    if (o.sampleInterval > 0) {
        sampler.emplace(o.sampleInterval);
        sys.setSampler(&*sampler);
    }
    std::optional<prof::ProgressMeter> progress;
    if (o.progressSeconds > 0) {
        progress.emplace(static_cast<double>(o.progressSeconds),
                         std::cerr);
        sys.setProgress(&*progress);
    }

    WallClock wall;
    try {
        MTSIM_PROF_SCOPE("run");
        sys.run(o.warmup, o.cycles);
    } catch (const CheckError &e) {
        if (recorder) {
            if (recorder->dumpToFile(o.frDump, e.what()))
                std::cerr << "flight recorder: wrote " << o.frDump
                          << " (" << recorder->size()
                          << " events)\n";
            FlightRecorder::uninstallCrashDump();
        }
        throw;
    }
    if (recorder)
        FlightRecorder::uninstallCrashDump();
    const double wall_seconds = wall.seconds();
    if (trace) {
        sys.probes().removeSink(trace.get());
        trace->finish();
    }

    std::cout << "workstation, scheme " << schemeName(o.scheme)
              << ", " << int(o.contexts) << " context(s), "
              << sys.measuredCycles() << " measured cycles\n"
              << "IPC " << TextTable::num(sys.throughput(), 4)
              << ", " << sys.retired() << " instructions\n\n";
    for (std::size_t a = 0; a < sys.scheduler().numApps(); ++a) {
        std::cout << "  app " << sys.scheduler().appName(
                         static_cast<std::uint32_t>(a))
                  << ": "
                  << sys.retiredForApp(static_cast<std::uint32_t>(a))
                  << " instructions\n";
    }
    std::cout << '\n';
    printBreakdown(sys.breakdown());
    std::cout << '\n';
    CounterSet counters = sys.mem().counters();
    counters.inc("prefetch_dropped",
                 sys.processor().prefetchesDropped());
    printCounters(counters);
    if (o.check)
        std::cout << "check: " << sys.checker()->summary() << '\n';
    if (o.digest && digest)
        printDigest(*digest);
    if (why)
        finishWhy(o, *why);

    if (!o.statsJson.empty()) {
        RunInfo info{o.warmup + o.cycles, sys.measuredCycles(),
                     sys.throughput(), sys.retired()};
        writeStatsJson(
            o, info, sys.breakdown(), counters,
            {{"dmiss_latency", &sys.mem().dmissLatency()},
             {"bus_queue_delay", &sys.mem().busQueueDelay()},
             {"context_run_length",
              &sys.processor().runLengthHistogram()}},
            sampler ? &*sampler : nullptr,
            digest ? &*digest : nullptr, wall_seconds);
    }
    finishProfile(o, prof::Throughput{
                         wall_seconds,
                         static_cast<std::uint64_t>(o.warmup +
                                                    o.cycles),
                         sys.retired()});
    return 0;
}

int
runMpMode(const Options &o)
{
    if (o.prof)
        prof::Profiler::instance().enable(true);
    const std::string app = o.app.empty() ? "water" : o.app;
    Config cfg = Config::makeMp(o.scheme, o.contexts, o.procs);
    cfg.issueWidth = o.width;
    cfg.seed = o.seed;
    MpSystem sys(cfg);
    sys.setFastForward(o.fastForward);
    sys.setHostParallel(o.hostThreads, o.quantum);
    sys.setStatsBarrier(kStatsBarrier);
    sys.loadApp(splashApp(app));

    // Recorder before checker, as in runUniMode: the checker throws
    // mid-emit, and the dump must include the violating event.
    std::optional<FlightRecorder> recorder;
    if (!o.frDump.empty()) {
        recorder.emplace(o.frSize);
        sys.attachFlightRecorder(&*recorder);
        FlightRecorder::installCrashDump(&*recorder, o.frDump);
    }
    if (o.testOsSwapLeak) {
        for (ProcId p = 0; p < cfg.numProcessors; ++p)
            sys.processor(p).testForceOsSwapLeak(true);
    }
    if (o.check)
        sys.enableChecking();
    std::optional<WhyLedger> why;
    if (o.why) {
        std::vector<Processor *> procs;
        for (ProcId p = 0; p < cfg.numProcessors; ++p)
            procs.push_back(&sys.processor(p));
        why.emplace(cfg, std::move(procs));
        sys.attachWhyLedger(&*why);
    }
    auto trace = makeTraceWriter(o);
    if (trace)
        sys.probes().addSink(trace.get());
    std::optional<ProbeDigest> digest;
    if (o.digest || !o.statsJson.empty()) {
        digest.emplace(o.digestWindow);
        if (o.testPerturb)
            digest->testPerturbAtCycle(o.testPerturbCycle);
        sys.probes().addSink(&*digest);
    }
    std::optional<IntervalSampler> sampler;
    if (o.sampleInterval > 0) {
        sampler.emplace(o.sampleInterval);
        sys.setSampler(&*sampler);
    }
    std::optional<prof::ProgressMeter> progress;
    if (o.progressSeconds > 0) {
        progress.emplace(static_cast<double>(o.progressSeconds),
                         std::cerr);
        sys.setProgress(&*progress);
    }

    WallClock wall;
    Cycle measured = 0;
    try {
        MTSIM_PROF_SCOPE("run");
        measured = sys.run();
    } catch (const CheckError &e) {
        if (recorder) {
            if (recorder->dumpToFile(o.frDump, e.what()))
                std::cerr << "flight recorder: wrote " << o.frDump
                          << " (" << recorder->size()
                          << " events)\n";
            FlightRecorder::uninstallCrashDump();
        }
        throw;
    }
    if (recorder)
        FlightRecorder::uninstallCrashDump();
    const double wall_seconds = wall.seconds();
    if (trace) {
        sys.probes().removeSink(trace.get());
        trace->finish();
    }
    if (!sys.finished()) {
        std::cerr << "application did not finish\n";
        return 1;
    }
    std::cout << "multiprocessor, " << o.procs << " nodes, scheme "
              << schemeName(o.scheme) << ", " << int(o.contexts)
              << " context(s)/processor\napplication " << app
              << ": " << measured << " parallel-section cycles, "
              << sys.retired() << " instructions\n\n";
    const CycleBreakdown bd = sys.aggregateBreakdown();
    printBreakdown(bd);
    std::cout << '\n';
    CounterSet counters = sys.mem().counters();
    std::uint64_t dropped = 0;
    for (ProcId p = 0; p < cfg.numProcessors; ++p)
        dropped += sys.processor(p).prefetchesDropped();
    counters.inc("prefetch_dropped", dropped);
    printCounters(counters);
    if (o.check)
        std::cout << "check: " << sys.checker()->summary() << '\n';
    if (o.digest && digest)
        printDigest(*digest);
    if (why)
        finishWhy(o, *why);

    if (!o.statsJson.empty()) {
        Histogram runLen;
        for (ProcId p = 0; p < cfg.numProcessors; ++p)
            runLen.merge(sys.processor(p).runLengthHistogram());
        const double ipc =
            measured > 0 ? static_cast<double>(sys.retired()) /
                               static_cast<double>(measured)
                         : 0.0;
        RunInfo info{sys.now(), measured, ipc, sys.retired()};
        writeStatsJson(
            o, info, bd, counters,
            {{"dmiss_latency", &sys.mem().dmissLatency()},
             {"context_run_length", &runLen}},
            sampler ? &*sampler : nullptr,
            digest ? &*digest : nullptr, wall_seconds);
    }
    finishProfile(o, prof::Throughput{
                         wall_seconds,
                         static_cast<std::uint64_t>(sys.now()),
                         sys.retired()});
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Options o = parse(argc, argv);
        if (o.help) {
            usage();
            return 0;
        }
        validateOutputs(o);
        if (const char *v = std::getenv("MTSIM_PROF");
            v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0)
            o.prof = true;
        return o.mp ? runMpMode(o) : runUniMode(o);
    } catch (const CheckError &e) {
        std::cerr << "invariant violation: " << e.what() << '\n';
        return 3;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n\n";
        usage();
        return 2;
    }
}
