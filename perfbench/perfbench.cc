/**
 * @file
 * The repository benchmark program (README.md in this directory).
 *
 * One process runs one workload: a fixed sweep of simulations driven
 * through the library's public API (UniSystem, MpSystem,
 * MpSystem::setHostParallel), repeated in a closed loop until the
 * time budget is spent. Every run's simulated output is checked
 * against a fingerprint. Timed runs are measured in process CPU
 * time, rescaled by a calibration kernel timed between runs so that
 * the host's speed swings cancel. The last line of stdout is one JSON
 * object: the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1), which come from extra passes after the timed ones: the
 * sweep traced, the workload's observed runs, and on mp the relaxed
 * tier.
 *
 *   perfbench --workload uni --seed 1 --seconds 50 --trace 0
 *             --reference reference_seed1.json [--spans-out FILE]
 *   perfbench --self-test --reference reference_seed1.json
 *   perfbench --write-reference FILE
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <malloc.h>

#include "check/digest.hh"
#include "check/why_reconcile.hh"
#include "common/config.hh"
#include "metrics/json_parse.hh"
#include "metrics/json_stats.hh"
#include "obs/why_ledger.hh"
#include "prof/host_info.hh"
#include "prof/profiler.hh"
#include "prof/speed.hh"
#include "spec/spec_suite.hh"
#include "splash/splash_suite.hh"
#include "system/mp_system.hh"
#include "system/uni_system.hh"
#include "workload/replay.hh"

using namespace mtsim;

namespace {

// ---- Workloads -------------------------------------------------------

/** Table 7's window (the paper discards a warm-up slice). */
constexpr Cycle kUniWarmup = 600000;
constexpr Cycle kUniMeasure = 600000;
/** Table 10's machine. */
constexpr std::uint16_t kMpProcs = 8;
/** The relaxed tier, measured in mp's traced run: 2 host threads is
 *  at most nproc/2 on a 4-core host; quantum 256 is the setting
 *  EXPERIMENTS.md calls near-free in accuracy (and one mtsim_run
 *  cannot reach on such a host). */
constexpr std::uint32_t kParThreads = 2;
constexpr Cycle kParQuantum = 256;
/** Ops each kernel decodes in the standalone decode drive, and the
 *  thread count (the sweep's largest) its MP kernels are built for. */
constexpr std::size_t kDecodeOps = 200000;
constexpr std::uint32_t kDecodeMpThreads = kMpProcs * 4;
/** MpSystem's shared segment base (system/mp_system.cc). */
constexpr Addr kSharedBase = 0x4000000000ull;

enum class Tier { Uni, Mp, Relaxed };

struct RunSpec
{
    std::string name;     ///< stable key, e.g. "uni/DC/interleaved/4ctx"
    /** The observer-free sequential run with the same simulated
     *  output: the fingerprint reference of this run. */
    std::string plain;
    Tier tier = Tier::Uni;
    std::string workload; ///< uni mix or SPLASH application
    Scheme scheme = Scheme::Single;
    std::uint8_t contexts = 1;
    /** Invariant checker, why ledger and probe digest attached. */
    bool observed = false;
};

std::string
runName(const char *kind, const std::string &w, Scheme s,
        std::uint8_t n)
{
    return std::string(kind) + "/" + w + "/" + schemeName(s) + "/" +
           std::to_string(n) + "ctx";
}

RunSpec
makeSpec(Tier tier, const std::string &w, Scheme s, std::uint8_t n,
         bool observed = false)
{
    RunSpec r;
    r.plain = runName(tier == Tier::Uni ? "uni" : "mp", w, s, n);
    r.name = observed                ? "checked/" + r.plain
             : tier == Tier::Relaxed ? runName("mp_par", w, s, n)
                                     : r.plain;
    r.tier = tier;
    r.workload = w;
    r.scheme = s;
    r.contexts = n;
    r.observed = observed;
    return r;
}

/** The fixed run order of workload @p w. */
std::vector<RunSpec>
workloadRuns(const std::string &w)
{
    struct Point
    {
        Scheme scheme;
        std::uint8_t contexts;
    };
    const Point single{Scheme::Single, 1};
    const Point blocked4{Scheme::Blocked, 4};
    const Point inter4{Scheme::Interleaved, 4};
    std::vector<RunSpec> runs;
    if (w == "uni") {
        std::vector<std::string> mixes = uniWorkloadNames();
        mixes.push_back("SP");
        for (const auto &mix : mixes) {
            for (const Point &p : {single, blocked4, inter4})
                runs.push_back(
                    makeSpec(Tier::Uni, mix, p.scheme, p.contexts));
        }
    } else if (w == "mp") {
        for (const auto &app : splashApps()) {
            for (const Point &p : {single, inter4})
                runs.push_back(
                    makeSpec(Tier::Mp, app, p.scheme, p.contexts));
        }
    } else {
        throw std::invalid_argument("unknown workload '" + w +
                                    "' (uni or mp)");
    }
    return runs;
}

/**
 * The runs of workload @p w that its traced run repeats with the
 * invariant checker, the why ledger and a probe digest attached (the
 * `mtsim_run --check --why --digest` path): DC and FP on the
 * workstation, water and ocean on the MP, each single/1 and
 * interleaved/4.
 */
std::vector<RunSpec>
observedRuns(const std::string &w)
{
    std::vector<RunSpec> runs;
    for (const char *app : w == "uni" ? std::vector<const char *>{"DC", "FP"}
                                      : std::vector<const char *>{
                                            "water", "ocean"}) {
        for (std::uint8_t n : {1, 4})
            runs.push_back(makeSpec(w == "uni" ? Tier::Uni : Tier::Mp,
                                    app,
                                    n == 1 ? Scheme::Single
                                           : Scheme::Interleaved,
                                    n, true));
    }
    return runs;
}

/** The MP sweep on the relaxed tier, in the same order. */
std::vector<RunSpec>
relaxedRuns()
{
    std::vector<RunSpec> runs;
    for (const RunSpec &r : workloadRuns("mp"))
        runs.push_back(
            makeSpec(Tier::Relaxed, r.workload, r.scheme, r.contexts));
    return runs;
}

// ---- Tracing: the benchmark's own spans ---------------------------

/**
 * Spans the traced pass records around each public call it makes.
 * Spans of one config share its id; they are kept in memory and
 * written out as Chrome trace_event JSON when the benchmark ends.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::uint32_t id = 0;
        std::int64_t parent = -1;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        std::vector<std::pair<std::string, double>> args;
    };

    std::size_t
    open(const std::string &name, std::uint32_t id)
    {
        Span s;
        s.name = name;
        s.id = id;
        s.parent = stack_.empty()
                       ? -1
                       : static_cast<std::int64_t>(stack_.back());
        s.startNs = prof::nowNs();
        spans_.push_back(std::move(s));
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void
    close(std::size_t idx)
    {
        spans_[idx].endNs = prof::nowNs();
        stack_.pop_back();
    }

    Span &at(std::size_t idx) { return spans_[idx]; }

    void
    write(std::ostream &os) const
    {
        const std::uint64_t t0 =
            spans_.empty() ? 0 : spans_.front().startNs;
        JsonWriter w(os);
        w.beginObject();
        w.key("traceEvents");
        w.beginArray();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            w.beginObject();
            w.kv("name", s.name);
            w.kv("ph", "X");
            w.kv("pid", std::uint64_t{1});
            w.kv("tid", std::uint64_t{1});
            w.kv("ts", static_cast<double>(s.startNs - t0) / 1e3);
            w.kv("dur", static_cast<double>(s.endNs - s.startNs) / 1e3);
            w.key("args");
            w.beginObject();
            w.kv("id", static_cast<std::uint64_t>(s.id));
            w.kv("span", static_cast<std::uint64_t>(i));
            w.kv("parent", static_cast<std::int64_t>(s.parent));
            for (const auto &[k, v] : s.args)
                w.kv(k, v);
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << '\n';
    }

  private:
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

/** RAII span; a no-op without a log (untraced runs). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const std::string &name, std::uint32_t id)
        : log_(log)
    {
        if (log_ != nullptr)
            idx_ = log_->open(name, id);
    }

    ~ScopedSpan()
    {
        if (log_ != nullptr)
            log_->close(idx_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    std::size_t idx_ = 0;
};

/** Per-kind probe event counts (the traced pass's sink). */
class CountingSink final : public ProbeSink
{
  public:
    void
    onEvent(const ProbeEvent &ev) override
    {
        ++counts_[static_cast<std::size_t>(ev.kind)];
    }

    std::uint64_t
    count(ProbeKind k) const
    {
        return counts_[static_cast<std::size_t>(k)];
    }

    std::uint64_t
    total() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t c : counts_)
            n += c;
        return n;
    }

  private:
    std::array<std::uint64_t,
               static_cast<std::size_t>(ProbeKind::NumKinds)>
        counts_{};
};

/** What the traced pass attaches to one run. */
struct TraceHooks
{
    SpanLog *spans = nullptr;
    std::uint32_t id = 0;
    CountingSink *counter = nullptr;
};

// ---- One run -------------------------------------------------------

/** CPU time of the whole process in nanoseconds. The timed sweeps use
 *  it rather than the wall clock: time the host takes the CPU away
 *  (another process, or steal time under a hypervisor) is not the
 *  simulator's cost, and counting every thread keeps work moved to a
 *  helper thread inside the measurement. */
std::uint64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/** FNV-1a over 64-bit words and strings: the run fingerprint. */
class Fnv
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i, v >>= 8) {
            h_ ^= v & 0xff;
            h_ *= 1099511628211ull;
        }
    }

    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 1099511628211ull;
        }
        add(s.size());
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Per-layer counts read from public accessors after a run. */
struct Counts
{
    std::uint64_t cycles = 0;       ///< simulated cycles, whole run
    std::uint64_t ffCycles = 0;
    std::uint64_t batchedCycles = 0;
    std::uint64_t squashed = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t memRetries = 0;
    std::uint64_t busWait = 0;
    std::uint64_t cohAccesses = 0;
    std::uint64_t cohRetries = 0;
    std::uint64_t missLatSum = 0;
    std::uint64_t missLatCount = 0;
    std::uint64_t syncAcquires = 0;
    std::uint64_t syncContended = 0;
    std::uint64_t syncBarriers = 0;
    std::uint64_t syncWait = 0;
    std::uint64_t osSwaps = 0;
    std::uint64_t quanta = 0;
    std::uint64_t violations = 0;

    Counts &
    operator+=(const Counts &o)
    {
        cycles += o.cycles;
        ffCycles += o.ffCycles;
        batchedCycles += o.batchedCycles;
        squashed += o.squashed;
        memAccesses += o.memAccesses;
        memRetries += o.memRetries;
        busWait += o.busWait;
        cohAccesses += o.cohAccesses;
        cohRetries += o.cohRetries;
        missLatSum += o.missLatSum;
        missLatCount += o.missLatCount;
        syncAcquires += o.syncAcquires;
        syncContended += o.syncContended;
        syncBarriers += o.syncBarriers;
        syncWait += o.syncWait;
        osSwaps += o.osSwaps;
        quanta += o.quanta;
        violations += o.violations;
        return *this;
    }
};

struct RunResult
{
    double setupCpuS = 0.0;     ///< construct + load + attach, CPU
    double runS = 0.0;          ///< inside run(), wall
    double runCpuS = 0.0;       ///< inside run(), CPU (cpuNs)
    std::uint64_t retired = 0;  ///< measured-window instructions
    Cycle measured = 0;
    std::uint64_t fingerprint = 0;
    std::uint64_t digest = 0;   ///< probe digest (0 = none attached)
    std::uint64_t digestEvents = 0;
    std::uint64_t issueWidth = 1;
    std::uint32_t procsPerTickCall = 1;
    Counts counts;
    std::string failure;        ///< empty = every in-run gate passed
};

/** Fold a CounterSet into the fingerprint, in its stable order. */
void
addCounters(Fnv &fp, const CounterSet &c)
{
    for (const auto &[name, v] : c.entries()) {
        fp.add(name);
        fp.add(v);
    }
}

void
addBreakdown(Fnv &fp, const CycleBreakdown &bd)
{
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(CycleClass::NumClasses); ++c)
        fp.add(bd.get(static_cast<CycleClass>(c)));
}

/**
 * Slot conservation: the breakdown holds width x cycles x procs
 * slots. A workstation run ends mid-stream, so equality is exact. An
 * MP processor whose threads have all finished leaves its end-of-run
 * tail unattributed by design (Processor::attributeIdle), so there
 * the total may fall short but never exceed it; the observed runs'
 * invariant checker audits every cycle's width exactly.
 */
std::string
slotCheck(const CycleBreakdown &bd, std::uint64_t width, Cycle measured,
          std::uint64_t procs)
{
    const std::uint64_t want = width * measured * procs;
    if (bd.total() == want || (procs > 1 && bd.total() < want))
        return {};
    return "slot conservation: breakdown total " +
           std::to_string(bd.total()) + " vs width x cycles x procs " +
           std::to_string(want);
}

/** Audit the observers an observed run attached (mtsim_run --check
 *  --why --digest). */
void
finishObserved(const WhyLedger &why, const InvariantChecker &chk,
               RunResult &out)
{
    out.counts.violations = chk.violations().size();
    if (!chk.violations().empty() && out.failure.empty())
        out.failure = chk.violations().front().str();
    const std::vector<Violation> audit = auditWhyReconciliation(why);
    if (!audit.empty() && out.failure.empty())
        out.failure = "why ledger: " + audit.front().str();
}

CheckConfig
countingCheckConfig()
{
    CheckConfig cc;
    cc.abortOnViolation = false; // count violations; the gate fails
    return cc;
}

RunResult
runUni(const RunSpec &r, std::uint64_t seed, const TraceHooks &th)
{
    RunResult out;
    Config cfg = Config::make(r.scheme, r.contexts);
    cfg.seed = seed;
    out.issueWidth = cfg.issueWidth;
    ProbeDigest digest(r.observed ? prof::kSpeedDigestWindowCycles : 0);
    std::optional<UniSystem> sys;
    std::optional<WhyLedger> why;

    const std::uint64_t c0 = cpuNs();
    {
        ScopedSpan s(th.spans, "construct", th.id);
        sys.emplace(cfg);
    }
    {
        ScopedSpan s(th.spans, "addApp", th.id);
        if (r.workload == "SP") {
            for (const auto &app : spWorkload())
                sys->addApp(app, splashUniKernel(app));
        } else {
            for (const auto &app : uniWorkload(r.workload))
                sys->addApp(app, specKernel(app));
        }
    }
    if (r.observed) {
        sys->enableChecking(countingCheckConfig());
        why.emplace(cfg, std::vector<Processor *>{&sys->processor()});
        sys->attachWhyLedger(&*why);
    }
    if (r.observed || th.counter != nullptr)
        sys->probes().addSink(&digest);
    if (th.counter != nullptr)
        sys->probes().addSink(th.counter);
    const std::uint64_t t1 = prof::nowNs();
    const std::uint64_t c1 = cpuNs();
    {
        ScopedSpan s(th.spans, "run", th.id);
        std::optional<prof::ScopedTimer> scope;
        if (th.spans != nullptr)
            scope.emplace("bench.run");
        sys->run(kUniWarmup, kUniMeasure);
    }
    const std::uint64_t t2 = prof::nowNs();
    const std::uint64_t c2 = cpuNs();
    out.setupCpuS = static_cast<double>(c1 - c0) / 1e9;
    out.runS = static_cast<double>(t2 - t1) / 1e9;
    out.runCpuS = static_cast<double>(c2 - c1) / 1e9;

    ScopedSpan s(th.spans, "readout", th.id);
    Processor &proc = sys->processor();
    UniMemSystem &mem = sys->mem();
    out.measured = sys->measuredCycles();
    out.retired = sys->retired();
    Fnv fp;
    fp.add(out.measured);
    for (std::size_t a = 0; a < sys->scheduler().numApps(); ++a)
        fp.add(sys->retiredForApp(static_cast<std::uint32_t>(a)));
    addBreakdown(fp, sys->breakdown());
    addCounters(fp, mem.counters());
    fp.add(mem.l1i().hits());
    fp.add(mem.l1i().misses());
    fp.add(proc.prefetchesDropped());
    out.fingerprint = fp.value();
    out.failure = slotCheck(sys->breakdown(), cfg.issueWidth,
                            out.measured, 1);
    if (r.observed || th.counter != nullptr) {
        out.digest = digest.digest();
        out.digestEvents = digest.events();
    }

    const CounterSet &ctr = mem.counters();
    Counts &c = out.counts;
    c.cycles = sys->now();
    c.ffCycles = sys->fastForwardedCycles();
    c.batchedCycles = sys->stallBatchedCycles();
    c.squashed = proc.squashedSlots();
    c.memAccesses = ctr.get("l1d_hits") + ctr.get("l1d_misses") +
                    ctr.get("l1d_write_hits") +
                    ctr.get("l1d_write_misses") + mem.l1i().hits() +
                    mem.l1i().misses();
    c.memRetries = ctr.get("mshr_stalls") + ctr.get("wbuf_stalls");
    c.busWait = mem.busQueueDelay().sum();
    c.osSwaps = sys->scheduler().swaps();
    if (r.observed)
        finishObserved(*why, *sys->checker(), out);
    return out;
}

RunResult
runMp(const RunSpec &r, std::uint64_t seed, const TraceHooks &th)
{
    RunResult out;
    Config cfg = Config::makeMp(r.scheme, r.contexts, kMpProcs);
    cfg.seed = seed;
    out.issueWidth = cfg.issueWidth;
    const bool relaxed = r.tier == Tier::Relaxed;
    out.procsPerTickCall =
        relaxed ? kMpProcs / kParThreads : kMpProcs;
    ProbeDigest digest(r.observed ? prof::kSpeedDigestWindowCycles : 0);
    std::optional<MpSystem> sys;
    std::optional<WhyLedger> why;

    const std::uint64_t c0 = cpuNs();
    {
        ScopedSpan s(th.spans, "construct", th.id);
        sys.emplace(cfg);
        if (relaxed)
            sys->setHostParallel(kParThreads, kParQuantum);
        sys->setStatsBarrier(kStatsBarrier);
    }
    {
        ScopedSpan s(th.spans, "loadApp", th.id);
        sys->loadApp(splashApp(r.workload));
    }
    if (r.observed) {
        sys->enableChecking(countingCheckConfig());
        std::vector<Processor *> procs;
        for (ProcId p = 0; p < cfg.numProcessors; ++p)
            procs.push_back(&sys->processor(p));
        why.emplace(cfg, std::move(procs));
        sys->attachWhyLedger(&*why);
    }
    if (r.observed || th.counter != nullptr)
        sys->probes().addSink(&digest);
    if (th.counter != nullptr)
        sys->probes().addSink(th.counter);
    const std::uint64_t t1 = prof::nowNs();
    const std::uint64_t c1 = cpuNs();
    {
        ScopedSpan s(th.spans, "run", th.id);
        std::optional<prof::ScopedTimer> scope;
        if (th.spans != nullptr)
            scope.emplace("bench.run");
        sys->run();
    }
    const std::uint64_t t2 = prof::nowNs();
    const std::uint64_t c2 = cpuNs();
    out.setupCpuS = static_cast<double>(c1 - c0) / 1e9;
    out.runS = static_cast<double>(t2 - t1) / 1e9;
    out.runCpuS = static_cast<double>(c2 - c1) / 1e9;

    ScopedSpan s(th.spans, "readout", th.id);
    const ProcId P = cfg.numProcessors;
    out.measured = sys->measuredCycles();
    out.retired = sys->retired();
    const CycleBreakdown bd = sys->aggregateBreakdown();
    Fnv fp;
    fp.add(out.measured);
    for (std::uint32_t t = 0; t < sys->numThreads(); ++t)
        fp.add(sys->processor(static_cast<ProcId>(t % P))
                   .retiredForApp(t));
    addBreakdown(fp, bd);
    CounterSet &ctr = sys->mem().counters();
    addCounters(fp, ctr);
    Counts &c = out.counts;
    for (ProcId p = 0; p < P; ++p) {
        fp.add(sys->processor(p).prefetchesDropped());
        c.squashed += sys->processor(p).squashedSlots();
    }
    out.fingerprint = fp.value();
    if (!sys->finished())
        out.failure = "application did not finish";
    else if (!relaxed)
        out.failure = slotCheck(bd, cfg.issueWidth, out.measured, P);
    if (r.observed || th.counter != nullptr) {
        out.digest = digest.digest();
        out.digestEvents = digest.events();
    }

    c.cycles = sys->now();
    c.ffCycles = sys->fastForwardedCycles();
    c.cohAccesses = ctr.get("l1d_hits") + ctr.get("l1d_misses") +
                    ctr.get("l1d_write_hits") +
                    ctr.get("l1d_write_misses");
    c.cohRetries = ctr.get("mshr_stalls") + ctr.get("wbuf_stalls");
    c.missLatSum = sys->mem().dmissLatency().sum();
    c.missLatCount = sys->mem().dmissLatency().count();
    const SyncManager &sync = sys->sync();
    c.syncContended = sync.contendedAcquires();
    c.syncAcquires = sync.contendedAcquires() + sync.uncontendedAcquires();
    c.syncBarriers = sync.barrierEpisodes();
    c.syncWait = bd.get(CycleClass::Sync);
    if (relaxed)
        c.quanta = sys->now() / kParQuantum;
    if (r.observed)
        finishObserved(*why, *sys->checker(), out);
    return out;
}

/**
 * Run @p r as a fresh process would: from an empty decoded-program
 * cache, with the previous run's freed heap handed back to the OS so
 * neither its decode nor its allocator state carries over (and the
 * process peak RSS is the largest single run's, not an artefact of
 * run order). A throw fails the run.
 */
RunResult
runOne(const RunSpec &r, std::uint64_t seed, const TraceHooks &th = {})
{
    clearReplayProgramCache();
    malloc_trim(0);
    try {
        return r.tier == Tier::Uni ? runUni(r, seed, th)
                                   : runMp(r, seed, th);
    } catch (const std::exception &e) {
        RunResult out;
        out.failure = std::string("threw: ") + e.what();
        return out;
    }
}

// ---- Correctness gate ----------------------------------------------

struct Pinned
{
    std::uint64_t fingerprint = 0;
    std::uint64_t digest = 0;
};

/** perfbench/reference_seed1.json: seed-1 fingerprints (and the
 *  observed runs' probe digests) pinned from the seed commit. */
std::map<std::string, Pinned>
readPinned(const std::string &path)
{
    const JsonValue doc = parseJsonFile(path);
    std::map<std::string, Pinned> out;
    for (const auto &[name, v] : doc.at("runs").object) {
        Pinned p;
        p.fingerprint = std::stoull(v.at("fingerprint").asString(),
                                    nullptr, 16);
        if (const JsonValue *d = v.find("digest"))
            p.digest = std::stoull(d->asString(), nullptr, 16);
        out[name] = p;
    }
    return out;
}

/**
 * A run fails when its fingerprint differs from the reference of its
 * config and seed: the pinned one for seed 1, and for every seed the
 * first repetition in this process. An observed run also fails on any
 * checker violation or ledger mismatch, on a probe digest other than
 * the pinned (or first) one, and on a fingerprint other than its
 * plain twin's (observers must be passive). A relaxed run fails only
 * when it throws or its application does not finish; its drift is
 * reported, never gated.
 */
class Gate
{
  public:
    Gate(std::uint64_t seed, std::map<std::string, Pinned> pinned)
        : seed_(seed), pinned_(std::move(pinned))
    {}

    /** @return the failure, or empty when @p res passes. */
    std::string
    check(const RunSpec &r, const RunResult &res)
    {
        if (!res.failure.empty())
            return res.failure;
        if (r.tier == Tier::Relaxed)
            return {};
        if (seed_ == 1) {
            auto it = pinned_.find(r.plain);
            if (it == pinned_.end())
                return "no pinned seed-1 reference for " + r.plain;
            if (it->second.fingerprint != res.fingerprint)
                return "fingerprint " + hex(res.fingerprint) +
                       " != pinned " + hex(it->second.fingerprint);
            if (r.observed) {
                auto d = pinned_.find(r.name);
                if (d == pinned_.end())
                    return "no pinned seed-1 digest for " + r.name;
                if (d->second.digest != res.digest)
                    return "probe digest " + hex(res.digest) +
                           " != pinned " + hex(d->second.digest);
            }
        }
        if (r.observed) {
            auto p = first_.find(r.plain);
            if (p == first_.end())
                return "no plain run of " + r.plain;
            if (p->second.fingerprint != res.fingerprint)
                return "observers not passive: fingerprint " +
                       hex(res.fingerprint) + " != plain " +
                       hex(p->second.fingerprint);
        }
        auto [it, fresh] = first_.try_emplace(
            r.name, Pinned{res.fingerprint, res.digest});
        if (!fresh && it->second.fingerprint != res.fingerprint)
            return "fingerprint " + hex(res.fingerprint) +
                   " != first repetition " +
                   hex(it->second.fingerprint);
        if (!fresh && r.observed && it->second.digest != res.digest)
            return "probe digest " + hex(res.digest) +
                   " != first repetition " + hex(it->second.digest);
        return {};
    }

  private:
    std::uint64_t seed_;
    std::map<std::string, Pinned> pinned_;
    std::map<std::string, Pinned> first_;
};

// ---- Host-speed calibration ----------------------------------------

/** CPU seconds of calibrate() that define one reference second's
 *  worth of host speed: about its median on the 4-vCPU Xeon host of
 *  README.md, so reference seconds read close to CPU seconds there. */
constexpr double kCalibrationRefS = 0.125;

volatile std::uint64_t calibrationSink;

/**
 * Process CPU seconds of one fixed piece of host work that runs no
 * simulator code: 300k updates and 300k lookups of a node-based hash
 * table whose heap walk misses L2, then 6M rounds of branchy integer
 * arithmetic. On a shared host the speed of a core swings by tens of
 * percent within seconds, with the neighbours' load on the clock and
 * the shared cache; this kernel's time swings with it, while a change
 * to the simulator leaves it alone.
 */
double
calibrate()
{
    // Start from the same trimmed heap whatever the last run left in
    // the free lists, as every run does (runOne).
    malloc_trim(0);
    const std::uint64_t c0 = cpuNs();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::uint64_t acc = 0;
    {
        std::unordered_map<std::uint64_t, std::uint64_t> m;
        for (std::uint64_t i = 0; i < 300000; ++i)
            m[next() % 1000003] += i;
        for (std::uint64_t i = 0; i < 300000; ++i)
            if (auto it = m.find(next() % 1000003); it != m.end())
                acc += it->second;
    }
    for (std::uint64_t i = 0; i < 6000000; ++i) {
        const std::uint64_t y = next();
        if (y & 1)
            acc += y * 0x9E3779B97F4A7C15ull;
        else
            acc ^= y >> 3;
    }
    calibrationSink = acc;
    return static_cast<double>(cpuNs() - c0) / 1e9;
}

// ---- Timed sweeps --------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    record(const RunSpec &r, const std::string &failure)
    {
        ++attempted;
        if (failure.empty())
            return;
        ++failed;
        std::cerr << "perfbench: FAILED " << r.name << ": " << failure
                  << '\n';
    }
};

/** Per-config samples over the closed-loop sweeps. */
struct Sweeps
{
    std::size_t count = 0;
    /** Process peak RSS after the first sweep: repeating the sweep
     *  only adds allocator fragmentation, and the repetition count
     *  depends on host speed. */
    std::uint64_t peakRssKb = 0;
    std::vector<std::vector<double>> runS;    ///< [config][sweep], wall
    std::vector<std::vector<double>> runCpuS; ///< process CPU time
    /** CPU time in reference seconds: scaled by kCalibrationRefS over
     *  the mean of the calibrations just before and after the run. */
    std::vector<std::vector<double>> runRefS;
    std::vector<std::vector<double>> setupRefS;
    std::vector<double> calibrationS; ///< every calibration, in order
    std::vector<std::vector<double>> retired;
    std::vector<std::vector<double>> measured;

    double
    sumOfMedians(const std::vector<std::vector<double>> &x) const
    {
        double s = 0.0;
        for (const auto &v : x)
            s += median(v);
        return s;
    }

    /** Σ median retired / Σ median run() reference seconds, as
     *  prof::Throughput (its seconds are reference seconds here). */
    prof::Throughput
    throughput() const
    {
        prof::Throughput t;
        t.wallSeconds = sumOfMedians(runRefS);
        t.instructions =
            static_cast<std::uint64_t>(sumOfMedians(retired));
        return t;
    }
};

/** Repeat the sweep in a closed loop while another sweep still fits
 *  in @p seconds (at least once), calibrating between runs. */
Sweeps
timedSweeps(const std::vector<RunSpec> &runs, std::uint64_t seed,
            double seconds, Gate &gate, Tally &tally)
{
    Sweeps s;
    s.runS.resize(runs.size());
    s.runCpuS.resize(runs.size());
    s.runRefS.resize(runs.size());
    s.setupRefS.resize(runs.size());
    s.retired.resize(runs.size());
    s.measured.resize(runs.size());
    const std::uint64_t start = prof::nowNs();
    s.calibrationS.push_back(calibrate());
    for (;;) {
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const RunResult res = runOne(runs[i], seed);
            tally.record(runs[i], gate.check(runs[i], res));
            s.calibrationS.push_back(calibrate());
            const double scale =
                2.0 * kCalibrationRefS /
                (s.calibrationS.end()[-2] + s.calibrationS.back());
            s.runS[i].push_back(res.runS);
            s.runCpuS[i].push_back(res.runCpuS);
            s.runRefS[i].push_back(res.runCpuS * scale);
            s.setupRefS[i].push_back(res.setupCpuS * scale);
            s.retired[i].push_back(static_cast<double>(res.retired));
            s.measured[i].push_back(static_cast<double>(res.measured));
        }
        if (++s.count == 1)
            s.peakRssKb = prof::peakRssKb();
        const double elapsed =
            static_cast<double>(prof::nowNs() - start) / 1e9;
        if (elapsed + elapsed / static_cast<double>(s.count) > seconds)
            break;
    }
    return s;
}

// ---- Traced pass: profiler cost tree -> layers ---------------------

enum Layer : std::size_t {
    LWorkload,
    LCore,
    LMem,
    LCoherence,
    LSync,
    LOs,
    LLoop,
    LFastForward,
    LProbe,
    LWhy,
    LCheck,
    kNumLayers
};

/** The layer a profiler scope belongs to. The memory-system scopes
 *  belong to `mem` on a workstation and to `coherence` on the MP. */
std::optional<Layer>
layerOf(const std::string &scope, bool mp)
{
    static const std::map<std::string, Layer> fixed{
        {"frontend.replay", LWorkload}, {"frontend.emit", LWorkload},
        {"pipeline", LCore},            {"directory", LCoherence},
        {"sync", LSync},                {"os", LOs},
        {"fastforward", LFastForward},  {"probe", LProbe},
        {"why", LWhy},                  {"checker", LCheck},
    };
    static const std::vector<std::string> memScopes{
        "mem.tick", "events", "mshr", "bus",
        "dcache",   "icache", "write_buffer"};
    if (auto it = fixed.find(scope); it != fixed.end())
        return it->second;
    if (std::find(memScopes.begin(), memScopes.end(), scope) !=
        memScopes.end())
        return mp ? LCoherence : LMem;
    return std::nullopt;
}

/** One run's host-time split, from the profiler's merged tree. */
struct Split
{
    std::array<std::uint64_t, kNumLayers> mainNs{};   ///< coordinator
    std::array<std::uint64_t, kNumLayers> workerNs{}; ///< shard workers
    std::uint64_t runNs = 0;          ///< profiler's bench.run
    std::uint64_t workerTotalNs = 0;  ///< worker trees, inclusive
    std::uint64_t tickCalls = 0;      ///< "pipeline" entries
    std::uint64_t ffCalls = 0;        ///< "fastforward" entries
    std::uint64_t decodeChunks = 0;   ///< "frontend.replay" entries
    std::vector<std::string> unmapped; ///< scopes of no layer (per run)

    std::uint64_t
    layerNs(Layer l) const
    {
        return mainNs[l] + workerNs[l];
    }

    Split &
    operator+=(const Split &o)
    {
        for (std::size_t l = 0; l < kNumLayers; ++l) {
            mainNs[l] += o.mainNs[l];
            workerNs[l] += o.workerNs[l];
        }
        runNs += o.runNs;
        workerTotalNs += o.workerTotalNs;
        tickCalls += o.tickCalls;
        ffCalls += o.ffCalls;
        decodeChunks += o.decodeChunks;
        return *this;
    }
};

void
addSubtree(const JsonValue &node, bool mp,
           std::array<std::uint64_t, kNumLayers> &ns, Split &out)
{
    const std::string &name = node.at("name").asString();
    const std::uint64_t calls = node.at("calls").asU64();
    if (name == "pipeline")
        out.tickCalls += calls;
    else if (name == "fastforward")
        out.ffCalls += calls;
    else if (name == "frontend.replay")
        out.decodeChunks += calls;
    if (const auto l = layerOf(name, mp))
        ns[*l] += node.at("self_ns").asU64();
    else
        out.unmapped.push_back(name);
    for (const JsonValue &c : node.at("children").array)
        addSubtree(c, mp, ns, out);
}

/** Read and clear the profiler: the split of the run just made. */
Split
takeSplit(bool mp)
{
    std::ostringstream os;
    JsonWriter w(os);
    prof::Profiler::instance().writeJson(w);
    prof::Profiler::instance().reset();
    const JsonValue doc = parseJson(os.str());
    Split s;
    for (const JsonValue &top : doc.at("tree").array) {
        if (top.at("name").asString() == "bench.run") {
            s.runNs += top.at("ns").asU64();
            s.mainNs[LLoop] += top.at("self_ns").asU64();
            for (const JsonValue &c : top.at("children").array)
                addSubtree(c, mp, s.mainNs, s);
        } else {
            // Shard worker trees (relaxed tier) sit beside the main
            // thread's tree; anything else there is unaccounted.
            s.workerTotalNs += top.at("ns").asU64();
            addSubtree(top, mp, s.workerNs, s);
        }
    }
    return s;
}

/**
 * Traced-run reconciliation: every profiler scope maps to a layer;
 * the main thread's layer self times plus the run-loop residual sum
 * to the profiler's run() time (exact up to its clamping of
 * negative self times), which agrees with the benchmark's own span
 * around run(); shard workers cannot be busier than threads x wall;
 * the counting sink saw exactly the digest's events.
 */
std::string
reconcile(const RunSpec &r, const Split &s, const RunResult &res,
          const CountingSink &counter)
{
    if (!s.unmapped.empty())
        return "profiler scope '" + s.unmapped.front() +
               "' maps to no layer";
    std::uint64_t sum = 0;
    for (std::uint64_t v : s.mainNs)
        sum += v;
    const double run = static_cast<double>(s.runNs);
    if (std::abs(static_cast<double>(sum) - run) > 1e-6 * run + 1e3)
        return "layer self times sum to " + std::to_string(sum) +
               " ns, profiler run() is " + std::to_string(s.runNs) +
               " ns";
    const double own = res.runS * 1e9;
    if (std::abs(own - run) > 0.01 * own + 1e5)
        return "profiler run() " + std::to_string(s.runNs) +
               " ns vs own span " + std::to_string(own) + " ns";
    if (r.tier == Tier::Relaxed &&
        static_cast<double>(s.workerTotalNs) > 1.01 * kParThreads * own)
        return "worker cost trees exceed threads x wall";
    if (r.tier != Tier::Relaxed && s.workerTotalNs != 0)
        return "scopes outside run() on a sequential tier";
    if (counter.total() != res.digestEvents)
        return "counting sink saw " + std::to_string(counter.total()) +
               " events, digest " + std::to_string(res.digestEvents);
    return {};
}

/** Accumulated traced-pass totals for one workload. */
struct Traced
{
    Split split;
    Counts counts;
    std::uint64_t issueEvents = 0;
    std::uint64_t dirMsgs = 0;
    std::uint64_t probeEvents = 0;
    std::uint64_t issueSlots = 0;   ///< Σ tick calls x procs x width
    std::uint64_t ticks = 0;
    double wallS = 0.0;             ///< Σ run() seconds, traced
    double decodeNs = 0.0;          ///< standalone decode drive
    std::uint64_t decodeOps = 0;
};

/**
 * Standalone decode drive: inside run() decode is lazy and
 * interleaved with simulation, so its per-op cost is measured here
 * by materializing each of the workload's kernels for a fixed op
 * count (or to its end, for finite MP threads).
 */
void
decodeDrive(const std::vector<RunSpec> &runs, std::uint64_t seed,
            SpanLog &spans, std::uint32_t id, Traced &t)
{
    std::vector<std::pair<std::string, KernelFn>> kernels;
    std::set<std::string> seen;
    for (const RunSpec &r : runs) {
        const bool uni = r.tier == Tier::Uni;
        if (!seen.insert((uni ? "uni/" : "mp/") + r.workload).second)
            continue;
        if (uni) {
            if (r.workload == "SP") {
                for (const auto &app : spWorkload())
                    kernels.emplace_back(app, splashUniKernel(app));
            } else {
                for (const auto &app : uniWorkload(r.workload))
                    kernels.emplace_back(app, specKernel(app));
            }
        } else {
            AddressSpace shared(kSharedBase);
            std::vector<KernelFn> ks = splashApp(r.workload)(
                kDecodeMpThreads, shared, seed);
            for (std::uint32_t i = 0; i < kDecodeMpThreads; ++i)
                kernels.emplace_back(r.workload, std::move(ks[i]));
        }
    }
    ScopedSpan all(&spans, "decode_drive", id);
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const Addr code = (static_cast<Addr>(i) + 1) << 32;
        ReplayProgram prog(code, code + 0x10000000ull,
                           seed + 101 * (i + 1), kernels[i].second);
        ScopedSpan s(&spans, "materialize:" + kernels[i].first, id);
        const std::uint64_t t0 = prof::nowNs();
        prog.materialize(kDecodeOps - 1);
        t.decodeNs += static_cast<double>(prof::nowNs() - t0);
        t.decodeOps += prog.decodedOps();
    }
}

/** One traced pass over @p runs: spans, profiler, counting sink.
 *  Span ids start at @p firstId, one per config. */
Traced
tracedPass(const std::vector<RunSpec> &runs, std::uint64_t seed,
           Gate &gate, Tally &tally, SpanLog &spans,
           std::uint32_t firstId)
{
    Traced t;
    prof::Profiler &profiler = prof::Profiler::instance();
    profiler.reset();
    profiler.enable(true);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunSpec &r = runs[i];
        const auto id = firstId + static_cast<std::uint32_t>(i);
        CountingSink counter;
        const std::size_t span = spans.open("config:" + r.name, id);
        const RunResult res = runOne(r, seed, {&spans, id, &counter});
        const Split s = takeSplit(r.tier != Tier::Uni);
        spans.close(span);

        std::string failure = gate.check(r, res);
        if (failure.empty())
            failure = reconcile(r, s, res, counter);
        tally.record(r, failure);

        const std::uint64_t ticks =
            s.tickCalls * res.procsPerTickCall;
        auto &args = spans.at(span).args;
        args.emplace_back("run_s", res.runS);
        args.emplace_back("ticks", static_cast<double>(ticks));
        static const char *const kNames[kNumLayers] = {
            "workload_s", "core_s",  "mem_s",    "coherence_s",
            "sync_s",     "os_s",    "loop_s",   "ff_s",
            "probe_s",    "why_s",   "check_s"};
        for (std::size_t l = 0; l < kNumLayers; ++l)
            args.emplace_back(
                kNames[l],
                static_cast<double>(s.layerNs(static_cast<Layer>(l))) /
                    1e9);

        t.split += s;
        t.counts += res.counts;
        t.ticks += ticks;
        t.issueSlots += ticks * res.issueWidth;
        t.issueEvents += counter.count(ProbeKind::ContextIssue);
        t.dirMsgs += counter.count(ProbeKind::DirectoryMsg);
        t.probeEvents += counter.total();
        t.wallS += res.runS;
    }
    profiler.enable(false);
    profiler.reset();
    return t;
}

// ---- Output --------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::vector<Metric>
layerMetrics(const Traced &t, double untracedWallS)
{
    const Split &s = t.split;
    const Counts &c = t.counts;
    auto sec = [&](Layer l) {
        return static_cast<double>(s.layerNs(l)) / 1e9;
    };
    auto ns = [&](Layer l) { return static_cast<double>(s.layerNs(l)); };
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"workload.decode_s", sec(LWorkload), "s"},
        {"workload.decode_chunks", d(s.decodeChunks), "count"},
        {"workload.decode_ns_per_op", ratio(t.decodeNs, d(t.decodeOps)),
         "ns/op"},
        {"core.ticks", d(t.ticks), "count"},
        {"core.self_s", sec(LCore), "s"},
        {"core.ns_per_tick", ratio(ns(LCore), d(t.ticks)), "ns/tick"},
        {"core.busy_tick_frac", ratio(d(t.issueEvents), d(t.issueSlots)),
         "frac"},
        {"core.squashed_slots", d(c.squashed), "count"},
        {"mem.accesses", d(c.memAccesses), "count"},
        {"mem.self_s", sec(LMem), "s"},
        {"mem.ns_per_access", ratio(ns(LMem), d(c.memAccesses)),
         "ns/access"},
        {"mem.retries", d(c.memRetries), "count"},
        {"mem.bus_wait_cycles", d(c.busWait), "cycles"},
        {"coherence.accesses", d(c.cohAccesses), "count"},
        {"coherence.dir_msgs", d(t.dirMsgs), "count"},
        {"coherence.self_s", sec(LCoherence), "s"},
        {"coherence.ns_per_access",
         ratio(ns(LCoherence), d(c.cohAccesses)), "ns/access"},
        {"coherence.retries", d(c.cohRetries), "count"},
        {"coherence.miss_latency", ratio(d(c.missLatSum),
                                         d(c.missLatCount)),
         "cycles"},
        {"sync.acquires", d(c.syncAcquires), "count"},
        {"sync.contended_frac", ratio(d(c.syncContended),
                                      d(c.syncAcquires)),
         "frac"},
        {"sync.barriers", d(c.syncBarriers), "count"},
        {"sync.self_s", sec(LSync), "s"},
        {"sync.wait_cycles", d(c.syncWait), "cycles"},
        {"os.swaps", d(c.osSwaps), "count"},
        {"os.self_s", sec(LOs), "s"},
        {"system.cycles", d(c.cycles), "cycles"},
        {"system.loop_self_s", sec(LLoop), "s"},
        {"system.ff_frac", ratio(d(c.ffCycles), d(c.cycles)), "frac"},
        {"system.batched_frac", ratio(d(c.batchedCycles), d(c.cycles)),
         "frac"},
        {"system.ff_attempts", d(s.ffCalls), "count"},
        {"system.ff_s", sec(LFastForward), "s"},
        {"system.ff_cycles_per_attempt", ratio(d(c.ffCycles),
                                               d(s.ffCalls)),
         "cycles"},
        {"obs.probe_events", d(t.probeEvents), "count"},
        {"obs.probe_s", sec(LProbe), "s"},
        {"obs.ns_per_event", ratio(ns(LProbe), d(t.probeEvents)),
         "ns/event"},
        {"trace.overhead_ratio", ratio(t.wallS, untracedWallS), "x"},
    };
}

/** The workload's observed runs against its plain ones. */
struct ObsReport
{
    double overheadRatio = 0.0;
    double whyS = 0.0;
    double checkS = 0.0;
    double violations = 0.0;
};

std::vector<Metric>
obsMetrics(const ObsReport &o)
{
    return {
        {"obs.why_s", o.whyS, "s"},
        {"check.self_s", o.checkS, "s"},
        {"check.violations", o.violations, "count"},
        {"check.overhead_ratio", o.overheadRatio, "x"},
    };
}

/** The relaxed tier against the sequential loop (mp only). */
struct ParReport
{
    double speedup = 0.0;
    double workerBusyFrac = 0.0;
    double quanta = 0.0;
    double simErrPct = 0.0;
    std::vector<double> cycleErrPct; ///< per run, signed
};

std::vector<Metric>
parMetrics(const ParReport &p)
{
    std::vector<Metric> m{
        {"par.speedup", p.speedup, "x"},
        {"par.worker_busy_frac", p.workerBusyFrac, "frac"},
        {"par.quanta", p.quanta, "count"},
        {"sim_err_pct", p.simErrPct, "%"},
    };
    // One error per run of the MP sweep, named after the run; 0 on
    // the other workloads.
    const std::vector<RunSpec> mp = workloadRuns("mp");
    for (std::size_t i = 0; i < mp.size(); ++i) {
        m.push_back({"par.cycle_err_pct." + mp[i].workload + "." +
                         std::to_string(mp[i].contexts) + "ctx",
                     i < p.cycleErrPct.size() ? p.cycleErrPct[i] : 0.0,
                     "%"});
    }
    return m;
}

void
printResult(bool correct, const Tally &tally,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("correct", correct);
    w.kv("attempted", tally.attempted);
    w.kv("failed", tally.failed);
    w.key("metrics");
    w.beginObject();
    for (const Metric &m : metrics) {
        w.key(m.name);
        w.beginObject();
        w.kv("value", m.value);
        w.kv("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::cout << os.str() << std::endl;
}

void
printInfo(const std::string &workload, std::uint64_t seed, int trace,
          const Sweeps &s)
{
    const prof::BuildInfo &b = prof::buildInfo();
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("workload", workload);
    w.kv("seed", seed);
    w.kv("trace", static_cast<std::uint64_t>(trace));
    w.kv("sweeps", static_cast<std::uint64_t>(s.count));
    w.kv("git_sha", b.gitSha);
    w.kv("build_type", b.buildType);
    w.kv("compiler", b.compiler);
    w.kv("sanitizers", b.sanitizers);
    w.kv("nproc",
         static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    w.endObject();
    std::cout << "perfbench: " << os.str() << '\n';
}

/** Per-sweep totals and per-config medians on stderr, for a reader
 *  of a single run. */
void
printRows(const std::vector<RunSpec> &runs, const Sweeps &s)
{
    for (const auto *x : {&s.runS, &s.runCpuS}) {
        std::cerr << (x == &s.runS ? "  sweep run() wall s:"
                                   : "  sweep run() CPU s: ");
        for (std::size_t k = 0; k < s.count; ++k) {
            double sum = 0.0;
            for (const auto &v : *x)
                sum += v[k];
            std::cerr << ' ' << sum;
        }
        std::cerr << '\n';
    }
    const double kinstr = s.sumOfMedians(s.retired) / 1e3;
    std::cerr << "  kinstr/s by wall clock "
              << kinstr / s.sumOfMedians(s.runS) << ", by CPU time "
              << kinstr / s.sumOfMedians(s.runCpuS)
              << "; median calibration " << median(s.calibrationS)
              << " s (reference " << kCalibrationRefS << " s)\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "  %-32s run %8.4f ref-s  setup %8.5f ref-s  "
                      "%10.0f instr  %9.0f cycles\n",
                      runs[i].name.c_str(), median(s.runRefS[i]),
                      median(s.setupRefS[i]), median(s.retired[i]),
                      median(s.measured[i]));
        std::cerr << buf;
    }
}

// ---- Modes ---------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string reference;
    std::string spansOut;
    std::string writeReference;
    bool selfTest = false;
};

std::uint64_t
parseU64(const std::string &flag, const std::string &v)
{
    std::size_t used = 0;
    const unsigned long long x = std::stoull(v, &used);
    if (used != v.size())
        throw std::invalid_argument(flag + ": bad number " + v);
    return x;
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
        if (a == "--workload")
            o.workload = next();
        else if (a == "--seed")
            o.seed = parseU64(a, next());
        else if (a == "--seconds")
            o.seconds = static_cast<double>(parseU64(a, next()));
        else if (a == "--trace")
            o.trace = static_cast<int>(parseU64(a, next()));
        else if (a == "--reference")
            o.reference = next();
        else if (a == "--spans-out")
            o.spansOut = next();
        else if (a == "--write-reference")
            o.writeReference = next();
        else if (a == "--self-test")
            o.selfTest = true;
        else
            throw std::invalid_argument("unknown flag " + a);
    }
    if (o.trace != 0 && o.trace != 1)
        throw std::invalid_argument("--trace must be 0 or 1");
    return o;
}

/**
 * The par layer, in mp's traced run: one untraced relaxed sweep
 * against the timed sequential runs of the same configs and seed
 * (speed and cycle error), then one traced relaxed sweep (worker
 * busy time, quanta). Drift is reported, never gated.
 */
ParReport
relaxedPass(const Sweeps &seq, std::uint64_t seed, Gate &gate,
            Tally &tally, SpanLog &spans, std::uint32_t firstId)
{
    const std::vector<RunSpec> runs = relaxedRuns();
    ParReport par;
    double wall = 0.0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunResult res = runOne(runs[i], seed);
        tally.record(runs[i], gate.check(runs[i], res));
        wall += res.runS;
        const double ref = seq.measured[i].front();
        const double err =
            100.0 * (static_cast<double>(res.measured) - ref) / ref;
        par.cycleErrPct.push_back(err);
        par.simErrPct = std::max(par.simErrPct, std::abs(err));
    }
    par.speedup = ratio(seq.sumOfMedians(seq.runS), wall);
    const Traced t = tracedPass(runs, seed, gate, tally, spans, firstId);
    par.workerBusyFrac =
        ratio(static_cast<double>(t.split.workerTotalNs) / 1e9,
              kParThreads * t.wallS);
    par.quanta = static_cast<double>(t.counts.quanta);
    return par;
}

/**
 * The obs and check layers, in every traced run: one untraced sweep of
 * the workload's observed runs against the timed plain runs of the
 * same configs (what the observers cost), then one traced sweep (where
 * that cost goes). The gate holds each observed run to its plain
 * twin's fingerprint.
 */
ObsReport
observedPass(const std::string &w, const std::vector<RunSpec> &plain,
             const Sweeps &sw, std::uint64_t seed, Gate &gate,
             Tally &tally, SpanLog &spans, std::uint32_t firstId)
{
    const std::vector<RunSpec> runs = observedRuns(w);
    double wall = 0.0;
    double plainWall = 0.0;
    for (const RunSpec &r : runs) {
        const RunResult res = runOne(r, seed);
        tally.record(r, gate.check(r, res));
        wall += res.runS;
        const auto twin = std::find_if(
            plain.begin(), plain.end(),
            [&](const RunSpec &p) { return p.name == r.plain; });
        plainWall += median(sw.runS[twin - plain.begin()]);
    }
    const Traced t = tracedPass(runs, seed, gate, tally, spans, firstId);
    ObsReport o;
    o.overheadRatio = ratio(wall, plainWall);
    o.whyS = static_cast<double>(t.split.layerNs(LWhy)) / 1e9;
    o.checkS = static_cast<double>(t.split.layerNs(LCheck)) / 1e9;
    o.violations = static_cast<double>(t.counts.violations);
    return o;
}

int
runWorkload(const Options &o)
{
    const std::vector<RunSpec> runs = workloadRuns(o.workload);
    Gate gate(o.seed, o.seed == 1 ? readPinned(o.reference)
                                  : std::map<std::string, Pinned>{});
    Tally tally;

    const Sweeps sw = timedSweeps(runs, o.seed, o.seconds, gate, tally);
    const prof::Throughput tp = sw.throughput();
    printInfo(o.workload, o.seed, o.trace, sw);
    printRows(runs, sw);

    if (o.trace == 0) {
        printResult(tally.failed == 0, tally,
                    {{"sim_kips", tp.kips(), "kinstr/s"},
                     {"setup_s", sw.sumOfMedians(sw.setupRefS), "s"},
                     {"peak_rss_mb",
                      static_cast<double>(sw.peakRssKb) / 1024.0, "MB"}});
        return 0;
    }

    // Span ids: one per config of each pass, then the decode drive.
    SpanLog spans;
    auto id = static_cast<std::uint32_t>(runs.size());
    Traced t = tracedPass(runs, o.seed, gate, tally, spans, 0);
    decodeDrive(runs, o.seed, spans, id++, t);
    const ObsReport obs = observedPass(o.workload, runs, sw, o.seed, gate,
                                       tally, spans, id);
    id += static_cast<std::uint32_t>(observedRuns(o.workload).size());
    const ParReport par =
        o.workload == "mp"
            ? relaxedPass(sw, o.seed, gate, tally, spans, id)
            : ParReport{};
    if (!o.spansOut.empty()) {
        std::ofstream f(o.spansOut);
        spans.write(f);
        if (!f)
            throw std::runtime_error("cannot write " + o.spansOut);
    }
    std::vector<Metric> m = layerMetrics(t, sw.sumOfMedians(sw.runS));
    for (auto &set : {obsMetrics(obs), parMetrics(par)})
        m.insert(m.end(), set.begin(), set.end());
    printResult(tally.failed == 0, tally, m);
    return 0;
}

/** Pin every exact run's seed-1 fingerprint (and observed digests). */
int
writeReference(const Options &o)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("seed", std::uint64_t{1});
    w.key("runs");
    w.beginObject();
    std::vector<RunSpec> runs = workloadRuns("uni");
    for (const auto &set :
         {workloadRuns("mp"), observedRuns("uni"), observedRuns("mp")})
        runs.insert(runs.end(), set.begin(), set.end());
    for (const RunSpec &r : runs) {
        const RunResult res = runOne(r, 1);
        if (!res.failure.empty())
            throw std::runtime_error(r.name + ": " + res.failure);
        w.key(r.name);
        w.beginObject();
        w.kv("measured_cycles", static_cast<std::uint64_t>(res.measured));
        w.kv("retired", res.retired);
        w.kv("fingerprint", hex(res.fingerprint));
        if (r.observed)
            w.kv("digest", hex(res.digest));
        w.endObject();
        std::cerr << "pinned " << r.name << '\n';
    }
    w.endObject();
    w.endObject();
    std::ofstream f(o.writeReference);
    f << os.str() << '\n';
    return f ? 0 : 1;
}

/** A wrong reference must count as a failed run. */
int
selfTest(const Options &o)
{
    const RunSpec r = makeSpec(Tier::Uni, "DC", Scheme::Single, 1);
    std::map<std::string, Pinned> pinned = readPinned(o.reference);
    Gate good(1, pinned);
    const RunResult res = runOne(r, 1);
    const std::string ok = good.check(r, res);
    pinned[r.plain].fingerprint ^= 1;
    Gate bad(1, pinned);
    Tally tally;
    tally.record(r, bad.check(r, res));
    if (!ok.empty() || tally.failed != 1) {
        std::cerr << "self-test: FAILED (true reference: '" << ok
                  << "', wrong reference failed " << tally.failed
                  << " of 1)\n";
        return 1;
    }
    std::cerr << "self-test: ok (true reference passes, wrong "
                 "reference counted as 1 failed run)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options o = parse(argc, argv);
        if (!o.writeReference.empty())
            return writeReference(o);
        if (o.selfTest)
            return selfTest(o);
        return runWorkload(o);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: error: " << e.what() << '\n';
        return 2;
    }
}
