/**
 * @file
 * Latency-tolerance ledger tests (docs/OBSERVABILITY.md, "The
 * latency-tolerance ledger"). Three properties carry the subsystem:
 *
 *  1. Reconciliation: for every processor and cycle class,
 *     under + clear == CycleBreakdown, and the ledger explains every
 *     slot from the probe stream alone (unexplained() == 0) - on the
 *     full uni/MP scheme matrix with fast-forward on and off, and
 *     with the checker forcing per-cycle replay.
 *  2. Passivity: a ledger-attached run is digest-pinned
 *     bit-identical to a plain run.
 *  3. The fast-forward-aware IntervalSampler (observeWindow) keeps
 *     bulk attribution engaged while producing exactly the lockstep
 *     sample series.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/differential.hh"
#include "check/digest.hh"
#include "check/why_reconcile.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "obs/why_ledger.hh"
#include "splash/splash_suite.hh"
#include "system/mp_system.hh"
#include "system/uni_system.hh"

namespace mtsim {
namespace {

constexpr Cycle kWarm = 10000;
constexpr Cycle kMeasure = 30000;
constexpr Cycle kMpCap = 2000000;

std::string
reconcileReport(const WhyLedger &l)
{
    std::string s;
    for (const Violation &v : auditWhyReconciliation(l))
        s += v.str() + "\n";
    return s;
}

/** Run one workstation config with the ledger attached and return
 *  the audit report (empty = reconciled). */
void
expectUniReconciles(Scheme scheme, std::uint8_t contexts,
                    const std::string &mix, bool ff, bool check)
{
    const Config cfg = Config::make(scheme, contexts);
    UniSystem sys(cfg);
    WhyLedger ledger(cfg, {&sys.processor()});
    sys.attachWhyLedger(&ledger);
    if (check)
        sys.enableChecking();
    sys.setFastForward(ff);
    for (const auto &[name, kernel] : mixApps(mix))
        sys.addApp(name, kernel);
    sys.run(kWarm, kMeasure);
    EXPECT_EQ(reconcileReport(ledger), "")
        << "scheme " << static_cast<int>(scheme) << " contexts "
        << static_cast<int>(contexts) << " mix " << mix << " ff "
        << ff << " check " << check;
    EXPECT_EQ(ledger.unexplained(), 0u);
}

TEST(WhyLedger, UniMatrixReconciles)
{
    for (const Scheme scheme :
         {Scheme::Single, Scheme::Blocked, Scheme::Interleaved,
          Scheme::FineGrained}) {
        for (const std::uint8_t contexts : {1, 4}) {
            for (const char *mix : {"R0", "DC"}) {
                for (const bool ff : {true, false})
                    expectUniReconciles(scheme, contexts, mix, ff,
                                        false);
            }
        }
    }
}

TEST(WhyLedger, UniReconcilesUnderCheckerReplay)
{
    // With the checker attached the run loop replays bulk windows
    // per cycle and the ledger runs through onCycleEnd instead of
    // onBulkWindow; totals must be identical either way.
    expectUniReconciles(Scheme::Interleaved, 4, "DC", true, true);
    expectUniReconciles(Scheme::Blocked, 4, "R0", true, true);
}

void
expectMpReconciles(Scheme scheme, const char *app, bool ff)
{
    const Config cfg = Config::makeMp(scheme, 2, 4);
    MpSystem sys(cfg);
    std::vector<Processor *> procs;
    for (ProcId p = 0; p < cfg.numProcessors; ++p)
        procs.push_back(&sys.processor(p));
    WhyLedger ledger(cfg, procs);
    sys.attachWhyLedger(&ledger);
    sys.setFastForward(ff);
    sys.setStatsBarrier(kStatsBarrier);
    sys.loadApp(splashApp(app));
    sys.run(kMpCap);
    ASSERT_TRUE(sys.finished());
    EXPECT_EQ(reconcileReport(ledger), "")
        << "scheme " << static_cast<int>(scheme) << " app " << app
        << " ff " << ff;
    EXPECT_EQ(ledger.unexplained(), 0u);
}

TEST(WhyLedger, MpMatrixReconciles)
{
    for (const Scheme scheme :
         {Scheme::Single, Scheme::Blocked, Scheme::Interleaved}) {
        for (const bool ff : {true, false})
            expectMpReconciles(scheme, "ocean", ff);
    }
    expectMpReconciles(Scheme::Interleaved, "mp3d", true);
}

TEST(WhyLedger, MeasuresTolerance)
{
    // Non-vacuity: a memory-bound multi-context interleaved run must
    // actually close misses, cover cycles and hide some of them
    // behind other-context issues - the paper's headline mechanism.
    const Config cfg = Config::make(Scheme::Interleaved, 4);
    UniSystem sys(cfg);
    WhyLedger ledger(cfg, {&sys.processor()});
    sys.attachWhyLedger(&ledger);
    for (const auto &[name, kernel] : mixApps("DC"))
        sys.addApp(name, kernel);
    sys.run(kWarm, kMeasure);
    EXPECT_GT(ledger.missesClosed(), 0u);
    EXPECT_GT(ledger.coveredCycles(), 0u);
    EXPECT_GT(ledger.aggHiddenOther(), 0);
    EXPECT_GE(ledger.toleranceRatio(), 0.0);
    EXPECT_LE(ledger.toleranceRatio(), 1.0);
    EXPECT_FALSE(ledger.topExposed(5).empty());
    EXPECT_EQ(ledger.latencyHist().count(), ledger.missesClosed());
    // Per-miss coverage never exceeds the miss's own latency.
    EXPECT_LE(ledger.hiddenHist().maxValue() +
                  ledger.exposedHist().minValue(),
              ledger.latencyHist().maxValue());
}

struct PinnedRun
{
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    Cycle measured = 0;
    std::uint64_t retired = 0;
    Cycle ffCycles = 0;
};

PinnedRun
uniPinned(const Config &cfg, const std::string &mix, bool why,
          bool ff)
{
    UniSystem sys(cfg);
    ProbeDigest digest;
    sys.probes().addSink(&digest);
    WhyLedger ledger(cfg, {&sys.processor()});
    if (why)
        sys.attachWhyLedger(&ledger);
    sys.setFastForward(ff);
    for (const auto &[name, kernel] : mixApps(mix))
        sys.addApp(name, kernel);
    sys.run(kWarm, kMeasure);
    return {digest.digest(), digest.events(), sys.measuredCycles(),
            sys.retired(), sys.fastForwardedCycles()};
}

PinnedRun
mpPinned(const Config &cfg, bool why, bool ff)
{
    MpSystem sys(cfg);
    ProbeDigest digest;
    sys.probes().addSink(&digest);
    std::vector<Processor *> procs;
    for (ProcId p = 0; p < cfg.numProcessors; ++p)
        procs.push_back(&sys.processor(p));
    WhyLedger ledger(cfg, procs);
    if (why)
        sys.attachWhyLedger(&ledger);
    sys.setFastForward(ff);
    sys.setStatsBarrier(kStatsBarrier);
    sys.loadApp(splashApp("ocean"));
    sys.run(kMpCap);
    return {digest.digest(), digest.events(), sys.measuredCycles(),
            sys.retired(), sys.fastForwardedCycles()};
}

TEST(WhyLedger, DigestPinnedBitIdentical)
{
    // Passivity contract: attaching the ledger must not perturb the
    // probe stream or any aggregate, on the full canonical scheme x
    // contexts x mix matrix, and with fast-forward off as well.
    for (const Scheme scheme :
         {Scheme::Single, Scheme::Blocked, Scheme::Interleaved,
          Scheme::FineGrained}) {
        for (const std::uint8_t contexts : {1, 4}) {
            const Config cfg = Config::make(scheme, contexts);
            for (const char *mix : {"R0", "DC"}) {
                const PinnedRun plain =
                    uniPinned(cfg, mix, false, true);
                const PinnedRun why =
                    uniPinned(cfg, mix, true, true);
                EXPECT_EQ(plain.digest, why.digest)
                    << "scheme " << static_cast<int>(scheme)
                    << " contexts " << static_cast<int>(contexts)
                    << " mix " << mix;
                EXPECT_EQ(plain.events, why.events);
                EXPECT_EQ(plain.measured, why.measured);
                EXPECT_EQ(plain.retired, why.retired);
                EXPECT_EQ(plain.ffCycles, why.ffCycles);
            }
        }
    }
    for (const std::uint8_t contexts : {1, 4}) {
        const Config cfg =
            Config::make(Scheme::Interleaved, contexts);
        const PinnedRun plain = uniPinned(cfg, "DC", false, false);
        const PinnedRun why = uniPinned(cfg, "DC", true, false);
        EXPECT_EQ(plain.digest, why.digest);
        EXPECT_EQ(plain.events, why.events);
        EXPECT_EQ(plain.measured, why.measured);
        EXPECT_EQ(plain.retired, why.retired);
        EXPECT_EQ(plain.ffCycles, why.ffCycles);
    }
    const Config mp = Config::makeMp(Scheme::Interleaved, 2, 4);
    for (const bool ff : {true, false}) {
        const PinnedRun plain = mpPinned(mp, false, ff);
        const PinnedRun why = mpPinned(mp, true, ff);
        EXPECT_EQ(plain.digest, why.digest);
        EXPECT_EQ(plain.events, why.events);
        EXPECT_EQ(plain.measured, why.measured);
        EXPECT_EQ(plain.retired, why.retired);
        EXPECT_EQ(plain.ffCycles, why.ffCycles);
    }
}

TEST(IntervalSamplerWindow, MatchesPerCycleObserve)
{
    // observeWindow(from, until, v) must equal observe(c, v) for
    // every c in [from, until) with a constant cumulative value,
    // including priming, rebasing and multi-boundary windows.
    IntervalSampler a(100);
    IntervalSampler b(100);
    const struct { Cycle from, until; double v; } segs[] = {
        {7, 13, 3.0},     // primes mid-interval
        {13, 250, 3.0},   // crosses two boundaries
        {250, 260, 1.0},  // rebase (stats reset)
        {260, 801, 9.0},  // long window
    };
    for (const auto &s : segs) {
        for (Cycle c = s.from; c < s.until; ++c)
            a.observe(c, s.v);
        b.observeWindow(s.from, s.until, s.v);
    }
    ASSERT_EQ(a.samples().size(), b.samples().size());
    for (std::size_t i = 0; i < a.samples().size(); ++i) {
        EXPECT_EQ(a.samples()[i].start, b.samples()[i].start);
        EXPECT_EQ(a.samples()[i].delta, b.samples()[i].delta);
    }
}

/** What one sampled run leaves behind. */
struct SampledRun
{
    std::uint64_t digest = 0;
    Cycle ffCycles = 0;
    Cycle batchedCycles = 0;
    std::vector<IntervalSampler::Sample> samples;
};

SampledRun
sampledUni(const Config &cfg, bool ff, bool sample)
{
    UniSystem sys(cfg);
    ProbeDigest digest;
    sys.probes().addSink(&digest);
    IntervalSampler sampler(1000);
    if (sample)
        sys.setSampler(&sampler);
    sys.setFastForward(ff);
    for (const auto &[name, kernel] : mixApps("R0"))
        sys.addApp(name, kernel);
    sys.run(kWarm, kMeasure);
    return {digest.digest(), sys.fastForwardedCycles(),
            sys.stallBatchedCycles(), sampler.samples()};
}

SampledRun
sampledMp(const Config &cfg, bool ff, bool sample)
{
    MpSystem sys(cfg);
    ProbeDigest digest;
    sys.probes().addSink(&digest);
    IntervalSampler sampler(1000);
    if (sample)
        sys.setSampler(&sampler);
    sys.setFastForward(ff);
    sys.setStatsBarrier(kStatsBarrier);
    sys.loadApp(splashApp("water"));
    sys.run(kMpCap);
    EXPECT_TRUE(sys.finished());
    return {digest.digest(), sys.fastForwardedCycles(), 0,
            sampler.samples()};
}

/**
 * Sampler contract: attaching a sampler does not force lockstep
 * replay - fast-forward (and, on the workstation, RAW-stall
 * batching) stays engaged, the digest is pinned to the unsampled
 * run's, and the sample series equals the pure-lockstep one.
 */
void
expectSamplerKeepsFastForward(const Config &cfg,
                              SampledRun (*run)(const Config &, bool,
                                                bool),
                              bool expect_batched)
{
    const SampledRun plain = run(cfg, true, false);
    const SampledRun sampled = run(cfg, true, true);
    const SampledRun lockstep = run(cfg, false, true);
    EXPECT_EQ(sampled.digest, plain.digest);
    EXPECT_EQ(lockstep.digest, plain.digest);
    EXPECT_GT(sampled.ffCycles, 0u);
    EXPECT_EQ(sampled.ffCycles, plain.ffCycles);
    if (expect_batched) {
        EXPECT_GT(sampled.batchedCycles, 0u);
    }
    ASSERT_FALSE(sampled.samples.empty());
    ASSERT_EQ(sampled.samples.size(), lockstep.samples.size());
    for (std::size_t i = 0; i < sampled.samples.size(); ++i) {
        EXPECT_EQ(sampled.samples[i].start, lockstep.samples[i].start);
        EXPECT_EQ(sampled.samples[i].delta, lockstep.samples[i].delta);
    }
}

TEST(IntervalSamplerWindow, SampledRunKeepsFastForwardEngaged)
{
    expectSamplerKeepsFastForward(Config::make(Scheme::Interleaved, 1),
                                  sampledUni, true);
    for (const std::uint8_t contexts : {1, 4}) {
        SCOPED_TRACE("mp water/4p contexts " +
                     std::to_string(contexts));
        expectSamplerKeepsFastForward(
            Config::makeMp(Scheme::Interleaved, contexts, 4),
            sampledMp, false);
    }
}

} // namespace
} // namespace mtsim
