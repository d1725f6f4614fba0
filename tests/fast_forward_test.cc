/**
 * @file
 * Fast-forward equivalence tests. Node sleep and the clock jump
 * (UniSystem/MpSystem::setFastForward; the workstation is the
 * one-node case) must be invisible: every configuration's
 * RunSignature - probe digest, event count, cycles, retired
 * instructions, full cycle breakdown - is bit-identical with
 * fast-forward on and off, including with the invariant checker
 * observing every slept cycle. More tests pin the exact number of
 * cycles each system skips, so the equivalence is not vacuous and a
 * skip-path regression fails without any timing involved.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "check/differential.hh"
#include "common/config.hh"
#include "prof/profiler.hh"
#include "spec/spec_suite.hh"
#include "splash/splash_suite.hh"
#include "system/mp_system.hh"
#include "system/uni_system.hh"
#include "workload/emitter.hh"
#include "workload/program.hh"

namespace mtsim {
namespace {

constexpr Cycle kWarm = 10000;
constexpr Cycle kMeasure = 30000;

void
expectUniEquivalent(Scheme scheme, std::uint8_t contexts,
                    const std::string &mix, bool check)
{
    const UniApps apps = mixApps(mix);
    const Config cfg = Config::make(scheme, contexts);
    const RunSignature off = uniSignature(cfg, apps, kWarm, kMeasure,
                                          check, false);
    const RunSignature on = uniSignature(cfg, apps, kWarm, kMeasure,
                                         check, true);
    EXPECT_EQ(off, on)
        << "scheme " << static_cast<int>(scheme) << " contexts "
        << static_cast<int>(contexts) << " mix " << mix
        << "\n  ff off: " << describe(off)
        << "\n  ff on:  " << describe(on);
}

TEST(FastForward, UniMatrixBitIdentical)
{
    for (const Scheme scheme :
         {Scheme::Single, Scheme::Blocked, Scheme::Interleaved,
          Scheme::FineGrained}) {
        for (const std::uint8_t contexts : {1, 4}) {
            for (const char *mix : {"R0", "DC"})
                expectUniEquivalent(scheme, contexts, mix, false);
        }
    }
}

TEST(FastForward, UniCheckerObservesSkippedCyclesIdentically)
{
    // With checking enabled the clock does not jump: the sleeping
    // processor takes its turns cycle by cycle, and slot conservation
    // and the shadow state audits must hold on every one of them,
    // with the signature still matching the lockstep run.
    expectUniEquivalent(Scheme::Interleaved, 1, "R0", true);
    expectUniEquivalent(Scheme::Interleaved, 4, "DC", true);
    expectUniEquivalent(Scheme::Blocked, 4, "R0", true);
}

// Exact skip counts. A node ticks on every cycle it does not sleep,
// so these pins also fix the tick count of each run. A planner that
// declines a window it used to take moves them on any host.
// Regenerate only when a change means to move skip decisions, and say
// why.

TEST(FastForward, UniWindowsActuallyFire)
{
    // R0 at 100k + 300k cycles: the cycles the clock jumped, those
    // slept through RAW-stall batches (jumped too), and every cycle
    // the processor slept, the first cycle of each planned sleep
    // included.
    struct Pin
    {
        Scheme scheme;
        std::uint8_t contexts;
        Cycle fastForwarded;
        Cycle stallBatched;
        Cycle slept;
    };
    const Pin pins[] = {
        {Scheme::Single, 1, 222943, 209447, 225112},
        {Scheme::Blocked, 4, 48627, 33915, 50542},
        {Scheme::Interleaved, 1, 216686, 212252, 218942},
        {Scheme::Interleaved, 4, 70678, 1704, 74209},
    };
    for (const Pin &pin : pins) {
        UniSystem sys(Config::make(pin.scheme, pin.contexts));
        for (const auto &[name, kernel] : mixApps("R0"))
            sys.addApp(name, kernel);
        sys.run(100000, 300000);
        const std::string run =
            "R0 scheme " + std::to_string(static_cast<int>(pin.scheme)) +
            " contexts " + std::to_string(pin.contexts);
        EXPECT_EQ(sys.fastForwardedCycles(), pin.fastForwarded) << run;
        EXPECT_EQ(sys.stallBatchedCycles(), pin.stallBatched) << run;
        EXPECT_EQ(sys.processor().sleptCycles(), pin.slept) << run;
    }
}

TEST(FastForward, MpWindowsActuallyFire)
{
    // water on 8 nodes, interleaved, run to completion: the cycles
    // the clock jumped, and the node-cycles not ticked (each node's
    // own sleep cycles plus 8 x each jump).
    struct Pin
    {
        std::uint8_t contexts;
        Cycle fastForwarded;
        std::uint64_t sleptNodeCycles;
    };
    const Pin pins[] = {
        {1, 119315, 2952574},
        {4, 4482, 815182},
    };
    for (const Pin &pin : pins) {
        MpSystem sys(
            Config::makeMp(Scheme::Interleaved, pin.contexts, 8));
        sys.loadApp(splashApp("water"));
        sys.run();
        EXPECT_EQ(sys.fastForwardedCycles(), pin.fastForwarded)
            << "water/8p contexts " << static_cast<int>(pin.contexts);
        EXPECT_EQ(sys.sleptNodeCycles(), pin.sleptNodeCycles)
            << "water/8p contexts " << static_cast<int>(pin.contexts);
    }
}

/** Entries of every profiler scope named @p name under @p node. */
std::uint64_t
scopeCalls(const prof::ProfNode &node, const char *name)
{
    std::uint64_t calls =
        std::strcmp(node.name, name) == 0 ? node.calls : 0;
    for (const auto &child : node.children)
        calls += scopeCalls(*child, name);
    return calls;
}

// Clock-jump attempts ("fastforward" scope entries, perfbench's
// system.ff_attempts) and front-end refills ("frontend.replay"
// entries, perfbench's workload.decode_chunks) of interleaved R0 and
// water/8p. Both are exact for a given build, like the skip pins. The
// scope opens only when every node sleeps; a node's own plan attempts
// run inside "pipeline".
TEST(FastForward, AttemptAndRefillCountsArePinned)
{
#ifdef MTSIM_NO_PROF
    GTEST_SKIP() << "profiler scopes are compiled out";
#endif
    struct Pin
    {
        bool mp;
        std::uint8_t contexts;
        std::uint64_t attempts;
        std::uint64_t refills;
    };
    const Pin pins[] = {
        {false, 1, 29688, 40},
        {false, 4, 4800, 93},
        {true, 1, 43818, 208},
        {true, 4, 1559, 256},
    };
    prof::Profiler &profiler = prof::Profiler::instance();
    for (const Pin &pin : pins) {
        profiler.reset();
        profiler.enable(true);
        if (pin.mp) {
            MpSystem sys(
                Config::makeMp(Scheme::Interleaved, pin.contexts, 8));
            sys.loadApp(splashApp("water"));
            sys.run();
        } else {
            UniSystem sys(Config::make(Scheme::Interleaved, pin.contexts));
            for (const auto &[name, kernel] : mixApps("R0"))
                sys.addApp(name, kernel);
            sys.run(100000, 300000);
        }
        profiler.enable(false);
        const std::string run = std::string(pin.mp ? "water/8p" : "R0") +
                                " contexts " +
                                std::to_string(pin.contexts);
        EXPECT_EQ(scopeCalls(profiler.root(), "fastforward"),
                  pin.attempts)
            << run;
        EXPECT_EQ(scopeCalls(profiler.root(), "frontend.replay"),
                  pin.refills)
            << run;
    }
    profiler.reset();
}

// With fast-forward off nothing sleeps and nothing jumps. A sleep
// that leaked into the lockstep loop would keep every signature, so
// only these counts catch it.
TEST(FastForward, UniDisabledSkipsNothing)
{
    const Config cfg = Config::make(Scheme::Interleaved, 1);
    UniSystem sys(cfg);
    sys.setFastForward(false);
    for (const auto &[name, kernel] : mixApps("R0"))
        sys.addApp(name, kernel);
    sys.run(kWarm, kMeasure);
    EXPECT_EQ(sys.fastForwardedCycles(), 0u);
    EXPECT_EQ(sys.stallBatchedCycles(), 0u);
    EXPECT_EQ(sys.processor().sleptCycles(), 0u);
}

TEST(FastForward, MpDisabledSkipsNothing)
{
    MpSystem sys(Config::makeMp(Scheme::Interleaved, 1, 4));
    sys.setFastForward(false);
    sys.loadApp(splashApp("water"));
    sys.run();
    EXPECT_TRUE(sys.finished());
    EXPECT_EQ(sys.fastForwardedCycles(), 0u);
    EXPECT_EQ(sys.sleptNodeCycles(), 0u);
}

TEST(FastForward, MpBitIdentical)
{
    for (const std::uint8_t contexts : {1, 4}) {
        Config cfg = Config::makeMp(Scheme::Interleaved, contexts, 4);
        const ParallelAppFn app = splashApp("water");
        const RunSignature off =
            mpSignature(cfg, app, false, 60000, false);
        const RunSignature on =
            mpSignature(cfg, app, false, 60000, true);
        EXPECT_EQ(off, on)
            << "contexts " << static_cast<int>(contexts)
            << "\n  ff off: " << describe(off)
            << "\n  ff on:  " << describe(on);
    }
}

TEST(FastForward, MpCheckedBitIdentical)
{
    // Checker-enabled multiprocessor run: barrier waits produce long
    // system-wide quiescent windows; the per-node replay attribution
    // must satisfy every processor's slot audit each skipped cycle.
    Config cfg = Config::makeMp(Scheme::Blocked, 2, 4);
    const ParallelAppFn app = splashApp("water");
    const RunSignature off = mpSignature(cfg, app, true, 60000, false);
    const RunSignature on = mpSignature(cfg, app, true, 60000, true);
    EXPECT_EQ(off, on) << "\n  ff off: " << describe(off)
                       << "\n  ff on:  " << describe(on);
    EXPECT_EQ(on.checkViolations, 0u);
}

// Node sleep on every SPLASH app at 8 nodes: fast-forward on and off
// must agree on every config, breakdown included. A wake that ends a
// sleep at the waiter's resume cycle instead of at once keeps every
// probe digest and cycle count but moves the breakdown (water at 2
// contexts, locus, pthor, cholesky), so this compares the whole
// signature; locus and pthor also run with the checker attached.
class FastForwardSplash : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FastForwardSplash, NodeSleepMatchesLockstep)
{
    const std::string &name = GetParam();
    const ParallelAppFn app = splashApp(name);
    const bool checked = name == "locus" || name == "pthor";
    const std::pair<Scheme, std::uint8_t> configs[] = {
        {Scheme::Single, 1},      {Scheme::Blocked, 2},
        {Scheme::Blocked, 4},     {Scheme::Interleaved, 2},
        {Scheme::Interleaved, 4},
    };
    for (const auto &[scheme, contexts] : configs) {
        const Config cfg = Config::makeMp(scheme, contexts, 8);
        for (const bool check : {false, true}) {
            if (check && !checked)
                continue;
            const RunSignature off =
                mpSignature(cfg, app, check, 300000, false);
            const RunSignature on =
                mpSignature(cfg, app, check, 300000, true);
            EXPECT_EQ(off, on)
                << name << " scheme " << static_cast<int>(scheme)
                << " contexts " << static_cast<int>(contexts)
                << (check ? " checked" : "")
                << "\n  ff off: " << describe(off)
                << "\n  ff on:  " << describe(on);
            EXPECT_EQ(on.checkViolations, 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllSplashApps, FastForwardSplash,
                         ::testing::ValuesIn(splashApps()),
                         [](const auto &info) { return info.param; });

// The workstation across OS slice boundaries (every 50,000 cycles)
// and resident-set swaps (every 150,000, single/1 only): perfbench
// uni's 21 configurations, 7 mixes x single/1, blocked/4 and
// interleaved/4, at 100k + 250k cycles. The shorter runs above reach
// neither. No sleep may cross the scheduler's next action, and a
// slice boundary re-arms the planner, so this compares whole
// signatures with fast-forward on and off, and again with the
// checker on the single and interleaved configs.
class FastForwardSlices : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FastForwardSlices, WorkstationMatchesLockstep)
{
    const UniApps apps = mixApps(GetParam());
    const std::pair<Scheme, std::uint8_t> configs[] = {
        {Scheme::Single, 1},
        {Scheme::Blocked, 4},
        {Scheme::Interleaved, 4},
    };
    for (const auto &[scheme, contexts] : configs) {
        const Config cfg = Config::make(scheme, contexts);
        for (const bool check : {false, true}) {
            if (check && scheme == Scheme::Blocked)
                continue;
            const RunSignature off =
                uniSignature(cfg, apps, 100000, 250000, check, false);
            const RunSignature on =
                uniSignature(cfg, apps, 100000, 250000, check, true);
            EXPECT_EQ(off, on)
                << GetParam() << " scheme " << static_cast<int>(scheme)
                << " contexts " << static_cast<int>(contexts)
                << (check ? " checked" : "")
                << "\n  ff off: " << describe(off)
                << "\n  ff on:  " << describe(on);
            EXPECT_EQ(on.checkViolations, 0u);
        }
    }
}

std::vector<std::string>
perfbenchMixes()
{
    std::vector<std::string> mixes = uniWorkloadNames();
    mixes.push_back("SP");
    return mixes;
}

INSTANTIATE_TEST_SUITE_P(PerfbenchMixes, FastForwardSlices,
                         ::testing::ValuesIn(perfbenchMixes()),
                         [](const auto &info) { return info.param; });

// ---- retirements inside a sleep ------------------------------------
// A sleep no longer ends at an in-flight op's retirement: the node
// replays its retirements when it settles. Each test below compares
// whole signatures with lockstep where a wrong settle would show.

/**
 * Thread @p tid of lockRoundsApp: @p tid + 1 staggered warm-up rounds
 * (so the stats barrier's last arrival finds the earlier threads
 * asleep on it, their barrier op still in flight), then rounds of an
 * fdiv chain (ops in flight behind a long stall) followed by a
 * lock-protected update whose Lock waits on the sync fence.
 */
KernelCoro
lockRoundsThread(Emitter &e, std::uint32_t tid, Addr counter, Addr mine)
{
    for (std::uint32_t r = 0; r <= tid; ++r) {
        RegId v = e.iop();
        for (int k = 0; k < 12; ++k)
            v = e.iop(v);
        e.store(mine, v);
        co_await e.pause();
    }
    e.barrier(kStatsBarrier);
    co_await e.pause();
    for (std::uint32_t r = 0; r < 24; ++r) {
        RegId x = e.fload(mine + 8 * (r % 4));
        RegId y = e.fdiv(x, e.fadd(x));
        e.store(mine + 32, e.fmul(y, y));
        e.iop();
        e.lock(r % 2);
        e.store(counter + 64 * (r % 2), e.iop(e.load(counter)));
        e.unlock(r % 2);
        co_await e.pause();
    }
    e.barrier(1);
}

ParallelAppFn
lockRoundsApp()
{
    return [](std::uint32_t n_threads, AddressSpace &shared,
              std::uint64_t) {
        const Addr counter = shared.alloc(128);
        std::vector<KernelFn> kernels;
        for (std::uint32_t t = 0; t < n_threads; ++t) {
            const Addr mine = shared.alloc(64);
            kernels.push_back([t, counter, mine](Emitter &e) {
                return lockRoundsThread(e, t, counter, mine);
            });
        }
        return kernels;
    };
}

const std::pair<Scheme, std::uint8_t> kLockRoundsConfigs[] = {
    {Scheme::Single, 1},
    {Scheme::Interleaved, 1},
    {Scheme::Blocked, 2},
    {Scheme::Interleaved, 4},
};

TEST(FastForward, LockFenceLiftsInsideASleep)
{
    // A Lock behind in-flight ops plans a Sync sleep that must end in
    // the cycle the last of them retires, where lockstep issues it.
    // With the checker attached every node also settles at every
    // cycle's end, so the slot audit sees each slept cycle.
    for (const auto &[scheme, contexts] : kLockRoundsConfigs) {
        const Config cfg = Config::makeMp(scheme, contexts, 4);
        for (const bool check : {false, true}) {
            const RunSignature off =
                mpSignature(cfg, lockRoundsApp(), check, 2000000, false);
            const RunSignature on =
                mpSignature(cfg, lockRoundsApp(), check, 2000000, true);
            EXPECT_EQ(off, on)
                << "scheme " << static_cast<int>(scheme) << " contexts "
                << static_cast<int>(contexts) << (check ? " checked" : "")
                << "\n  ff off: " << describe(off)
                << "\n  ff on:  " << describe(on);
            EXPECT_EQ(on.checkViolations, 0u);
        }
    }
}

/** Per-thread retired counts of an MP run from the stats barrier. */
std::vector<std::uint64_t>
retiredPerThread(const Config &cfg, const ParallelAppFn &app, bool ff)
{
    MpSystem sys(cfg);
    sys.setFastForward(ff);
    sys.setStatsBarrier(kStatsBarrier);
    sys.loadApp(app);
    sys.run();
    std::vector<std::uint64_t> out;
    for (std::uint32_t t = 0; t < sys.numThreads(); ++t)
        out.push_back(sys.processor(static_cast<ProcId>(
                                        t % cfg.numProcessors))
                          .retiredForApp(t));
    return out;
}

TEST(FastForward, StatsClearSettlesSleepingNodes)
{
    // The stats barrier releases while lower-numbered nodes sleep on
    // it with their barrier op due to retire: those retirements
    // belong to the warm-up, before the clear.
    for (const auto &[scheme, contexts] : kLockRoundsConfigs) {
        const Config cfg = Config::makeMp(scheme, contexts, 4);
        EXPECT_EQ(retiredPerThread(cfg, lockRoundsApp(), false),
                  retiredPerThread(cfg, lockRoundsApp(), true))
            << "scheme " << static_cast<int>(scheme) << " contexts "
            << static_cast<int>(contexts);
    }
}

TEST(FastForward, OsSwapSettlesTheSleepFirst)
{
    // A new resident set every 397 cycles: each swap lands where a
    // sleep capped at the scheduler's action ends, often still owing
    // retirements that lockstep made before the swap dropped the
    // rest of the pipeline.
    for (const std::uint8_t contexts : {1, 2}) {
        Config cfg = Config::make(contexts == 1 ? Scheme::Single
                                                : Scheme::Interleaved,
                                  contexts);
        cfg.os.timeSliceCycles = 397;
        cfg.os.affinitySlices = 1;
        const UniApps apps = mixApps("R0");
        const RunSignature off =
            uniSignature(cfg, apps, 20000, 60000, false, false);
        const RunSignature on =
            uniSignature(cfg, apps, 20000, 60000, false, true);
        EXPECT_EQ(off, on) << "contexts " << static_cast<int>(contexts)
                           << "\n  ff off: " << describe(off)
                           << "\n  ff on:  " << describe(on);
    }
}

TEST(FastForward, ResidentContextBatchesWhateverTheOthersDo)
{
    // Blocked/4 batches its resident context's RAW stalls however many
    // other contexts wake inside the batch; interleaved/4 must stop
    // where one wakes. A small switch-hint threshold makes hints
    // common: a batch must never cover a cycle where one would fire.
    for (const Scheme scheme : {Scheme::Blocked, Scheme::Interleaved}) {
        for (const char *mix : {"R0", "DC"}) {
            Config cfg = Config::make(scheme, 4);
            cfg.switchHintThreshold = 3;
            const UniApps apps = mixApps(mix);
            const RunSignature off =
                uniSignature(cfg, apps, 20000, 60000, false, false);
            const RunSignature on =
                uniSignature(cfg, apps, 20000, 60000, false, true);
            EXPECT_EQ(off, on)
                << mix << " scheme " << static_cast<int>(scheme)
                << "\n  ff off: " << describe(off)
                << "\n  ff on:  " << describe(on);

            UniSystem sys(cfg);
            for (const auto &[name, kernel] : apps)
                sys.addApp(name, kernel);
            sys.run(20000, 60000);
            EXPECT_GT(sys.stallBatchedCycles(), 0u)
                << mix << " scheme " << static_cast<int>(scheme);
        }
    }
}

TEST(FastForward, MpMemoryTickSkipsOnlyBeforeTheNextFill)
{
    // MpMemSystem::nextTickAt reads the event heap alone: every MSHR
    // allocation is paired with a fill event at its completion, so no
    // node's next completion may precede the heap's top. Checked
    // after every cycle of a lockstep run (run(1) cannot sleep).
    MpSystem sys(Config::makeMp(Scheme::Interleaved, 2, 4));
    sys.loadApp(splashApp("water"));
    std::uint64_t violations = 0;
    for (Cycle c = 0; c < 60000 && !sys.finished(); ++c) {
        sys.run(1);
        violations += sys.mem().fillsCoverMshrs() ? 0 : 1;
    }
    EXPECT_EQ(violations, 0u);
    EXPECT_GT(sys.mem().mshrs(0).allocations(), 0u);
}

} // namespace
} // namespace mtsim
