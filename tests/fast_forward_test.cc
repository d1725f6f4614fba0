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
        {Scheme::Single, 1, 179678, 175752, 180687},
        {Scheme::Blocked, 4, 12332, 1, 13273},
        {Scheme::Interleaved, 1, 178219, 175328, 178750},
        {Scheme::Interleaved, 4, 57277, 1000, 61237},
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
        {1, 71462, 2790548},
        {4, 1676, 600023},
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
        {false, 1, 23587, 40},
        {false, 4, 4863, 93},
        {true, 1, 35389, 208},
        {true, 4, 425, 256},
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

} // namespace
} // namespace mtsim
