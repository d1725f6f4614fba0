/**
 * @file
 * Fast-forward equivalence tests. The event-driven clock jump
 * (UniSystem/MpSystem::setFastForward) must be invisible: every
 * configuration's RunSignature - probe digest, event count, cycles,
 * retired instructions, full cycle breakdown - is bit-identical with
 * fast-forward on and off, including with the invariant checker
 * observing every skipped cycle. Two more tests pin the exact number
 * of cycles each system skips, so the equivalence is not vacuous and
 * a skip-path regression fails without any timing involved.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "check/differential.hh"
#include "common/config.hh"
#include "prof/profiler.hh"
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
    // With checking enabled the skipped cycles are replayed to the
    // checker one by one; slot conservation and the shadow state
    // audits must hold on every one of them, and the signature must
    // still match the lockstep run.
    expectUniEquivalent(Scheme::Interleaved, 1, "R0", true);
    expectUniEquivalent(Scheme::Interleaved, 4, "DC", true);
    expectUniEquivalent(Scheme::Blocked, 4, "R0", true);
}

// Exact skip counts. A node ticks on every simulated cycle that is
// neither fast-forwarded nor stall-batched, so these pins also fix
// the tick count of each run. A planner that declines a window it
// used to take moves them on any host. Regenerate only when a change
// means to move skip decisions, and say why.

TEST(FastForward, UniWindowsActuallyFire)
{
    struct Pin
    {
        Scheme scheme;
        std::uint8_t contexts;
        Cycle fastForwarded;
        Cycle stallBatched;
    };
    const Pin pins[] = {
        {Scheme::Single, 1, 4893, 175793},
        {Scheme::Blocked, 4, 13272, 1},
        {Scheme::Interleaved, 1, 3380, 175369},
        {Scheme::Interleaved, 4, 60236, 1000},
    };
    for (const Pin &pin : pins) {
        UniSystem sys(Config::make(pin.scheme, pin.contexts));
        for (const auto &[name, kernel] : mixApps("R0"))
            sys.addApp(name, kernel);
        sys.run(100000, 300000);
        EXPECT_EQ(sys.fastForwardedCycles(), pin.fastForwarded)
            << "R0 scheme " << static_cast<int>(pin.scheme)
            << " contexts " << static_cast<int>(pin.contexts);
        EXPECT_EQ(sys.stallBatchedCycles(), pin.stallBatched)
            << "R0 scheme " << static_cast<int>(pin.scheme)
            << " contexts " << static_cast<int>(pin.contexts);
    }
}

TEST(FastForward, MpWindowsActuallyFire)
{
    // water on 8 nodes, interleaved, run to completion.
    const std::pair<std::uint8_t, Cycle> pins[] = {{1, 42121},
                                                   {4, 2161}};
    for (const auto &[contexts, fastForwarded] : pins) {
        MpSystem sys(Config::makeMp(Scheme::Interleaved, contexts, 8));
        sys.loadApp(splashApp("water"));
        sys.run();
        EXPECT_EQ(sys.fastForwardedCycles(), fastForwarded)
            << "water/8p contexts " << static_cast<int>(contexts);
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

// Fast-forward attempts ("fastforward" scope entries, perfbench's
// system.ff_attempts) and front-end refills ("frontend.replay"
// entries, perfbench's workload.decode_chunks) of interleaved R0 and
// water/8p. Both are exact for a given build, like the skip pins.
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
        {false, 1, 31359, 40},
        {false, 4, 39275, 93},
        {true, 1, 302529, 208},
        {true, 4, 163689, 256},
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

TEST(FastForward, UniDisabledSkipsNothing)
{
    const Config cfg = Config::make(Scheme::Interleaved, 1);
    UniSystem sys(cfg);
    sys.setFastForward(false);
    for (const auto &[name, kernel] : mixApps("R0"))
        sys.addApp(name, kernel);
    sys.run(kWarm, kMeasure);
    EXPECT_EQ(sys.fastForwardedCycles(), 0u);
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

} // namespace
} // namespace mtsim
