/**
 * @file
 * Replay front-end differential tests (docs/ARCHITECTURE.md §9): the
 * pre-decoded replay path must be indistinguishable, at probe-stream
 * byte level, from resuming the kernel coroutines lazily. Covered:
 * every kernel of the canonical allocation-budget runs (the R0 SPEC
 * mix and SPLASH water at both context counts), one extra standalone SPEC
 * kernel and one SPLASH uniprocessor kernel, whole-run and windowed
 * digests, and streams crossing an OS swap.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/differential.hh"
#include "check/digest.hh"
#include "common/config.hh"
#include "spec/spec_suite.hh"
#include "splash/splash_suite.hh"
#include "system/mp_system.hh"
#include "system/uni_system.hh"
#include "workload/emitter.hh"
#include "workload/replay.hh"

namespace mtsim {
namespace {

constexpr Cycle kWindow = 10000;

/** Whole-run digest plus the windowed sub-digest stream. */
struct DigestTrace
{
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    std::uint64_t retired = 0;
    std::uint64_t osSwaps = 0;
    std::vector<std::uint64_t> windows;
};

void
expectSameTrace(const DigestTrace &replay, const DigestTrace &coro)
{
    EXPECT_EQ(replay.digest, coro.digest);
    EXPECT_EQ(replay.events, coro.events);
    EXPECT_EQ(replay.retired, coro.retired);
    EXPECT_EQ(replay.osSwaps, coro.osSwaps);
    ASSERT_EQ(replay.windows.size(), coro.windows.size());
    for (std::size_t i = 0; i < replay.windows.size(); ++i)
        EXPECT_EQ(replay.windows[i], coro.windows[i]) << "window " << i;
}

DigestTrace
runUni(Config cfg, const UniApps &apps, Cycle warmup, Cycle measure,
       bool replay)
{
    cfg.replayFrontEnd = replay;
    UniSystem sys(cfg);
    ProbeDigest digest(kWindow);
    sys.probes().addSink(&digest);
    for (const auto &[name, kernel] : apps)
        sys.addApp(name, kernel);
    sys.run(warmup, measure);
    digest.finishWindows(sys.now());
    DigestTrace t;
    t.digest = digest.digest();
    t.events = digest.events();
    t.retired = sys.retired();
    t.osSwaps = sys.scheduler().swaps();
    for (const DigestWindow &w : digest.windows())
        t.windows.push_back(w.hash);
    return t;
}

DigestTrace
runMp(Config cfg, const std::string &app, Cycle max_cycles, bool replay)
{
    cfg.replayFrontEnd = replay;
    MpSystem sys(cfg);
    ProbeDigest digest(kWindow);
    sys.probes().addSink(&digest);
    sys.loadApp(splashApp(app));
    sys.run(max_cycles);
    digest.finishWindows(sys.now());
    DigestTrace t;
    t.digest = digest.digest();
    t.events = digest.events();
    t.retired = sys.retired();
    for (const DigestWindow &w : digest.windows())
        t.windows.push_back(w.hash);
    return t;
}

/** Both context counts of the matrix's uni row: the full R0 mix. */
TEST(ReplayFrontEnd, UniMatrixKernelsMatchCoroutinePath)
{
    for (std::uint8_t ctx : {1, 4}) {
        Config cfg = Config::make(Scheme::Interleaved, ctx);
        const UniApps apps = mixApps("R0");
        DigestTrace replay = runUni(cfg, apps, 20000, 40000, true);
        DigestTrace coro = runUni(cfg, apps, 20000, 40000, false);
        SCOPED_TRACE("contexts=" + std::to_string(ctx));
        expectSameTrace(replay, coro);
        EXPECT_GT(replay.events, 0u);
    }
}

/** Both context counts of the matrix's mp row: SPLASH water on 8p. */
TEST(ReplayFrontEnd, MpMatrixKernelsMatchCoroutinePath)
{
    for (std::uint8_t ctx : {1, 4}) {
        Config cfg = Config::makeMp(Scheme::Interleaved, ctx, 8);
        DigestTrace replay = runMp(cfg, "water", 40000, true);
        DigestTrace coro = runMp(cfg, "water", 40000, false);
        SCOPED_TRACE("contexts=" + std::to_string(ctx));
        expectSameTrace(replay, coro);
        EXPECT_GT(replay.events, 0u);
    }
}

/**
 * A cursor crossing OS swaps: shrink the time slice so the scheduler
 * rotates the resident set repeatedly mid-run, forcing unload/reload
 * of every source, and require the streams to stay identical.
 */
TEST(ReplayFrontEnd, DigestsMatchAcrossOsSwaps)
{
    Config cfg = Config::make(Scheme::Interleaved, 1);
    cfg.os.timeSliceCycles = 4000;
    cfg.os.affinitySlices = 2;
    const UniApps apps = mixApps("R0");
    DigestTrace replay = runUni(cfg, apps, 0, 60000, true);
    DigestTrace coro = runUni(cfg, apps, 0, 60000, false);
    // The property under test requires actual swaps; R0 has more
    // apps than one context, so the shrunk slices must rotate.
    ASSERT_GT(replay.osSwaps, 0u);
    expectSameTrace(replay, coro);
}

/** One standalone SPEC kernel beyond the matrix mix. */
TEST(ReplayFrontEnd, SpecKernelMatchesCoroutinePath)
{
    Config cfg = Config::make(Scheme::Interleaved, 2);
    const UniApps apps = {{"mxm", specKernel("mxm")}};
    DigestTrace replay = runUni(cfg, apps, 10000, 30000, true);
    DigestTrace coro = runUni(cfg, apps, 10000, 30000, false);
    expectSameTrace(replay, coro);
    EXPECT_GT(replay.events, 0u);
}

/** One SPLASH kernel through the uniprocessor adaptation. */
TEST(ReplayFrontEnd, SplashUniKernelMatchesCoroutinePath)
{
    Config cfg = Config::make(Scheme::Interleaved, 2);
    const std::string name = spWorkload().front();
    const UniApps apps = {{name, splashUniKernel(name)}};
    DigestTrace replay = runUni(cfg, apps, 10000, 30000, true);
    DigestTrace coro = runUni(cfg, apps, 10000, 30000, false);
    expectSameTrace(replay, coro);
    EXPECT_GT(replay.events, 0u);
}

/** The raw op stream itself must be byte-identical, field by field. */
TEST(ReplayFrontEnd, CursorStreamIdenticalToThreadSource)
{
    constexpr Addr kCode = 0x100000000ull;
    constexpr Addr kData = 0x200000000ull;
    ThreadSource direct(kCode, kData, 1, specKernel("mxm"));
    auto prog = std::make_shared<ReplayProgram>(kCode, kData, 1,
                                                specKernel("mxm"));
    ReplayCursor cursor(prog);
    MicroOp a, b;
    for (std::uint64_t i = 0; i < 200000; ++i) {
        const bool da = direct.next(a);
        const bool db = cursor.next(b);
        ASSERT_EQ(da, db) << "op " << i;
        if (!da)
            break;
        ASSERT_EQ(a.op, b.op) << "op " << i;
        ASSERT_EQ(a.dst, b.dst) << "op " << i;
        ASSERT_EQ(a.src1, b.src1) << "op " << i;
        ASSERT_EQ(a.src2, b.src2) << "op " << i;
        ASSERT_EQ(a.pc, b.pc) << "op " << i;
        ASSERT_EQ(a.addr, b.addr) << "op " << i;
        ASSERT_EQ(a.target, b.target) << "op " << i;
        ASSERT_EQ(a.taken, b.taken) << "op " << i;
        ASSERT_EQ(a.singlePrec, b.singlePrec) << "op " << i;
        ASSERT_EQ(a.backoffCycles, b.backoffCycles) << "op " << i;
        ASSERT_EQ(a.syncId, b.syncId) << "op " << i;
    }
}

/** Re-pointing: a second cursor over the same program replays the
 *  decoded prefix without touching the coroutine again. */
TEST(ReplayFrontEnd, SecondCursorReplaysDecodedPrefix)
{
    constexpr Addr kCode = 0x100000000ull;
    constexpr Addr kData = 0x200000000ull;
    auto prog = std::make_shared<ReplayProgram>(kCode, kData, 7,
                                                specKernel("mxm"));
    ReplayCursor first(prog);
    MicroOp op;
    std::vector<MicroOp> seen;
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(first.next(op));
        seen.push_back(op);
    }
    const std::size_t decoded = prog->decodedOps();
    ReplayCursor second(prog);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(second.next(op));
        EXPECT_EQ(op.pc, seen[static_cast<std::size_t>(i)].pc);
    }
    // Replaying the prefix must not have decoded anything new.
    EXPECT_EQ(prog->decodedOps(), decoded);
}

} // namespace
} // namespace mtsim
