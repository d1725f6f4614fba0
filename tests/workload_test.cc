/**
 * @file
 * Tests for the workload framework: Emitter PC discipline, the
 * Twine-like block scheduler (dependences preserved, loads hoisted),
 * register management, coroutine streaming through ThreadSource's
 * refills, and the synthetic workload generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "splash/splash_suite.hh"
#include "workload/emitter.hh"
#include "workload/synthetic.hh"

namespace mtsim {
namespace {

std::vector<MicroOp>
drain(ThreadSource &src, std::size_t max_ops)
{
    std::vector<MicroOp> ops;
    MicroOp op;
    while (ops.size() < max_ops && src.next(op))
        ops.push_back(op);
    return ops;
}

// ---- basic emission ----------------------------------------------------

TEST(Emitter, SequentialPcAssignment)
{
    auto kernel = [](Emitter &e) -> KernelCoro {
        e.iop();
        e.iop();
        e.load(0x1000);
        co_await e.pause();
    };
    ThreadSource src(0x4000, 0x100000, 1, kernel, false);
    auto ops = drain(src, 10);
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0].pc, 0x4000u);
    EXPECT_EQ(ops[1].pc, 0x4004u);
    EXPECT_EQ(ops[2].pc, 0x4008u);
}

TEST(Emitter, EmitLoopReusesPcs)
{
    auto kernel = [](Emitter &e) -> KernelCoro {
        EmitLoop loop(e);
        for (int i = 0;; ++i) {
            e.iop();
            e.load(0x1000 + i * 8);
            co_await e.pause();
            if (!loop.next(i + 1 < 5))
                break;
        }
    };
    ThreadSource src(0x4000, 0x100000, 1, kernel, false);
    auto ops = drain(src, 100);
    // 5 iterations x (iop, load, idx-iop, branch) = 20 ops.
    ASSERT_EQ(ops.size(), 20u);
    std::set<Addr> pcs;
    for (const auto &op : ops)
        pcs.insert(op.pc);
    EXPECT_EQ(pcs.size(), 4u);   // the loop body folds onto 4 pcs
    // The backward branch is taken 4 times, not-taken once.
    int taken = 0;
    for (const auto &op : ops)
        if (op.op == Op::Branch)
            taken += op.taken;
    EXPECT_EQ(taken, 4);
}

TEST(Emitter, BranchFwdSkipsExactly)
{
    auto kernel = [](Emitter &e) -> KernelCoro {
        e.branchFwd(kNoReg, true, 2);   // skip two ops
        e.iop();                        // merge point
        co_await e.pause();
        e.branchFwd(kNoReg, false, 2);
        e.iop();
        e.iop();
        e.iop();                        // merge point
        co_await e.pause();
    };
    ThreadSource src(0x0, 0x100000, 1, kernel, false);
    auto ops = drain(src, 100);
    ASSERT_EQ(ops.size(), 6u);
    // Taken: branch at 0, target 12, merge op at 12.
    EXPECT_EQ(ops[0].target, 12u);
    EXPECT_EQ(ops[1].pc, 12u);
    // Not taken: branch at 16, fall-through ops 20, 24, merge 28.
    EXPECT_EQ(ops[2].pc, 16u);
    EXPECT_EQ(ops[2].target, 28u);
    EXPECT_EQ(ops[3].pc, 20u);
    EXPECT_EQ(ops[5].pc, 28u);
}

TEST(Emitter, CallRegionsGiveStablePcs)
{
    auto kernel = [](Emitter &e) -> KernelCoro {
        EmitLoop loop(e);
        for (int i = 0;; ++i) {
            auto ret = e.call(e.codeRegion(3));
            e.iop();
            e.iop();
            e.ret(ret);
            co_await e.pause();
            if (!loop.next(i + 1 < 3))
                break;
        }
    };
    ThreadSource src(0x8000, 0x100000, 1, kernel, false);
    auto ops = drain(src, 100);
    std::map<Addr, int> pc_count;
    for (const auto &op : ops)
        ++pc_count[op.pc];
    // Each call re-executes the region body at identical pcs.
    Emitter probe(0x8000, 0x100000);
    const Addr region = probe.codeRegion(3);
    EXPECT_EQ(pc_count[region], 3);
    EXPECT_EQ(pc_count[region + 4], 3);
}

TEST(Emitter, RegisterPoolsSeparateIntAndFp)
{
    Emitter e(0, 0x1000);
    RegId i = e.iop();
    RegId f = e.fadd();
    EXPECT_LT(i, kFpRegBase);
    EXPECT_GE(f, kFpRegBase);
}

TEST(Emitter, PinnedRegistersExclusive)
{
    Emitter e(0, 0x1000);
    std::set<RegId> pins;
    for (int i = 0; i < 7; ++i)
        EXPECT_TRUE(pins.insert(e.ipin()).second);
    EXPECT_THROW(e.ipin(), std::runtime_error);
    RegId r = *pins.begin();
    e.unpin(r);
    EXPECT_EQ(e.ipin(), r);
}

TEST(Emitter, RotatingPoolAvoidsPinnedRange)
{
    Emitter e(0, 0x1000);
    for (int i = 0; i < 100; ++i) {
        RegId r = e.iop();
        EXPECT_GE(r, 8);
        EXPECT_LT(r, 32);
    }
}

TEST(Emitter, LoadAddrSrcCreatesDependence)
{
    Emitter e(0, 0x1000);
    RegId p = e.load(0x2000);
    e.load(0x3000, p);
    e.pause();
    ASSERT_EQ(e.out().size(), 2u);
    EXPECT_EQ(e.out()[1].src1, p);
}

TEST(Emitter, SyncOpsCarryIds)
{
    Emitter e(0, 0x1000);
    e.lock(7);
    e.unlock(7);
    e.barrier(9);
    ASSERT_EQ(e.out().size(), 3u);
    const MicroOp l = e.out()[0], u = e.out()[1], b = e.out()[2];
    EXPECT_EQ(l.op, Op::Lock);
    EXPECT_EQ(l.syncId, 7u);
    EXPECT_EQ(u.op, Op::Unlock);
    EXPECT_EQ(b.op, Op::Barrier);
    EXPECT_EQ(b.syncId, 9u);
}

TEST(Emitter, BackoffCarriesCycles)
{
    Emitter e(0, 0x1000);
    e.backoff(123);
    ASSERT_EQ(e.out().size(), 1u);
    const MicroOp op = e.out()[0];
    EXPECT_EQ(op.op, Op::Backoff);
    EXPECT_EQ(op.backoffCycles, 123u);
}

// ---- block scheduler -----------------------------------------------------

/** Verify every register/memory dependence still points backwards. */
void
expectDependencesPreserved(const std::vector<MicroOp> &ops)
{
    for (std::size_t i = 0; i < ops.size(); ++i) {
        for (std::size_t j = i + 1; j < ops.size(); ++j) {
            // If j's result is read by an op before i... we check
            // the simpler invariant: no op reads a register whose
            // producing write appears later in the stream without an
            // earlier write.
            (void)j;
        }
    }
    // Direct check: simulate register "last writer" and ensure every
    // read has its producer at or before it (given the generator
    // only reads values it previously produced).
    std::set<RegId> written;
    for (const auto &op : ops) {
        auto check = [&](RegId r) {
            if (r != kNoReg && r >= 8) {
                EXPECT_TRUE(written.count(r))
                    << "read before write after scheduling";
            }
        };
        check(op.src1);
        check(op.src2);
        if (op.dst != kNoReg)
            written.insert(op.dst);
    }
}

TEST(BlockScheduler, PreservesDependences)
{
    auto kernel = [](Emitter &e) -> KernelCoro {
        for (int round = 0; round < 4; ++round) {
            RegId a = e.load(0x1000 + round * 64);
            RegId b = e.iop(a);
            RegId c = e.iop(b, a);
            e.store(0x2000 + round * 64, c);
            RegId d = e.load(0x2000 + round * 64);  // after store
            e.iop(d);
        }
        co_await e.pause();
    };
    ThreadSource src(0, 0x100000, 1, kernel, true);
    auto ops = drain(src, 100);
    ASSERT_EQ(ops.size(), 24u);
    expectDependencesPreserved(ops);
    // Same-address load stays after the store.
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (isStore(ops[i].op)) {
            for (std::size_t j = 0; j < i; ++j) {
                if (isLoad(ops[j].op)) {
                    EXPECT_NE(ops[j].addr, ops[i].addr)
                        << "load hoisted above same-address store";
                }
            }
        }
    }
}

TEST(BlockScheduler, HoistsIndependentLoadAboveConsumerChain)
{
    // load A; use A; load B; use B  ->  both loads should bubble up
    // so neither use stalls the full two delay slots.
    auto kernel = [](Emitter &e) -> KernelCoro {
        RegId a = e.load(0x1000);
        RegId x = e.iop(a);
        e.iop(x);
        RegId b = e.load(0x2000);
        RegId y = e.iop(b);
        e.iop(y);
        co_await e.pause();
    };
    ThreadSource src(0, 0x100000, 1, kernel, true);
    auto ops = drain(src, 10);
    ASSERT_EQ(ops.size(), 6u);
    // Both loads should appear in the first three slots.
    int loads_early = 0;
    for (int i = 0; i < 3; ++i)
        loads_early += isLoad(ops[i].op);
    EXPECT_EQ(loads_early, 2);
}

TEST(ThreadSource, FinishedCoroutineEndsStream)
{
    auto kernel = [](Emitter &e) -> KernelCoro {
        e.iop();
        co_await e.pause();
        e.iop();
        // no trailing pause: flush happens on drain
    };
    ThreadSource src(0, 0x100000, 1, kernel);
    MicroOp op;
    EXPECT_TRUE(src.next(op));
    EXPECT_TRUE(src.next(op));
    EXPECT_FALSE(src.next(op));
    EXPECT_FALSE(src.next(op));   // stays finished
}

/** Thread 0 of SPLASH water on 8 threads: finite, with sync ops. */
KernelFn
waterThread()
{
    AddressSpace shared(0x4000000000ull);
    return splashApp("water")(8, shared, 1)[0];
}

TEST(ThreadSource, RefillsMatchOneShotDecode)
{
    constexpr Addr kCode = 0x100000000ull;
    constexpr Addr kData = 0x110000000ull;

    // Reference: the whole kernel decoded in one go, noting the most
    // ops one resume appends.
    Emitter whole(kCode, kData, 5);
    KernelCoro coro = waterThread()(whole);
    std::size_t burst = Emitter::kMaxBlockOps;
    while (coro.alive()) {
        const std::size_t before = whole.out().size();
        coro.resume();
        burst = std::max(burst, whole.out().size() - before);
    }
    whole.pause();
    const std::vector<MicroOp> &ref = whole.out();
    // A refill stops resuming once it holds kRefillOps, so it holds
    // fewer than kRefillOps + burst; a longer stream than two such
    // refills takes at least three.
    ASSERT_GT(ref.size(), 2 * (ThreadSource::kRefillOps + burst));

    ThreadSource src(kCode, kData, 5, waterThread());
    MicroOp op;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_TRUE(src.next(op)) << "op " << i;
        const MicroOp &r = ref[i];
        ASSERT_EQ(op.op, r.op) << "op " << i;
        ASSERT_EQ(op.dst, r.dst) << "op " << i;
        ASSERT_EQ(op.src1, r.src1) << "op " << i;
        ASSERT_EQ(op.src2, r.src2) << "op " << i;
        ASSERT_EQ(op.pc, r.pc) << "op " << i;
        ASSERT_EQ(op.addr, r.addr) << "op " << i;
        ASSERT_EQ(op.target, r.target) << "op " << i;
        ASSERT_EQ(op.taken, r.taken) << "op " << i;
        ASSERT_EQ(op.singlePrec, r.singlePrec) << "op " << i;
        ASSERT_EQ(op.backoffCycles, r.backoffCycles) << "op " << i;
        ASSERT_EQ(op.syncId, r.syncId) << "op " << i;
    }
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(src.next(op));
}

// ---- synthetic generator ---------------------------------------------------

TEST(Synthetic, DeterministicForSameSeed)
{
    SyntheticParams p;
    ThreadSource a(0x1000, 0x100000, 7, makeSyntheticKernel(p));
    ThreadSource b(0x1000, 0x100000, 7, makeSyntheticKernel(p));
    MicroOp oa, ob;
    for (int i = 0; i < 2000; ++i) {
        ASSERT_TRUE(a.next(oa));
        ASSERT_TRUE(b.next(ob));
        ASSERT_EQ(oa.pc, ob.pc);
        ASSERT_EQ(static_cast<int>(oa.op), static_cast<int>(ob.op));
        ASSERT_EQ(oa.addr, ob.addr);
    }
}

TEST(Synthetic, RespectsMaxOps)
{
    SyntheticParams p;
    p.maxOps = 300;
    ThreadSource src(0x1000, 0x100000, 3, makeSyntheticKernel(p));
    auto ops = drain(src, 100000);
    EXPECT_GE(ops.size(), 300u);
    EXPECT_LT(ops.size(), 600u);
}

TEST(Synthetic, AddressesStayInFootprint)
{
    SyntheticParams p;
    p.footprintBytes = 4096;
    p.maxOps = 2000;
    ThreadSource src(0x1000, 0x100000, 3, makeSyntheticKernel(p));
    auto ops = drain(src, 100000);
    for (const auto &op : ops) {
        if (isLoad(op.op) || isStore(op.op)) {
            EXPECT_GE(op.addr, 0x100000u);
            EXPECT_LT(op.addr, 0x100000u + 8192u);
        }
    }
}

TEST(Synthetic, MixRoughlyHonoured)
{
    SyntheticParams p;
    p.maxOps = 20000;
    ThreadSource src(0x1000, 0x100000, 11, makeSyntheticKernel(p));
    auto ops = drain(src, 100000);
    std::size_t loads = 0;
    for (const auto &op : ops)
        loads += isLoad(op.op);
    const double frac =
        static_cast<double>(loads) / static_cast<double>(ops.size());
    EXPECT_NEAR(frac, p.wLoad, 0.08);
}

} // namespace
} // namespace mtsim
