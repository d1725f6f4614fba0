/**
 * @file
 * Tests for the workload framework: Emitter PC discipline, the
 * Twine-like block scheduler (dependences preserved, loads hoisted,
 * random blocks against an all-pairs reference scheduler),
 * register management, coroutine streaming through ThreadSource's
 * refills, and the synthetic workload generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "isa/latency.hh"
#include "spec/spec_suite.hh"
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

/**
 * True when @p later must stay after @p earlier: a register RAW, WAR
 * or WAW pair, or a same-address load/store pair with a store in it.
 */
bool
mustStayOrdered(const MicroOp &earlier, const MicroOp &later)
{
    auto reads = [](const MicroOp &op, RegId r) {
        return r != kNoReg && (op.src1 == r || op.src2 == r);
    };
    if (earlier.dst != kNoReg &&
        (reads(later, earlier.dst) || later.dst == earlier.dst))
        return true;
    if (reads(earlier, later.dst))
        return true;
    auto mem = [](const MicroOp &op) {
        return isLoad(op.op) || isStore(op.op);
    };
    return mem(earlier) && mem(later) && earlier.addr == later.addr &&
           (isStore(earlier.op) || isStore(later.op));
}

/** Same instruction, ignoring the pc the emitter assigns last. */
bool
sameInstruction(const MicroOp &a, const MicroOp &b)
{
    return a.op == b.op && a.dst == b.dst && a.src1 == b.src1 &&
           a.src2 == b.src2 && a.addr == b.addr &&
           a.singlePrec == b.singlePrec;
}

/**
 * Verify @p scheduled is a reordering of @p program (the same kernel
 * emitted unscheduled) that keeps every pair mustStayOrdered names in
 * program order. Identical instructions are matched in turn; they
 * have identical dependences, so the matching cannot hide a swap.
 */
void
expectDependencesPreserved(const std::vector<MicroOp> &program,
                           const std::vector<MicroOp> &scheduled)
{
    ASSERT_EQ(program.size(), scheduled.size());
    const std::size_t n = program.size();
    std::vector<std::size_t> pos(n, n);  // program index -> slot
    for (std::size_t slot = 0; slot < n; ++slot) {
        std::size_t i = 0;
        while (i < n && (pos[i] != n ||
                         !sameInstruction(program[i], scheduled[slot])))
            ++i;
        ASSERT_LT(i, n) << "scheduled op " << slot
                        << " is not in the program";
        pos[i] = slot;
    }
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            if (mustStayOrdered(program[i], program[j])) {
                EXPECT_LT(pos[i], pos[j])
                    << "program ops " << i << " and " << j
                    << " swapped by the scheduler";
            }
        }
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
    ThreadSource unscheduled(0, 0x100000, 1, kernel, false);
    expectDependencesPreserved(drain(unscheduled, 100), ops);
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

/**
 * The schedule the Emitter's scheduler must produce, from the
 * all-pairs dependence graph: list scheduling by longest latency path
 * to the block's end, ties to the earliest op.
 */
std::vector<MicroOp>
referenceSchedule(const std::vector<MicroOp> &ops)
{
    const std::size_t n = ops.size();
    if (n < 2)
        return ops;
    const LatencyParams lat;
    std::vector<std::uint32_t> prio(n, 0);
    for (std::size_t i = n; i-- > 0;) {
        std::uint32_t best_succ = 0;
        for (std::size_t j = i + 1; j < n; ++j) {
            if (mustStayOrdered(ops[i], ops[j]))
                best_succ = std::max(best_succ, prio[j]);
        }
        prio[i] = best_succ + resultLatency(lat, ops[i]);
    }
    std::vector<bool> done(n, false);
    std::vector<MicroOp> out;
    while (out.size() < n) {
        std::size_t best = n;
        for (std::size_t j = 0; j < n; ++j) {
            bool ready = !done[j];
            for (std::size_t i = 0; ready && i < j; ++i)
                ready = done[i] || !mustStayOrdered(ops[i], ops[j]);
            if (ready && (best == n || prio[j] > prio[best]))
                best = j;
        }
        done[best] = true;
        out.push_back(ops[best]);
    }
    return out;
}

/** Emit one random block of @p n ops: rotating and pinned register
 *  reuse, dependent sources, and loads and stores over four
 *  addresses so same-address chains form. */
void
emitRandomBlock(Emitter &e, Rng &rng, std::size_t n, RegId ipin,
                RegId fpin)
{
    std::vector<RegId> ints{ipin}, fps{fpin};
    auto pick = [&](const std::vector<RegId> &regs) {
        return rng.chance(0.2) ? kNoReg : regs[rng.range(regs.size())];
    };
    auto addr = [&] { return 0x1000 + 8 * rng.range(4); };
    for (std::size_t k = 0; k < n; ++k) {
        switch (rng.range(13)) {
          case 0: ints.push_back(e.iop(pick(ints), pick(ints))); break;
          case 1: ints.push_back(e.ishift(pick(ints))); break;
          case 2: ints.push_back(e.imul(pick(ints), pick(ints))); break;
          case 3: ints.push_back(e.idiv(pick(ints), pick(ints))); break;
          case 4: fps.push_back(e.fadd(pick(fps), pick(fps))); break;
          case 5: fps.push_back(e.fmul(pick(fps), pick(fps))); break;
          case 6:
            fps.push_back(e.fdiv(pick(fps), pick(fps), rng.chance(0.5)));
            break;
          case 7: ints.push_back(e.load(addr(), pick(ints))); break;
          case 8: fps.push_back(e.fload(addr())); break;
          case 9: e.store(addr(), pick(rng.chance(0.5) ? ints : fps)); break;
          case 10: e.prefetch(addr()); break;
          case 11: e.iopInto(ipin, pick(ints), pick(ints)); break;
          default: e.loadInto(ipin, addr()); break;
        }
    }
}

TEST(BlockScheduler, MatchesAllPairsListSchedulerOnRandomBlocks)
{
    // One emitter pair for every block, so scheduler state left over
    // from one block would show in the next.
    Emitter scheduled(0, 0x100000, 1, true);
    Emitter program(0, 0x100000, 1, false);
    const RegId ipin = scheduled.ipin(), fpin = scheduled.fpin();
    ASSERT_EQ(program.ipin(), ipin);
    ASSERT_EQ(program.fpin(), fpin);
    Rng sizes(17);
    for (int block = 0; block < 400; ++block) {
        const std::size_t n = 2 + sizes.range(Emitter::kMaxBlockOps - 1);
        Rng a(1000 + block), b(1000 + block);
        emitRandomBlock(scheduled, a, n, ipin, fpin);
        emitRandomBlock(program, b, n, ipin, fpin);
        scheduled.pause();
        program.pause();
        const std::vector<MicroOp> want = referenceSchedule(program.out());
        const std::vector<MicroOp> &got = scheduled.out();
        ASSERT_EQ(got.size(), n);
        for (std::size_t k = 0; k < n; ++k) {
            ASSERT_TRUE(sameInstruction(got[k], want[k]))
                << "block " << block << " (" << n << " ops), slot " << k;
        }
        scheduled.out().clear();
        program.out().clear();
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

// A refill resumes the kernel until its buffer holds kRefillOps, so
// the buffer peaks at kRefillOps plus one resume's ops: a kernel that
// goes long between pauses grows its thread's buffer with it.
TEST(ThreadSource, SpecKernelResumesStayBounded)
{
    constexpr std::size_t kOps = 3000000;
    constexpr std::size_t kMaxResumeOps = 32 * ThreadSource::kRefillOps;
    for (const std::string &app : specApps()) {
        Emitter e(0x100000000ull, 0x110000000ull, 3);
        KernelCoro coro = specKernel(app)(e);
        std::size_t total = 0;
        std::size_t most = 0;
        while (total < kOps && coro.alive()) {
            e.out().clear();
            coro.resume();
            most = std::max(most, e.out().size());
            total += e.out().size();
        }
        EXPECT_LE(most, kMaxResumeOps) << app;
    }
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
