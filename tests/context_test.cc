/**
 * @file
 * Tests of the per-context fetch/replay machinery (the EPC restart
 * semantics, the window ring's growth) and availability tracking.
 */

#include <gtest/gtest.h>

#include "core/context.hh"
#include "core/issue_policy.hh"
#include "test_util.hh"

namespace mtsim {
namespace {

using test::VectorSource;
using test::mkOp;

std::vector<MicroOp>
aluOps(int n)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < n; ++i)
        ops.push_back(mkOp(Op::IntAlu, static_cast<RegId>(8 + i)));
    return ops;
}

TEST(ThreadContext, FetchAssignsMonotonicSeq)
{
    VectorSource src(aluOps(3));
    ThreadContext ctx(0);
    ctx.loadThread(&src, 1);
    MicroOp op;
    for (SeqNum s = 0; s < 3; ++s) {
        ASSERT_TRUE(ctx.peek(op));
        EXPECT_EQ(op.seq, s);
        ctx.consume();
    }
    EXPECT_FALSE(ctx.peek(op));
    EXPECT_TRUE(ctx.finished());
}

TEST(ThreadContext, PeekIsIdempotent)
{
    VectorSource src(aluOps(2));
    ThreadContext ctx(0);
    ctx.loadThread(&src, 1);
    MicroOp a, b;
    ctx.peek(a);
    ctx.peek(b);
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(src.consumed(), 1u);   // fetched once
}

TEST(ThreadContext, RollbackReplaysIdenticalOps)
{
    VectorSource src(aluOps(5));
    ThreadContext ctx(0);
    ctx.loadThread(&src, 1);
    MicroOp op;
    std::vector<RegId> first;
    for (int i = 0; i < 4; ++i) {
        ctx.peek(op);
        first.push_back(op.dst);
        ctx.consume();
    }
    ctx.rollbackTo(1);
    for (int i = 1; i < 4; ++i) {
        ASSERT_TRUE(ctx.peek(op));
        EXPECT_EQ(op.seq, static_cast<SeqNum>(i));
        EXPECT_EQ(op.dst, first[static_cast<std::size_t>(i)]);
        ctx.consume();
    }
}

TEST(ThreadContext, RetireReleasesWindow)
{
    VectorSource src(aluOps(10));
    ThreadContext ctx(0);
    ctx.loadThread(&src, 1);
    MicroOp op;
    for (int i = 0; i < 6; ++i) {
        ctx.peek(op);
        ctx.consume();
    }
    EXPECT_EQ(ctx.windowSize(), 6u);
    ctx.retireUpTo(3);
    EXPECT_EQ(ctx.windowSize(), 2u);
    EXPECT_EQ(ctx.nextIssueSeq(), 6u);
}

TEST(ThreadContext, RetireNeverReleasesUnissued)
{
    VectorSource src(aluOps(4));
    ThreadContext ctx(0);
    ctx.loadThread(&src, 1);
    MicroOp op;
    ctx.peek(op);   // fetched but NOT consumed
    ctx.retireUpTo(0);
    EXPECT_EQ(ctx.windowSize(), 1u);
    EXPECT_EQ(ctx.nextIssueSeq(), 0u);
}

TEST(ThreadContext, AvailabilityAndWaitKind)
{
    VectorSource src(aluOps(2));
    ThreadContext ctx(0);
    EXPECT_FALSE(ctx.available(0));   // not loaded
    ctx.loadThread(&src, 1);
    EXPECT_TRUE(ctx.available(0));
    ctx.makeUnavailable(50, WaitKind::Memory);
    EXPECT_FALSE(ctx.available(49));
    EXPECT_TRUE(ctx.available(50));
    EXPECT_EQ(ctx.waitKind(), WaitKind::Memory);
}

TEST(ThreadContext, ReloadResetsState)
{
    VectorSource a(aluOps(2)), b(aluOps(2));
    ThreadContext ctx(0);
    ctx.loadThread(&a, 1);
    MicroOp op;
    ctx.peek(op);
    ctx.consume();
    ctx.makeUnavailable(1000, WaitKind::Sync);
    ctx.loadThread(&b, 2);
    EXPECT_TRUE(ctx.available(0));
    EXPECT_EQ(ctx.appId(), 2u);
    ASSERT_TRUE(ctx.peek(op));
    // Sequence numbers stay monotonic across reloads.
    EXPECT_GE(op.seq, 1u);
}

/** @p n ops whose addr field names their index in the stream. */
std::vector<MicroOp>
numberedOps(std::size_t n, Addr base)
{
    std::vector<MicroOp> ops;
    for (std::size_t i = 0; i < n; ++i) {
        MicroOp op = mkOp(Op::IntAlu, static_cast<RegId>(8 + i % 24));
        op.addr = base + i;
        ops.push_back(op);
    }
    return ops;
}

/** Peek and consume one op, checking it is stream op @p i. */
void
expectNext(ThreadContext &ctx, SeqNum seq, Addr addr)
{
    MicroOp op;
    ASSERT_TRUE(ctx.peek(op));
    EXPECT_EQ(op.seq, seq);
    EXPECT_EQ(op.addr, addr);
    ctx.consume();
}

TEST(ThreadContext, WindowGrowsKeepingRollbackTarget)
{
    constexpr std::size_t cap = ThreadContext::kInitialWindow;
    VectorSource src(numberedOps(4 * cap, 1000));
    ThreadContext ctx(0);
    ctx.loadThread(&src, 1);
    // Fill the first ring, release its older half, and refill past
    // the end, so the window wraps inside the first ring.
    for (SeqNum s = 0; s < cap; ++s)
        expectNext(ctx, s, 1000 + s);
    ctx.retireUpTo(cap / 2 - 1);
    for (SeqNum s = cap; s < cap + cap / 2; ++s)
        expectNext(ctx, s, 1000 + s);
    ASSERT_EQ(ctx.windowSize(), cap);
    // The rollback target sits in the wrapped first ring; the next
    // fetches outgrow it twice over.
    const SeqNum target = cap / 2 + 3;
    for (SeqNum s = cap + cap / 2; s < 3 * cap; ++s)
        expectNext(ctx, s, 1000 + s);
    EXPECT_EQ(ctx.windowSize(), 3 * cap - cap / 2);
    ctx.rollbackTo(target);
    EXPECT_EQ(ctx.nextIssueSeq(), target);
    for (SeqNum s = target; s < 4 * cap; ++s)
        expectNext(ctx, s, 1000 + s);
    MicroOp op;
    EXPECT_FALSE(ctx.peek(op));
    EXPECT_TRUE(ctx.finished());
}

TEST(ThreadContext, ReloadAfterGrowthStartsAnEmptyWindow)
{
    constexpr std::size_t cap = ThreadContext::kInitialWindow;
    VectorSource a(numberedOps(3 * cap, 1000));
    VectorSource b(numberedOps(3 * cap, 5000));
    ThreadContext ctx(0);
    ctx.loadThread(&a, 1);
    for (SeqNum s = 0; s < 2 * cap + 5; ++s)
        expectNext(ctx, s, 1000 + s);
    ctx.loadThread(&b, 2);
    EXPECT_EQ(ctx.windowSize(), 0u);
    EXPECT_EQ(ctx.nextIssueSeq(), 2 * cap + 5);
    // Thread b fills the grown ring from a wrapped starting slot and
    // replays from its first op.
    const SeqNum first = 2 * cap + 5;
    for (SeqNum k = 0; k < 3 * cap; ++k)
        expectNext(ctx, first + k, 5000 + k);
    ctx.rollbackTo(first);
    for (SeqNum k = 0; k < 3 * cap; ++k)
        expectNext(ctx, first + k, 5000 + k);
    MicroOp op;
    EXPECT_FALSE(ctx.peek(op));
    EXPECT_TRUE(ctx.finished());
}

// ---- issue policy helpers ------------------------------------------------

TEST(IssuePolicy, RingScanSkipsUnavailable)
{
    std::vector<ThreadContext> ctxs;
    std::vector<std::unique_ptr<VectorSource>> srcs;
    for (int i = 0; i < 4; ++i) {
        ctxs.emplace_back(static_cast<CtxId>(i));
        srcs.push_back(std::make_unique<VectorSource>(aluOps(2)));
        ctxs.back().loadThread(srcs.back().get(), i);
    }
    ctxs[1].makeUnavailable(100, WaitKind::Memory);
    EXPECT_EQ(nextAvailableRing(ctxs, 0, 10), 2);
    EXPECT_EQ(nextAvailableRing(ctxs, 3, 10), 0);
    EXPECT_EQ(nextAvailableRing(ctxs, 0, 100), 1);

    EXPECT_EQ(availableCount(ctxs, 10), 3);
    EXPECT_TRUE(otherThreadExists(ctxs, 0));
    // Minimum availability time across loaded contexts: ctx0 (0).
    EXPECT_EQ(soonestAvailable(ctxs), 0);
    // Once only ctx1 is pending, it is the gating context.
    for (int i : {0, 2, 3})
        ctxs[static_cast<std::size_t>(i)].makeUnavailable(
            200, WaitKind::Memory);
    EXPECT_EQ(soonestAvailable(ctxs), 1);
}

TEST(IssuePolicy, NoAvailableReturnsMinusOne)
{
    std::vector<ThreadContext> ctxs;
    ctxs.emplace_back(0);
    ctxs.emplace_back(1);
    EXPECT_EQ(nextAvailableRing(ctxs, 0, 5), -1);
    EXPECT_FALSE(otherThreadExists(ctxs, 0));
    EXPECT_EQ(soonestAvailable(ctxs), -1);
}

} // namespace
} // namespace mtsim
