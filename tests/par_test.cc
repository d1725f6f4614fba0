/**
 * @file
 * Host-parallel run-loop tests (docs/ARCHITECTURE.md section 10):
 * the relaxed tier's completion invariant and configuration bounds,
 * plus the order-invariance contracts of the barrier-delivery
 * primitives: the merged probe stream and the coherence mailbox must
 * not depend on which worker thread arrived first.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/config.hh"
#include "obs/probe.hh"
#include "par/mailbox.hh"
#include "par/probe_merge.hh"
#include "splash/splash_suite.hh"
#include "system/mp_system.hh"

namespace mtsim {
namespace {

// ---- relaxed tier -------------------------------------------------

TEST(ParRelaxed, RetiredInvariantAtCompletion)
{
    // Run to completion: every thread retires its whole program, so
    // the total retired count is schedule-invariant even though the
    // relaxed interleaving (and thus the cycle count) is not.
    const Config cfg = Config::makeMp(Scheme::Interleaved, 1, 8);
    const ParallelAppFn app = splashApp("water");

    MpSystem seq(cfg);
    seq.loadApp(app);
    seq.run();
    ASSERT_TRUE(seq.finished());

    MpSystem par(cfg);
    par.setHostParallel(2, 64);
    par.loadApp(app);
    par.run();
    ASSERT_TRUE(par.finished());

    EXPECT_EQ(seq.retired(), par.retired());
}

TEST(ParRelaxed, RejectsInvalidHostParallelConfig)
{
    // Quantum 1 is the sequential loop; several host threads there
    // (and zero of either) are configuration errors, not a tier.
    MpSystem sys(Config::makeMp(Scheme::Interleaved, 1, 8));
    EXPECT_THROW(sys.setHostParallel(2, 1), std::invalid_argument);
    EXPECT_THROW(sys.setHostParallel(0, 64), std::invalid_argument);
    EXPECT_THROW(sys.setHostParallel(2, 0), std::invalid_argument);
    EXPECT_NO_THROW(sys.setHostParallel(1, 1));
    EXPECT_NO_THROW(sys.setHostParallel(1, 64));
    EXPECT_NO_THROW(sys.setHostParallel(2, 64));
}

TEST(ParRelaxed, RejectsCycleExactObservers)
{
    const Config cfg = Config::makeMp(Scheme::Interleaved, 1, 8);
    MpSystem sys(cfg);
    sys.setHostParallel(2, 16);
    sys.loadApp(splashApp("water"));
    sys.enableChecking();
    EXPECT_THROW(sys.run(10000), std::logic_error);
}

// ---- barrier-delivery primitives ----------------------------------

using EvKey = std::tuple<std::uint8_t, Cycle, ProcId, CtxId, SeqNum,
                         Addr, Cycle, std::uint32_t, RegId>;

EvKey
keyOf(const ProbeEvent &e)
{
    return {static_cast<std::uint8_t>(e.kind), e.cycle, e.proc,
            e.ctx,  e.seq,   e.addr, e.latency, e.arg, e.reg};
}

struct RecordingSink final : ProbeSink
{
    std::vector<ProbeEvent> evs;
    void onEvent(const ProbeEvent &ev) override { evs.push_back(ev); }
};

/** The fixed per-shard event program: shard s owns nodes {2s, 2s+1}
 *  and emits events out of cycle order (DMissEnd-style). */
ProbeEvent
ev(ProcId proc, Cycle cycle, SeqNum seq)
{
    ProbeEvent e;
    e.kind = ProbeKind::ContextIssue;
    e.proc = proc;
    e.cycle = cycle;
    e.seq = seq;
    e.addr = 0x1000 + seq;
    return e;
}

TEST(ParMerge, ProbeStreamInvariantUnderWorkerArrivalOrder)
{
    // Each worker appends its own events, in its own order, into its
    // own shard-indexed buffer. Whatever global interleaving the
    // host scheduler picks, the buffers end up identical - replay
    // three representative interleavings and demand one output.
    const std::vector<std::vector<ProbeEvent>> program = {
        {ev(0, 5, 1), ev(1, 5, 2), ev(0, 7, 3), ev(0, 6, 4)},
        {ev(2, 5, 5), ev(3, 4, 6), ev(2, 9, 7)},
        {ev(4, 5, 8), ev(5, 5, 9), ev(4, 4, 10)},
    };
    // (worker, step) emission schedules: in shard order, reversed,
    // and round-robin.
    const std::vector<std::vector<std::size_t>> arrivals = {
        {0, 0, 0, 0, 1, 1, 1, 2, 2, 2},
        {2, 2, 2, 1, 1, 1, 0, 0, 0, 0},
        {0, 1, 2, 0, 1, 2, 0, 1, 2, 0},
    };
    std::vector<std::vector<ProbeEvent>> merged;
    for (const auto &order : arrivals) {
        std::vector<std::vector<ProbeEvent>> bufs(program.size());
        std::vector<std::size_t> cursor(program.size(), 0);
        for (std::size_t w : order)
            bufs[w].push_back(program[w][cursor[w]++]);
        for (std::size_t w = 0; w < program.size(); ++w)
            ASSERT_EQ(cursor[w], program[w].size());

        ProbeBus bus;
        RecordingSink sink;
        bus.addSink(&sink);
        std::vector<ProbeEvent> scratch;
        par::mergeShardProbes(bufs, bus, scratch);
        for (const auto &b : bufs)
            EXPECT_TRUE(b.empty());
        merged.push_back(sink.evs);
    }
    ASSERT_EQ(merged.size(), arrivals.size());
    for (std::size_t i = 1; i < merged.size(); ++i) {
        ASSERT_EQ(merged[0].size(), merged[i].size());
        for (std::size_t k = 0; k < merged[0].size(); ++k)
            EXPECT_EQ(keyOf(merged[0][k]), keyOf(merged[i][k]))
                << "arrival order " << i << " diverges at event "
                << k;
    }
    // And the canonical order itself: nondecreasing (cycle, proc),
    // per-shard program order preserved within ties.
    for (std::size_t k = 1; k < merged[0].size(); ++k) {
        const ProbeEvent &a = merged[0][k - 1];
        const ProbeEvent &b = merged[0][k];
        EXPECT_TRUE(a.cycle < b.cycle ||
                    (a.cycle == b.cycle && a.proc <= b.proc));
    }
}

TEST(ParMerge, CohMailboxCanonicalOrder)
{
    // Per-src posting order is fixed (it is the src owner's program
    // order); the global interleaving across srcs is not. The
    // collected stream must come out in (cycle, src, seq) order
    // either way.
    auto post = [](par::CohMailboxGrid &g, ProcId src, ProcId dst,
                   Addr line, Cycle when) {
        g.post({par::CohOp::Invalidate, src, dst, line, when, 0});
    };
    par::CohMailboxGrid a(4);
    post(a, 0, 1, 0x100, 10);
    post(a, 0, 2, 0x140, 10);
    post(a, 1, 0, 0x180, 9);
    post(a, 2, 3, 0x1c0, 10);

    par::CohMailboxGrid b(4);
    post(b, 2, 3, 0x1c0, 10);
    post(b, 1, 0, 0x180, 9);
    post(b, 0, 1, 0x100, 10);
    post(b, 0, 2, 0x140, 10);

    std::vector<par::CohMsg> out_a, out_b;
    a.collectSorted(out_a);
    b.collectSorted(out_b);
    ASSERT_EQ(out_a.size(), 4u);
    ASSERT_EQ(out_b.size(), 4u);
    for (std::size_t i = 0; i < out_a.size(); ++i) {
        EXPECT_EQ(out_a[i].line, out_b[i].line);
        EXPECT_EQ(out_a[i].src, out_b[i].src);
        EXPECT_EQ(out_a[i].when, out_b[i].when);
    }
    // Canonical: the cycle-9 message first, then src 0's two posts
    // in program order, then src 2.
    EXPECT_EQ(out_a[0].line, 0x180u);
    EXPECT_EQ(out_a[1].line, 0x100u);
    EXPECT_EQ(out_a[2].line, 0x140u);
    EXPECT_EQ(out_a[3].line, 0x1c0u);
    // A second collect after new posts starts clean.
    post(a, 3, 0, 0x200, 20);
    a.collectSorted(out_a);
    ASSERT_EQ(out_a.size(), 1u);
    EXPECT_EQ(out_a[0].line, 0x200u);
}

} // namespace
} // namespace mtsim
