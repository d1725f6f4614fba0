/**
 * @file
 * The relaxed host-parallel MP run loop (docs/ARCHITECTURE.md section
 * 10): shards really run concurrently inside each quantum of K > 1
 * cycles, exchanging cross-node coherence traffic and sync wakes
 * through mailboxes at (or before) quantum barriers, trading metric
 * error for speed. The error is measured, never assumed
 * (bench/par_quantum_error, tools/mtsim_diff).
 */

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "par/barrier.hh"
#include "par/mailbox.hh"
#include "par/probe_merge.hh"
#include "prof/profiler.hh"
#include "system/mp_system.hh"

namespace mtsim {

namespace {

constexpr std::uint32_t kNoShard = ~0u;

/** Which shard the calling host thread owns (coordinator: none). */
thread_local std::uint32_t tlsShardId = kNoShard;

/** Contiguous node block [lo, hi) owned by worker @p w of @p n. */
std::pair<ProcId, ProcId>
blockOf(std::uint32_t w, std::uint32_t n, ProcId procs)
{
    const std::uint32_t base = procs / n;
    const std::uint32_t rem = procs % n;
    const std::uint32_t lo = w * base + std::min(w, rem);
    const std::uint32_t hi = lo + base + (w < rem ? 1 : 0);
    return {static_cast<ProcId>(lo), static_cast<ProcId>(hi)};
}

/**
 * Routes sync wakes in relaxed mode: own-shard wakes apply inline
 * (the sync manager's mutex already serializes the caller), foreign
 * ones go to the owning shard's wake mailbox and are drained at its
 * next local cycle.
 */
class ShardRouter final : public Processor::WakeRouter
{
  public:
    ShardRouter(std::vector<Processor *> procs,
                std::vector<std::uint32_t> shard_of,
                std::vector<par::WakeMailbox> *boxes)
        : procs_(std::move(procs)), shardOf_(std::move(shard_of)),
          boxes_(boxes)
    {
    }

    void
    routeWake(ProcId p, CtxId c, Cycle resume_at) override
    {
        const std::uint32_t s = shardOf_[p];
        if (s == tlsShardId)
            procs_[p]->applyWake(c, resume_at);
        else
            (*boxes_)[s].post({p, c, resume_at});
    }

  private:
    std::vector<Processor *> procs_;
    std::vector<std::uint32_t> shardOf_;
    std::vector<par::WakeMailbox> *boxes_;
};

/**
 * Plan one skip window from @p now, capped at @p limit, over every
 * node of a shard; plans[i] receives nodes[i]'s plan. Two-phase:
 * each node plans against the window the nodes before it left (a
 * plan stays valid on any prefix of itself), and only when all of
 * them prove one does every node sleep on its plan cut to the common
 * end, which it settles like a run-loop sleep. Returns that end, or
 * 0 when a node issued last tick, hit a short stall, or declines.
 * planFastForward only grants windows of two or more cycles, so a
 * returned window always is one.
 */
Cycle
planSkipWindow(std::span<Processor *const> nodes, Cycle now,
               Cycle limit, Processor::FastForwardPlan *plans)
{
    for (const Processor *n : nodes) {
        if (n->issuedLastTick() || n->shortStallHint())
            return 0;
    }
    Cycle until = limit;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!nodes[i]->planFastForward(now, until, plans[i]))
            return 0;
        until = std::min(until, plans[i].until);
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        plans[i].until = until;
        nodes[i]->sleepOn(now, plans[i]);
    }
    return until;
}

} // namespace

void
MpSystem::setHostParallel(std::uint32_t host_threads, Cycle quantum)
{
    if (host_threads == 0 || quantum == 0)
        throw std::invalid_argument(
            "setHostParallel: host threads and quantum must be >= 1");
    if (host_threads > 1 && quantum == 1)
        throw std::invalid_argument(
            "setHostParallel: more than one host thread needs a "
            "quantum > 1 (quantum 1 is the sequential loop)");
    hostThreads_ = host_threads;
    quantum_ = quantum;
}

/**
 * Relaxed tier: shards advance concurrently through each quantum.
 * Node-local state (pipeline, L1, MSHRs, write buffer, TLB, node
 * event queue) is touched only by its owner; shared state (directory,
 * RNG, network, sync manager) is mutex-guarded on the miss path;
 * cross-node cache effects and probe events are delivered in
 * canonical order at the quantum barrier. Each shard fast-forwards
 * locally when all of its own contexts are provably stalled, capped
 * at the quantum end - the speed tier's main lever.
 */
Cycle
MpSystem::runRelaxedParallel(Cycle end)
{
    if (obs_.cycleExact()) {
        throw std::logic_error(
            "relaxed host-parallel mode (quantum > 1) cannot "
            "preserve cycle-exact observation; drop "
            "--check/--why/--sample-interval or run the sequential "
            "loop (host threads 1, quantum 1)");
    }
    const ProcId P = cfg_.numProcessors;
    const std::uint32_t W =
        std::min<std::uint32_t>(hostThreads_, P);

    std::vector<std::uint32_t> shardOf(P);
    std::vector<std::pair<ProcId, ProcId>> blocks(W);
    for (std::uint32_t w = 0; w < W; ++w) {
        blocks[w] = blockOf(w, W, P);
        for (ProcId p = blocks[w].first; p < blocks[w].second; ++p)
            shardOf[p] = w;
    }

    par::CohMailboxGrid mail(P);
    std::vector<par::WakeMailbox> wakeBoxes(W);
    ShardRouter router(obs_.nodes(), shardOf, &wakeBoxes);
    for (auto &p : procs_)
        p->setWakeRouter(&router);
    mem_.setParMode(&mail);
    sync_.setThreadSafe(true);

    std::vector<std::vector<ProbeEvent>> shardBufs(W);
    par::SpinBarrier bar(W + 1);
    std::atomic<bool> stop{false};
    Cycle qFrom = 0;
    Cycle qTo = 0; // published to workers through the barrier
    std::exception_ptr err;
    std::mutex errMu;

    // One shard-quantum: drain wakes each local cycle, fast-forward
    // locally when the whole shard is provably stalled, tick own
    // nodes' memory events then pipelines.
    const std::span<Processor *const> nodes = obs_.nodes();
    auto runShardQuantum = [&](std::uint32_t w, Cycle from,
                               Cycle to) {
        const auto [lo, hi] = blocks[w];
        const auto shard = nodes.subspan(lo, hi - lo);
        auto &wakeBox = wakeBoxes[w];
        std::vector<par::WakeMsg> wakes;
        std::vector<Processor::FastForwardPlan> plans(hi - lo);
        bool armed = true;
        Cycle c = from;
        while (c < to) {
            wakes.clear();
            if (wakeBox.drain(wakes)) {
                for (const par::WakeMsg &m : wakes)
                    procs_[m.proc]->applyWake(m.ctx, m.resumeAt);
                armed = true;
            }
            if (ffEnabled_ && armed) {
                MTSIM_PROF_SCOPE("fastforward");
                const Cycle until =
                    planSkipWindow(shard, c, to, plans.data());
                if (until != 0) {
                    // Node events are node-local here, so each node
                    // drains and settles its sleep on its own.
                    for (ProcId p = lo; p < hi; ++p) {
                        if (mem_.nextNodeTickAt(p) <= until - 1)
                            mem_.tickNode(p, until - 1);
                        procs_[p]->settleSleep(until);
                    }
                    c = until;
                    continue;
                }
                armed = false;
            }
            {
                MTSIM_PROF_SCOPE("mem.tick");
                for (ProcId p = lo; p < hi; ++p) {
                    if (mem_.nextNodeTickAt(p) <= c)
                        mem_.tickNode(p, c);
                }
            }
            {
                MTSIM_PROF_SCOPE("pipeline");
                for (ProcId p = lo; p < hi; ++p)
                    procs_[p]->tick(c);
            }
            for (ProcId p = lo; p < hi; ++p) {
                if (procs_[p]->stateChangedLastTick()) {
                    armed = true;
                    break;
                }
            }
            ++c;
        }
    };

    std::vector<std::thread> workers;
    workers.reserve(W);
    for (std::uint32_t w = 0; w < W; ++w) {
        workers.emplace_back([&, w] {
            tlsShardId = w;
            prof::Profiler::instance().registerWorkerThread();
            if (probes_.enabled())
                ProbeBus::setThreadBuffer(&shardBufs[w]);
            for (;;) {
                bar.arriveAndWait(); // quantum opens
                if (stop.load(std::memory_order_acquire))
                    break;
                try {
                    runShardQuantum(w, qFrom, qTo);
                } catch (...) {
                    std::lock_guard<std::mutex> g(errMu);
                    if (!err)
                        err = std::current_exception();
                }
                bar.arriveAndWait(); // quantum closes
            }
            ProbeBus::setThreadBuffer(nullptr);
            prof::Profiler::instance().unregisterWorkerThread();
            tlsShardId = kNoShard;
        });
    }

    std::vector<par::CohMsg> msgs;
    std::vector<ProbeEvent> mergeScratch;
    auto shutdown = [&] {
        stop.store(true, std::memory_order_release);
        bar.arriveAndWait();
        for (auto &t : workers)
            t.join();
        for (auto &p : procs_)
            p->setWakeRouter(nullptr);
        sync_.setThreadSafe(false);
        mem_.setParMode(nullptr);
    };

    try {
        while (now_ < end) {
            qFrom = now_;
            qTo = std::min(now_ + quantum_, end);
            bar.arriveAndWait(); // open the quantum
            bar.arriveAndWait(); // wait for every shard
            now_ = qTo;
            // Deliver cross-node coherence actions in canonical
            // (cycle, src node, seq) order, then replay the merged
            // probe streams to the real sinks.
            mail.collectSorted(msgs);
            mem_.applyCohMsgs(msgs);
            if (probes_.enabled())
                par::mergeShardProbes(shardBufs, probes_,
                                      mergeScratch);
            if (err)
                break;
            obs_.settleStatsClear(now_);
            obs_.pollProgress(now_);
            // A quantum can close with every stream consumed but
            // instructions still in flight; run on until they retire,
            // so a completed run has retired every thread's program.
            if (finished() &&
                std::all_of(procs_.begin(), procs_.end(),
                            [](const auto &p) { return p->drained(); }))
                break;
        }
    } catch (...) {
        shutdown();
        throw;
    }
    shutdown();
    if (err)
        std::rethrow_exception(err);
    measured_ = now_ - obs_.statsStart();
    return measured_;
}

} // namespace mtsim
