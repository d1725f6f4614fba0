/**
 * @file
 * Multiprocessor memory system (Section 5.2): per-node lockup-free
 * primary data caches kept coherent by a distributed directory-based
 * invalidation protocol. The network and memories are contentionless;
 * unloaded latencies are drawn uniformly from the Table 8 ranges by
 * transaction class (local home / remote home / dirty-remote cache),
 * while cache contention (fills, interventions, invalidations
 * occupying the target array) is modelled and can add to them. The
 * instruction cache is ideal in this configuration.
 */

#ifndef MTSIM_COHERENCE_MP_MEM_SYSTEM_HH
#define MTSIM_COHERENCE_MP_MEM_SYSTEM_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "cache/tlb.hh"
#include "cache/write_buffer.hh"
#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "coherence/directory.hh"
#include "mem/mem_request.hh"
#include "obs/probe.hh"
#include "par/mailbox.hh"

namespace mtsim {

class MpMemSystem : public MemSystem
{
  public:
    explicit MpMemSystem(const Config &cfg);

    void tick(Cycle now) override;

    /**
     * Earliest cycle at which tick() would do any work. tick(now)
     * with now strictly before this is a provable no-op, so the
     * per-cycle driver can skip the call. It is the event heap's top
     * alone: every MSHR allocation is paired with a fill event at its
     * completion cycle, and tick runs events before it retires MSHRs,
     * so no node's MSHR completes before the heap's top.
     */
    Cycle
    nextTickAt() const
    {
        assert(fillsCoverMshrs());
        return events_.nextEventCycle();
    }

    /** True when no node's next MSHR completion precedes the event
     *  heap's top (nextTickAt's premise; a sharded run keeps its
     *  fills in the node queues instead). */
    bool
    fillsCoverMshrs() const
    {
        if (cohMail_ != nullptr)
            return true;
        for (const auto &node : nodes_) {
            if (node->mshrs->nextDoneAt() < events_.nextEventCycle())
                return false;
        }
        return true;
    }

    LoadResult load(ProcId p, Addr a, Cycle now) override;
    StoreResult store(ProcId p, Addr a, Cycle now) override;
    FetchResult ifetch(ProcId p, Addr pc, Cycle now) override;

    Cache &l1d(ProcId p) { return *nodes_[p]->l1d; }
    Directory &directory() { return dir_; }

    /** Folds the per-node hot-path cells in before returning, so
     *  totals are identical whether or not sharding was active. */
    CounterSet &
    counters()
    {
        foldNodeCounters();
        return counters_;
    }

    /**
     * Host-parallel relaxed mode (docs/ARCHITECTURE.md section 10).
     * While a mailbox grid is installed, shared state (directory,
     * RNG, network, latency accounting) is guarded by one world
     * mutex taken only on the miss path, and coherence actions
     * against *other* nodes' caches are posted to the grid instead
     * of applied inline; the coordinator delivers them at the
     * quantum barrier through applyCohMsgs. Hit paths stay lock-free
     * because every node's cache/MSHR/write-buffer/TLB is touched
     * only by its owner thread. Pass nullptr to restore the exact
     * sequential semantics.
     */
    void setParMode(par::CohMailboxGrid *grid) { cohMail_ = grid; }

    /** Earliest cycle tickNode(p) would do any work (par mode). */
    Cycle
    nextNodeTickAt(ProcId p) const
    {
        const Node &n = *nodes_[p];
        const Cycle ev = n.events.nextEventCycle();
        return n.mshrs->nextDoneAt() < ev ? n.mshrs->nextDoneAt()
                                          : ev;
    }

    /** Per-node tick: run node @p p's events and retire its MSHRs.
     *  Owner-thread only (par mode). */
    void
    tickNode(ProcId p, Cycle now)
    {
        Node &n = *nodes_[p];
        n.events.runUntil(now);
        n.mshrs->retire(now);
    }

    /** Coordinator, at the quantum barrier: apply mailboxed
     *  cross-node coherence actions in canonical order. */
    void applyCohMsgs(const std::vector<par::CohMsg> &msgs);

    /** Node @p p's MSHR file / write buffer (resource auditing). */
    const MshrFile &mshrs(ProcId p) const { return *nodes_[p]->mshrs; }
    const WriteBuffer &writeBuffer(ProcId p) const
    {
        return *nodes_[p]->wbuf;
    }

    /** Observed mean reply latency per class (Table 8 check). */
    double meanLatency(MemLevel level) const;

    /** Attach the probe bus miss/directory events are reported to. */
    void setProbeBus(ProbeBus *bus) { probes_ = bus; }

    /** Data-cache miss latency (reference to reply), all classes. */
    const Histogram &dmissLatency() const { return dmissLat_; }

  private:
    /**
     * Counters bumped on a node's own hit/stall path. These live in
     * per-node cells (written only by the owner, so the lock-free
     * hot path stays race-free under sharding) and are folded into
     * counters_ on read; the remaining counters are only touched
     * under the world lock and stay on counters_ directly.
     */
    enum NodeCtr : std::size_t {
        kNcL1dHits,
        kNcL1dMisses,
        kNcMshrStalls,
        kNcWbufStalls,
        kNcL1dWriteHits,
        kNcUpgrades,
        kNcL1dWriteMisses,
        kNodeCtrCount
    };

    struct Node
    {
        std::unique_ptr<Cache> l1d;
        std::unique_ptr<MshrFile> mshrs;
        std::unique_ptr<WriteBuffer> wbuf;
        std::unique_ptr<Tlb> dtlb;
        /** Node-local event queue (fills/promotes) in par mode. */
        EventQueue events;
        std::array<std::uint64_t, kNodeCtrCount> ctr{};
    };

    /** Fold-and-zero the per-node cells into counters_. */
    void foldNodeCounters();

    /** The world lock, engaged only while sharding is active. */
    std::unique_lock<std::mutex>
    worldLock()
    {
        return cohMail_ != nullptr
                   ? std::unique_lock<std::mutex>(worldMu_)
                   : std::unique_lock<std::mutex>();
    }

    /** Sample an unloaded latency for a transaction class. */
    Cycle sample(MemLevel level);

    /**
     * Classify and time a read (shared) or read-exclusive request,
     * updating the directory and performing interventions and
     * invalidations. Returns the reply cycle.
     */
    Cycle transaction(ProcId p, Addr line, bool exclusive, Cycle now,
                      MemLevel &level_out);

    /** Invalidate every sharer except @p except; returns count. */
    std::uint32_t invalidateSharers(Addr line, ProcId except,
                                    Cycle when);

    void scheduleFill(ProcId p, Addr line, LineState st, Cycle when);

    /** Emit one coherence-protocol probe event. */
    void emitDir(DirMsg msg, ProcId p, Addr line, Cycle now,
                 Cycle latency = 0);

    /** Emit a D-miss start/end event pair for requester @p p. */
    void emitMiss(ProcId p, Addr line, Cycle from, Cycle reply,
                  MemLevel level);

    Config cfg_;
    std::vector<std::unique_ptr<Node>> nodes_;
    Directory dir_;
    Rng rng_;
    EventQueue events_;
    CounterSet counters_;

    /**
     * Pre-resolved counter handles for the load/store hot path (see
     * CounterSet::handle). Valid for the object's lifetime.
     */
    std::size_t cInvalidations_;
    std::size_t cEvictionWritebacks_;
    std::size_t cNetworkQueueCycles_;
    std::size_t cRemoteCacheFetches_;
    std::size_t cUpgradeInvalidating_;
    std::size_t cLocalFetches_;
    std::size_t cRemoteFetches_;
    std::size_t cL1dHits_;
    std::size_t cL1dMisses_;
    std::size_t cMshrStalls_;
    std::size_t cWbufStalls_;
    std::size_t cL1dWriteHits_;
    std::size_t cUpgrades_;
    std::size_t cL1dWriteMisses_;

    ProbeBus *probes_ = nullptr;
    par::CohMailboxGrid *cohMail_ = nullptr;
    std::mutex worldMu_;
    Histogram dmissLat_;
    /** Interconnect busy-until (only when networkOccupancy > 0). */
    Cycle networkFree_ = 0;

    // latency accounting per class for bench/table8
    std::array<std::uint64_t, 5> latSum_{};
    std::array<std::uint64_t, 5> latCount_{};
};

} // namespace mtsim

#endif // MTSIM_COHERENCE_MP_MEM_SYSTEM_HH
