/**
 * @file
 * One hardware context slot: the per-context state Section 6 says a
 * multiple-context processor replicates (PC unit, register scoreboard)
 * plus the fetch/replay machinery that models the EPC restart
 * semantics — after a squash, execution resumes with the instruction
 * that caused the context to become unavailable.
 *
 * The fields the issue loop reads every cycle (availability, wait
 * kind, fetch/issue cursors) live in a ContextHotState block the
 * owning processor shares across its contexts, stored as contiguous
 * structure-of-arrays so ring scans touch a handful of cache lines
 * instead of chasing per-context objects (docs/ARCHITECTURE.md §3).
 * A standalone ThreadContext (unit tests) owns a single-slot block.
 */

#ifndef MTSIM_CORE_CONTEXT_HH
#define MTSIM_CORE_CONTEXT_HH

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "isa/micro_op.hh"
#include "pipeline/scoreboard.hh"
#include "workload/program.hh"

namespace mtsim {

/** Why a context is currently unavailable (for stall attribution). */
enum class WaitKind : std::uint8_t {
    None,
    Memory,  ///< outstanding data-cache miss
    Sync,    ///< blocked on a lock or barrier
    Backoff, ///< backoff / explicit switch on instruction latency
};

/**
 * Per-processor structure-of-arrays block of the context fields read
 * every cycle, indexed by context id. ThreadContext writes through to
 * its slot, so the arrays are the single source of truth.
 */
struct ContextHotState
{
    explicit ContextHotState(std::size_t n)
        : unavailUntil(n, 0), nextFetchAt(n, 0), lastIssueAt(n, 0),
          lastFetchSeq(n, ~SeqNum(0)), waitKind(n, WaitKind::None),
          runnable(n, 0)
    {}

    std::vector<Cycle> unavailUntil;
    std::vector<Cycle> nextFetchAt;
    std::vector<Cycle> lastIssueAt;
    std::vector<SeqNum> lastFetchSeq;
    std::vector<WaitKind> waitKind;
    /** loaded() && !finished(), maintained by ThreadContext. */
    std::vector<std::uint8_t> runnable;

    std::size_t size() const { return runnable.size(); }

    bool
    available(std::size_t slot, Cycle now) const
    {
        return runnable[slot] != 0 && unavailUntil[slot] <= now;
    }
};

class ThreadContext
{
  public:
    /**
     * @param id context index within the owning processor
     * @param hot shared hot-state block (slot @p id); when null the
     *        context allocates a private single-slot block
     * @param sb scoreboard storage inside the processor's contiguous
     *        pool; when null the context allocates its own
     */
    explicit ThreadContext(CtxId id = 0,
                           ContextHotState *hot = nullptr,
                           Scoreboard *sb = nullptr);

    /** Bind a software thread; resets all per-context state. */
    void loadThread(InstrSource *src, std::uint32_t app_id);

    /** Unbind (slot empty). */
    void unloadThread();

    bool loaded() const { return source_ != nullptr; }
    std::uint32_t appId() const { return appId_; }
    CtxId id() const { return id_; }

    /**
     * Peek the next instruction to issue without consuming it.
     * @return false if the thread has terminated and drained.
     */
    bool peek(MicroOp &op);

    /** Consume the instruction last peeked. */
    void
    consume()
    {
        assert(readSeq_ < nextSeq_);
        ++readSeq_;
        if (sourceDone_)
            updateRunnable();
    }

    /**
     * Roll fetch back so the instruction with sequence number
     * @p seq issues next (EPC restart).
     */
    void rollbackTo(SeqNum seq);

    /** Release retired instructions up to and including @p seq. */
    void retireUpTo(SeqNum seq);

    /** True once the source is exhausted and all ops consumed. */
    bool finished() const
    {
        return sourceDone_ && readSeq_ >= nextSeq_;
    }

    /** loaded() && !finished(), read from the shared hot block. */
    bool runnable() const { return hot_->runnable[slot_] != 0; }

    // ---- availability ----------------------------------------------
    bool
    available(Cycle now) const
    {
        return hot_->available(slot_, now);
    }

    void
    makeUnavailable(Cycle until, WaitKind why)
    {
        hot_->unavailUntil[slot_] = until;
        hot_->waitKind[slot_] = why;
    }

    Cycle unavailableUntil() const { return hot_->unavailUntil[slot_]; }
    WaitKind waitKind() const { return hot_->waitKind[slot_]; }

    // ---- per-context pipeline state ---------------------------------
    Scoreboard &scoreboard() { return *sb_; }
    const Scoreboard &scoreboard() const { return *sb_; }

    /** Earliest cycle this context may fetch (branch redirect). */
    Cycle nextFetchAt() const { return hot_->nextFetchAt[slot_]; }
    void setNextFetchAt(Cycle c) { hot_->nextFetchAt[slot_] = c; }

    /** Sequence number of the last instruction I-fetched. */
    SeqNum lastFetchSeq() const { return hot_->lastFetchSeq[slot_]; }
    void setLastFetchSeq(SeqNum s) { hot_->lastFetchSeq[slot_] = s; }

    /** Fine-grained scheme: cycle of this context's last issue. */
    Cycle lastIssueAt() const { return hot_->lastIssueAt[slot_]; }
    void setLastIssueAt(Cycle c) { hot_->lastIssueAt[slot_] = c; }

    std::uint64_t retired() const { return retiredCount_; }
    void noteRetired(std::uint64_t n = 1) { retiredCount_ += n; }

    /** Ops the window ring holds after the first fetch allocates it. */
    static constexpr std::size_t kInitialWindow = 64;

    /** Pending (fetched, unconsumed + in-flight) window size. */
    std::size_t
    windowSize() const
    {
        return static_cast<std::size_t>(nextSeq_ - baseSeq_);
    }

    /** Sequence number the next issued instruction will carry. */
    SeqNum nextIssueSeq() const { return readSeq_; }

    /**
     * The load whose miss made this context unavailable. On replay
     * it reads its data from the miss buffer even if the line was
     * evicted again in the meantime (forward-progress guarantee).
     */
    SeqNum missReplaySeq() const { return missReplaySeq_; }
    void setMissReplaySeq(SeqNum s) { missReplaySeq_ = s; }
    void clearMissReplaySeq() { missReplaySeq_ = ~SeqNum(0); }

  private:
    void
    updateRunnable()
    {
        hot_->runnable[slot_] =
            (source_ != nullptr && !finished()) ? 1 : 0;
    }

    /** Grow the window ring to twice its size (kInitialWindow when
     *  empty), keeping the ops in [baseSeq_, nextSeq_) at their
     *  seq's new slot. */
    void growWindow();

    CtxId id_;
    std::size_t slot_;
    ContextHotState *hot_;
    Scoreboard *sb_;
    /** Backing storage for a standalone (test) context. */
    std::unique_ptr<ContextHotState> ownHot_;
    std::unique_ptr<Scoreboard> ownSb_;

    InstrSource *source_ = nullptr;
    std::uint32_t appId_ = 0;

    /**
     * The window: ops fetched but not yet released, seqs
     * [baseSeq_, nextSeq_), op s at window_[s & windowMask_]. A
     * power-of-two ring, empty until the first fetch, that grows when
     * a fetch finds it full, so fetching allocates nothing once the
     * ring fits the deepest window the run reaches.
     */
    std::vector<MicroOp> window_;
    SeqNum windowMask_ = 0;
    SeqNum baseSeq_ = 0;        ///< oldest op not yet released
    SeqNum readSeq_ = 0;        ///< next op to issue
    SeqNum nextSeq_ = 0;        ///< next op to fetch
    bool sourceDone_ = false;

    SeqNum missReplaySeq_ = ~SeqNum(0);
    std::uint64_t retiredCount_ = 0;
};

} // namespace mtsim

#endif // MTSIM_CORE_CONTEXT_HH
