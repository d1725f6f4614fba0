/**
 * @file
 * The multiple-context processor core (Sections 2-3). One Processor
 * models the seven-stage integer / nine-stage floating-point pipeline
 * of Figure 5 with full forwarding, a register/functional-unit
 * scoreboard, a 2048-entry BTB, and one of four context-multiplexing
 * schemes:
 *
 *  - Single:      the baseline single-context processor;
 *  - Blocked:     run one context until a primary-cache miss, detected
 *                 at WB, flushes the pipeline (7-cycle switch; 3-cycle
 *                 explicit switch for long instruction latencies);
 *  - Interleaved: the paper's proposal - strict round-robin issue
 *                 among available contexts, selective squash of only
 *                 the missing context's in-flight instructions, and a
 *                 1-cycle backoff for long instruction latencies;
 *  - FineGrained: a HEP-style baseline - no caches credited, one
 *                 instruction per context in the pipeline.
 *
 * Every cycle is attributed to exactly one CycleClass; the invariant
 * "sum of the breakdown == elapsed cycles" is enforced by tests.
 */

#ifndef MTSIM_CORE_PROCESSOR_HH
#define MTSIM_CORE_PROCESSOR_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/context.hh"
#include "isa/latency.hh"
#include "mem/mem_request.hh"
#include "obs/probe.hh"
#include "pipeline/btb.hh"
#include "sync/sync_manager.hh"

namespace mtsim {

class Processor
{
  public:
    /**
     * @param cfg scheme, context count and machine parameters
     * @param mem the memory hierarchy this processor fetches from
     * @param id processor index (multiprocessor node id)
     * @param sync synchronization manager (nullptr on a workstation)
     * @param sync_threads barrier population (MP thread count)
     */
    Processor(const Config &cfg, MemSystem &mem, ProcId id = 0,
              SyncManager *sync = nullptr,
              std::uint32_t sync_threads = 1);

    /** Simulate one processor cycle. */
    void tick(Cycle now);

    // ---- event-driven fast-forward ---------------------------------
    /**
     * A provable stall window [now, until): every cycle in it would
     * tick as a pure stall, attributing issueWidth slots of `cls`.
     * The only other state those ticks change is the retirement of
     * in-flight ops coming due, which settleSleep replays, and the
     * one-time cursor rotation sleepOn replays. Retirement changes no
     * issue decision inside the window: the sync fence, the one
     * decision it can change, caps the window where it lifts.
     */
    struct FastForwardPlan
    {
        Cycle until = 0;  ///< exclusive end of the skippable window
        CycleClass cls = CycleClass::DataStall;
        /** False for the end-of-run tail (nothing loaded and
         *  unfinished): those cycles attribute no slots at all. */
        bool attribute = true;
        /** True when the window's first cycle would run tickSlot and
         *  its owner-selection cursor rotation must be replayed. */
        bool needOwnerCommit = false;
    };

    /**
     * Try to plan a fast-forward window starting at @p now, capped at
     * @p limit (exclusive). Returns true and fills @p out when every
     * cycle in [now, out.until) provably ticks as a pure stall with
     * constant attribution. Declines (returns false) whenever any
     * skipped cycle could mutate state other than by retiring: an
     * instruction could issue, a fetch or miss event falls inside the
     * window, a switch hint would fire, or the stall classification
     * could change mid-window.
     *
     * Mutates nothing except via ThreadContext::peek, whose fetch
     * buffering is transparent: the skipped lockstep cycles would
     * have performed the identical peek.
     */
    bool planFastForward(Cycle now, Cycle limit,
                         FastForwardPlan &out);

    /**
     * Sleep through [now, plan.until) on a granted plan. Replays the
     * owner-selection cursor rotation the first slept cycle's
     * tickSlot would have performed (idempotent for the remaining
     * cycles because exactly one context is available, or none).
     * settleSleep accounts for the slept cycles.
     */
    void sleepOn(Cycle now, const FastForwardPlan &plan);

    // ---- node sleep (UniSystem and MpSystem run loops) --------------
    /**
     * This node's turn in cycle @p now, after memory (and on the
     * workstation the OS scheduler) ticked @p now and nodes
     * 0..id()-1 took their turns. The run loops skip a node while it
     * sleeps, so a turn first settles the sleep that just ended. No
     * sleep reaches past @p limit.
     *  - Armed, with no issue and no short-stall hint last tick, it
     *    plans a sleep through [now, until). A declined plan disarms
     *    it until a tick changes planner-visible state
     *    (stateChangedLastTick) or the system calls rearm().
     *  - Otherwise it ticks. A RAW-stall batch that tick recorded
     *    becomes a sleep from now + 1, and disarms the node: the batch
     *    usually ends at the stalled op's issue cycle, where a plan
     *    attempt is doomed.
     * Results are bit-identical to tick(now) every cycle. Only the
     * plan attempt is out of line.
     */
    void
    turn(Cycle now, Cycle limit)
    {
        assert(!asleep(now));
        settleSleep(now);
        if (armed_ && !issuedLastTick_ && !shortStallHint_ &&
            planSleep(now, limit))
            return;
        tick(now);
        if (stateChangedLastTick_)
            armed_ = true;
        if (batch_.until != 0) {
            const Cycle until = std::min(batch_.until, limit);
            if (until > now + 1) {
                sleepOn(now + 1, {until, batch_.cls});
                batchedCycles_ += until - (now + 1);
                armed_ = false;
            }
        }
    }

    /**
     * Account for the slept cycles before @p through: run
     * retireDue(t) once for each cycle t in which an in-flight op
     * comes due, in cycle order, exactly as the skipped ticks would
     * have, then attribute the cycles as the sleep's plan says. A
     * no-op while nothing is owed (at @p through == the first owed
     * cycle it only ends a sleep a wake cut short, such as a batch
     * woken before it began). @p through must not pass the node's
     * next turn. Called at that turn, and by whoever reads
     * the node's state before it: the stats clear, the workstation's
     * OS scheduler, the end of a run, and every cycle's end (and
     * clock jump) while a cycle-exact observer is attached.
     */
    void
    settleSleep(Cycle through)
    {
        if (through >= sleepFrom_)
            replaySleep(through);
    }

    /** Let the next turn plan again (the workstation calls this when
     *  its OS scheduler acts). */
    void rearm() { armed_ = true; }

    bool asleep(Cycle now) const { return sleep_.until > now; }
    const FastForwardPlan &sleepPlan() const { return sleep_; }

    /** Cycles this node slept instead of ticking, jumps included
     *  (exact after a settle). */
    Cycle sleptCycles() const { return sleptCycles_; }

    /** Cycles of the RAW-stall batches this node slept through. */
    Cycle batchedCycles() const { return batchedCycles_; }

    /** True if the last tick() issued at least one instruction (the
     *  fast-forward planner is only worth consulting when idle). */
    bool issuedLastTick() const { return issuedLastTick_; }

    /**
     * True if the last tick() changed planner-visible state: issued,
     * retired, processed a miss event, or sat in a stall-timer
     * window. A declined fast-forward plan stays declined until this
     * fires again, so turn() re-arms only after such a tick (purely
     * a scheduling heuristic - never affects results).
     */
    bool stateChangedLastTick() const { return stateChangedLastTick_; }

    /**
     * True if the last tick() hit a register/FU hazard that resolves
     * within two cycles: the planner's window cap would land at or
     * before now+1 next cycle, so a plan attempt is provably doomed.
     * Skipping it is a pure scheduling heuristic (an attempt that is
     * not made changes nothing).
     */
    bool shortStallHint() const { return shortStallHint_; }

    ThreadContext &context(CtxId c) { return ctxs_[c]; }
    const ThreadContext &context(CtxId c) const { return ctxs_[c]; }
    std::uint8_t numContexts() const
    {
        return static_cast<std::uint8_t>(ctxs_.size());
    }

    ProcId id() const { return id_; }
    Btb &btb() { return btb_; }

    const CycleBreakdown &breakdown() const { return bd_; }

    /** Total instructions retired (useful work). */
    std::uint64_t retired() const { return retiredTotal_; }

    /** Instructions retired on behalf of application @p app_id. */
    std::uint64_t retiredForApp(std::uint32_t app_id) const;

    /** All loaded contexts have finished their threads. */
    bool allFinished() const;

    /** True when every issued instruction has retired. Reads
     *  inflight_, so it is exact only after a settle (settleSleep):
     *  a sleeping node retires what came due inside its sleep when
     *  it settles. */
    bool drained() const { return inflight_.empty(); }

    /** Squash events observed (for Table 4 style microtests). */
    std::uint64_t squashedSlots() const { return squashedSlots_; }
    std::uint64_t switchEvents() const { return switchEvents_; }

    /** Prefetches dropped because the MSHR file was full. */
    std::uint64_t prefetchesDropped() const { return prefetchDropped_; }

    /**
     * Zero the statistics (end of warm-up). @p now marks the start
     * of the new measurement epoch: run-length samples, retire
     * release pacing and squash reclassification are all rebased so
     * none of them spans the warmup boundary.
     */
    void clearStats(Cycle now = 0);

    /**
     * Operating-system context swap: drop context @p c's pipeline
     * contents and bind it to @p src (nullptr unloads the slot). The
     * scheduler's cache interference is modelled separately.
     * @p now timestamps the swap's probe events.
     */
    void osSwap(CtxId c, InstrSource *src, std::uint32_t app_id,
                Cycle now = 0);

    /** Make @p c the next context to issue (OS / test control). */
    void
    setCurrentContext(CtxId c)
    {
        current_ = c;
        rrLast_ = (c + numContexts() - 1) % numContexts();
        blockedNeedsNewCurrent_ = false;
    }

    /** Current scheme (handy for harness code). */
    Scheme scheme() const { return cfg_.scheme; }

    // ---- host-parallel wake routing --------------------------------
    /**
     * Routes sync-manager wakes in the sharded relaxed run loop:
     * a wake for a context this host thread owns is applied inline;
     * one for another shard's context is posted to that shard's wake
     * mailbox and applied when the owner drains it (par/mailbox.hh).
     */
    class WakeRouter
    {
      public:
        virtual ~WakeRouter() = default;
        virtual void routeWake(ProcId p, CtxId c,
                               Cycle resume_at) = 0;
    };

    /** Divert sync wakes through @p r (nullptr = apply inline). */
    void setWakeRouter(WakeRouter *r) { wakeRouter_ = r; }

    /**
     * Apply a (possibly routed) sync wake to context @p c. This is
     * the only write another node makes into this pipeline, and no
     * sleep plan foresees it, so it ends any sleep at once: the node
     * takes its turn in this cycle if it has not taken it yet, else
     * in the next, and settles then.
     */
    void
    applyWake(CtxId c, Cycle resume_at)
    {
        ctxs_[c].makeUnavailable(resume_at, WaitKind::Sync);
        sleep_.until = 0;
    }

    // ---- observability ---------------------------------------------
    /**
     * Attach the probe bus this processor reports issue, squash,
     * switch and barrier-arrival events to (nullptr = off). The
     * system owns the bus; sinks (PipeTrace, the Chrome trace
     * writer) subscribe to it.
     */
    void setProbeBus(ProbeBus *bus) { probes_ = bus; }
    ProbeBus *probeBus() const { return probes_; }

    /** Cycles run between consecutive context-switch events. */
    const Histogram &runLengthHistogram() const { return runLen_; }

    // ---- checker-validation hooks ----------------------------------
    /**
     * Re-introduce the pre-fix osSwap scoreboard leak: dropped
     * in-flight destinations keep their ready times and the outgoing
     * thread's scoreboard survives into the incoming thread. Only for
     * tests proving the invariant checker catches the bug
     * (docs/CHECKING.md); never set in real runs.
     */
    void testForceOsSwapLeak(bool on) { testOsSwapLeak_ = on; }

  private:
    struct InFlight
    {
        SeqNum seq;
        Cycle retireAt;
        RegId dst;
        CtxId ctx;
        std::uint32_t appId;
        Cycle issuedAt;
    };

    struct MissEvent
    {
        CtxId ctx;
        SeqNum seq;
        Cycle detectAt;
        Cycle dataReady;
    };

    void processMissEvents(Cycle now);
    void retireDue(Cycle now);
    /** Count one retirement of @p f (retireDue's per-entry work). */
    void retireOne(const InFlight &f);
    /** Owner selection + issue for one of the cycle's slots. */
    void tickSlot(Cycle now);
    void releaseRetired();
    int selectOwner(Cycle now);
    /**
     * selectOwner's result at @p now without its cursor writes (used
     * by the fast-forward planner, which must not mutate on decline).
     */
    int constSelectOwner(Cycle now) const;
    /**
     * Attempt to issue from context @p c. When @p attribute_stall is
     * false a hazard bubble is reported by returning false with no
     * cycle attributed (used by the skip-blocked issue variant);
     * processor-level stalls (I-miss) always consume the cycle.
     * @return true if the cycle was consumed.
     */
    bool issueFrom(int c, Cycle now, bool attribute_stall);
    void attributeIdle(Cycle now);

    /**
     * Squash every in-flight instruction of context @p c with
     * seq >= @p from_seq, roll the context back, and reclassify the
     * squashed busy slots as switch overhead.
     * @return number of squashed slots.
     */
    std::uint32_t squashFrom(CtxId c, SeqNum from_seq, Cycle now);

    /** Record one switch event: probe + run-length histogram. */
    void noteSwitch(CtxId c, Cycle now, SwitchReason reason,
                    Cycle latency = 0);

    /** Blocked scheme: flush and move to the next available context. */
    void blockedSwitch(Cycle now, Cycle flush_until);

    /**
     * Stall classification for a register/FU hazard. @p reg_ready is
     * the scoreboard ready cycle the caller already computed (before
     * applying the functional-unit constraint).
     */
    CycleClass classifyHazard(const ThreadContext &ctx,
                              const MicroOp &op, Cycle fu_free,
                              Cycle reg_ready, Cycle now) const;

    /**
     * Try to record a RAW-stall batch (batch_) from issueFrom's
     * hazard-stall path. @p why is the classification the caller
     * attributed for this tick; the capAt breakpoints keep it valid
     * for the whole window. Caps the window at every event that could
     * make a skipped cycle differ from this one: a miss detection
     * coming due, another context waking under interleaving (under
     * single and blocked the resident context keeps the slot), or a
     * classification breakpoint (FU-free / register-ready crossing).
     */
    void noteStallBatch(int c, const MicroOp &op, Cycle fu_free,
                        CycleClass why, Cycle startable, Cycle now);

    /** turn()'s plan attempt: sleep on a granted planFastForward
     *  window and return true, or disarm on a declined one. */
    bool planSleep(Cycle now, Cycle limit);

    /** settleSleep's replay and attribution of [sleepFrom_,
     *  @p through). */
    void replaySleep(Cycle through);

    SyncManager::WakeFn wakeFn(CtxId c);

    Config cfg_;
    MemSystem &mem_;
    ProcId id_;
    SyncManager *sync_;
    std::uint32_t syncThreads_;

    /**
     * Hot per-context state and scoreboard storage, owned here as
     * contiguous arrays (SoA) so the per-cycle ring scans and hazard
     * checks stay on a handful of cache lines; the ThreadContext
     * objects write through pointers into these blocks. Declared
     * before ctxs_ so the contexts can bind to them at construction.
     */
    ContextHotState hot_;
    std::vector<Scoreboard> sbs_;
    std::vector<ThreadContext> ctxs_;
    Btb btb_;
    std::vector<InFlight> inflight_;
    std::vector<MissEvent> missEvents_;
    /**
     * Conservative (never stale-high) minima over inflight_.retireAt
     * and missEvents_.detectAt, so the per-cycle retire and
     * miss-detect scans short-circuit while nothing is due. Removals
     * (squash, osSwap) may leave them stale-low, which only costs an
     * extra scan.
     */
    Cycle nextRetireAt_ = kCycleNever;
    Cycle nextMissDetectAt_ = kCycleNever;
    std::array<Cycle, static_cast<std::size_t>(FuKind::NumFus)>
        fuBusy_{};

    int current_ = 0;   ///< blocked scheme's resident context
    int rrLast_ = 0;    ///< interleaved round-robin cursor
    int rrLastOther_ = 0; ///< cursor over non-priority contexts
    /** A blocked switch fired but no context was available yet. */
    bool blockedNeedsNewCurrent_ = false;

    Cycle flushUntil_ = 0;      ///< switch-overhead dead cycles
    Cycle fetchStallUntil_ = 0; ///< blocking I-cache / ITLB stall
    Cycle dataTlbStallUntil_ = 0;

    // Per-cycle structural state for dual issue (reset every tick).
    bool memPortUsed_ = false;
    bool branchUsed_ = false;
    /** probes_ && probes_->enabled(), latched once per tick so the
     *  slot loop's emit sites skip the double indirection. */
    bool probeOn_ = false;
    /** Set by issueFrom when an instruction is consumed; cleared at
     *  tick() start. Starts true so the first cycle always ticks. */
    bool issuedLastTick_ = true;
    bool stateChangedLastTick_ = true;
    /** Last tick stalled on a hazard resolving within two cycles. */
    bool shortStallHint_ = false;

    /**
     * RAW-stall batch the last tick() recorded (until 0: none). When
     * that tick's only obstacle was a short register/FU ready time
     * (single issue, no other context that could take the slot, no
     * miss event due inside the window, switch hint off, constant
     * stall classification), every cycle in [tick + 1, until) would
     * re-run the same owner selection and hazard check, attribute one
     * slot of `cls`, emit no probe event and mutate nothing but
     * retirements, so turn() sleeps through them.
     */
    struct StallBatch
    {
        Cycle until = 0;
        CycleClass cls = CycleClass::ShortInstr;
    };
    StallBatch batch_;
    /** Current sleep (see turn()); over once until <= now. */
    FastForwardPlan sleep_;
    /** First slept cycle not yet settled (kCycleNever: none). */
    Cycle sleepFrom_ = kCycleNever;
    /** Plan at the next awake turn (see turn()). */
    bool armed_ = true;
    Cycle sleptCycles_ = 0;
    Cycle batchedCycles_ = 0;

    CycleBreakdown bd_;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> appRetired_;
    std::uint64_t retiredTotal_ = 0;
    std::uint64_t squashedSlots_ = 0;
    std::uint64_t switchEvents_ = 0;
    std::uint64_t prefetchDropped_ = 0;
    Cycle lastRelease_ = 0;
    /** Cycle of the last clearStats(); squashed slots issued before
     *  it carry no Busy cycle in bd_ and are not reclassified. */
    Cycle statsEpoch_ = 0;

    ProbeBus *probes_ = nullptr;
    WakeRouter *wakeRouter_ = nullptr;
    Histogram runLen_;          ///< cycles between switch events
    Cycle lastSwitchAt_ = 0;

    bool testOsSwapLeak_ = false;
};

} // namespace mtsim

#endif // MTSIM_CORE_PROCESSOR_HH
