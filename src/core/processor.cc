#include "core/processor.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "core/issue_policy.hh"

namespace mtsim {

Processor::Processor(const Config &cfg, MemSystem &mem, ProcId id,
                     SyncManager *sync, std::uint32_t sync_threads)
    : cfg_(cfg), mem_(mem), id_(id), sync_(sync),
      syncThreads_(sync_threads), hot_(cfg.numContexts),
      sbs_(cfg.numContexts), btb_(cfg.btbEntries)
{
    cfg_.validate();
    ctxs_.reserve(cfg_.numContexts);
    for (CtxId c = 0; c < cfg_.numContexts; ++c)
        ctxs_.emplace_back(c, &hot_, &sbs_[c]);
    fuBusy_.fill(0);
}

std::uint64_t
Processor::retiredForApp(std::uint32_t app_id) const
{
    for (const auto &entry : appRetired_) {
        if (entry.first == app_id)
            return entry.second;
    }
    return 0;
}

bool
Processor::allFinished() const
{
    for (std::size_t c = 0; c < hot_.size(); ++c) {
        if (hot_.runnable[c] != 0)
            return false;
    }
    return true;
}

void
Processor::clearStats(Cycle now)
{
    bd_.clear();
    appRetired_.clear();
    retiredTotal_ = 0;
    squashedSlots_ = 0;
    switchEvents_ = 0;
    prefetchDropped_ = 0;
    runLen_.clear();
    // Measurement epoch boundary: run-length samples and retire
    // release pacing must not span it, and slots issued before it
    // must not be reclassified out of the fresh breakdown.
    lastSwitchAt_ = now;
    lastRelease_ = now;
    statsEpoch_ = now;
}

void
Processor::noteSwitch(CtxId c, Cycle now, SwitchReason reason,
                      Cycle latency)
{
    if (now >= lastSwitchAt_)
        runLen_.record(now - lastSwitchAt_);
    lastSwitchAt_ = now;
    if (probeOn_) {
        ProbeEvent ev;
        ev.kind = ProbeKind::ContextSwitch;
        ev.cycle = now;
        ev.proc = id_;
        ev.ctx = c;
        ev.latency = latency;
        ev.arg = static_cast<std::uint32_t>(reason);
        probes_->emit(ev);
    }
}

void
Processor::osSwap(CtxId c, InstrSource *src, std::uint32_t app_id,
                  Cycle now)
{
    // Drop this context's in-flight instructions; their issue slots
    // become (OS) switch overhead. Like squashFrom, every dropped
    // instruction's destination booking must leave the scoreboard,
    // or its ready time would leak into the incoming thread.
    std::uint32_t n = 0;
    std::uint32_t counted = 0;
    for (std::size_t i = 0; i < inflight_.size();) {
        if (inflight_[i].ctx == c) {
            if (!testOsSwapLeak_)
                ctxs_[c].scoreboard().clearWrite(inflight_[i].dst);
            if (inflight_[i].issuedAt >= statsEpoch_)
                ++counted;
            inflight_[i] = inflight_.back();
            inflight_.pop_back();
            ++n;
        } else {
            ++i;
        }
    }
    // Only slots issued inside the current measurement epoch carry a
    // Busy cycle in bd_; older ones have nothing to reclassify.
    bd_.sub(CycleClass::Busy, counted);
    bd_.add(CycleClass::Switch, counted);
    for (std::size_t i = 0; i < missEvents_.size();) {
        if (missEvents_[i].ctx == c) {
            missEvents_[i] = missEvents_.back();
            missEvents_.pop_back();
        } else {
            ++i;
        }
    }
    if (src && testOsSwapLeak_) {
        // Checker-validation hook: reload the thread but restore the
        // outgoing thread's scoreboard, re-introducing the pre-fix
        // stale-ready-time leak so tests can prove the shadow
        // scoreboard auditor catches it.
        Scoreboard leaked = ctxs_[c].scoreboard();
        ctxs_[c].loadThread(src, app_id);
        ctxs_[c].scoreboard() = leaked;
    } else if (src) {
        ctxs_[c].loadThread(src, app_id);
    } else {
        ctxs_[c].unloadThread();
    }
    if (probes_ && probes_->enabled()) {
        ProbeEvent ev;
        ev.kind = ProbeKind::ContextSwitch;
        ev.cycle = now;
        ev.proc = id_;
        ev.ctx = c;
        ev.latency = n;
        ev.arg = static_cast<std::uint32_t>(SwitchReason::Os);
        probes_->emit(ev);
    }
}

SyncManager::WakeFn
Processor::wakeFn(CtxId c)
{
    return [this, c](Cycle resume_at) {
        if (wakeRouter_ != nullptr)
            wakeRouter_->routeWake(id_, c, resume_at);
        else
            applyWake(c, resume_at);
    };
}

std::uint32_t
Processor::squashFrom(CtxId c, SeqNum from_seq, Cycle now)
{
    std::uint32_t n = 0;
    std::uint32_t counted = 0;
    for (std::size_t i = 0; i < inflight_.size();) {
        InFlight &f = inflight_[i];
        if (f.ctx == c && f.seq >= from_seq) {
            ctxs_[c].scoreboard().clearWrite(f.dst);
            if (f.issuedAt >= statsEpoch_)
                ++counted;
            if (probeOn_) {
                ProbeEvent ev;
                ev.kind = ProbeKind::ContextSquash;
                ev.cycle = now;
                ev.proc = id_;
                ev.ctx = c;
                ev.seq = f.seq;
                ev.reg = f.dst;
                probes_->emit(ev);
            }
            f = inflight_.back();
            inflight_.pop_back();
            ++n;
        } else {
            ++i;
        }
    }
    // Drop pending miss events belonging to the squashed region.
    for (std::size_t i = 0; i < missEvents_.size();) {
        if (missEvents_[i].ctx == c && missEvents_[i].seq >= from_seq) {
            missEvents_[i] = missEvents_.back();
            missEvents_.pop_back();
        } else {
            ++i;
        }
    }
    ctxs_[c].rollbackTo(from_seq);
    // Reclassify the squashed issue slots as switch overhead. Slots
    // issued before the current measurement epoch contributed no
    // Busy cycle to bd_, so they are dropped without reclassifying
    // (the old saturating-sub behaviour could steal Busy cycles that
    // belonged to other contexts).
    bd_.sub(CycleClass::Busy, counted);
    bd_.add(CycleClass::Switch, counted);
    squashedSlots_ += n;
    return n;
}

void
Processor::blockedSwitch(Cycle now, Cycle flush_until)
{
    ++switchEvents_;
    noteSwitch(static_cast<CtxId>(current_), now,
               SwitchReason::ExplicitHint,
               flush_until > now ? flush_until - now : 0);
    if (flush_until > flushUntil_)
        flushUntil_ = flush_until;
    int next = nextAvailableRing(hot_, current_, now);
    if (next >= 0) {
        current_ = next;
        blockedNeedsNewCurrent_ = false;
    } else {
        blockedNeedsNewCurrent_ = true;
    }
}

void
Processor::processMissEvents(Cycle now)
{
    if (now < nextMissDetectAt_)
        return;
    for (std::size_t i = 0; i < missEvents_.size();) {
        MissEvent ev = missEvents_[i];
        if (ev.detectAt > now) {
            ++i;
            continue;
        }
        missEvents_[i] = missEvents_.back();
        missEvents_.pop_back();
        stateChangedLastTick_ = true;

        ThreadContext &ctx = ctxs_[ev.ctx];
        if (!otherThreadExists(hot_, ev.ctx)) {
            // Nobody to yield to: behave like the single-context
            // processor and let dependents stall on the scoreboard.
            continue;
        }
        if (cfg_.scheme == Scheme::Blocked) {
            ++switchEvents_;
            noteSwitch(ev.ctx, now, SwitchReason::CacheMiss,
                       ev.dataReady > now ? ev.dataReady - now : 0);
            squashFrom(ev.ctx, ev.seq, now);
            ctx.makeUnavailable(ev.dataReady, WaitKind::Memory);
            ctx.setMissReplaySeq(ev.seq);
            // Miss detected at WB: the whole pipeline drains before
            // the next context may start (Figure 2).
            if (ev.detectAt + 2 > flushUntil_)
                flushUntil_ = ev.detectAt + 2;
            int next = nextAvailableRing(hot_, current_, now);
            if (next >= 0) {
                current_ = next;
                blockedNeedsNewCurrent_ = false;
            } else {
                blockedNeedsNewCurrent_ = true;
            }
        } else if (cfg_.scheme == Scheme::Interleaved) {
            ++switchEvents_;
            noteSwitch(ev.ctx, now, SwitchReason::CacheMiss,
                       ev.dataReady > now ? ev.dataReady - now : 0);
            // Selective squash: only this context's instructions
            // leave the pipeline; everyone else keeps issuing.
            squashFrom(ev.ctx, ev.seq, now);
            ctx.makeUnavailable(ev.dataReady, WaitKind::Memory);
            ctx.setMissReplaySeq(ev.seq);
        }
    }
    // Recompute the minimum in a separate pass: squashFrom runs
    // inside the scan above and its swap-with-back removal can move
    // an unvisited entry into an already-visited slot, so a minimum
    // folded into the scan could run stale-high and delay a detect.
    // A survivor still due (same displacement, also possible before
    // this cache existed) keeps next <= now and re-scans next cycle.
    Cycle next = kCycleNever;
    for (const MissEvent &e : missEvents_) {
        if (e.detectAt < next)
            next = e.detectAt;
    }
    nextMissDetectAt_ = next;
}

void
Processor::retireDue(Cycle now)
{
    if (now < nextRetireAt_)
        return;
    // One branch-free pass: the due set as a bitmask (Config::validate
    // bounds the in-flight count by 64) and the survivors' minimum.
    const std::size_t n = inflight_.size();
    assert(n <= 64);
    std::uint64_t due = 0;
    Cycle next = kCycleNever;
    for (std::size_t i = 0; i < n; ++i) {
        const Cycle r = inflight_[i].retireAt;
        due |= std::uint64_t{r <= now} << i;
        next = std::min(next, r <= now ? kCycleNever : r);
    }
    nextRetireAt_ = next;
    if (due == 0)
        return;

    // Remove the due entries exactly as an ascending swap-remove scan
    // would: each hole takes the last entry, and a due entry pulled in
    // from the tail retires on the spot. squashFrom emits its events
    // in inflight_'s order, so the survivors' order is observable.
    std::size_t live = n;
    for (std::uint64_t m = due; m != 0;) {
        const auto hole = static_cast<std::size_t>(std::countr_zero(m));
        retireOne(inflight_[hole]);
        while (--live > hole) {
            if (((due >> live) & 1) == 0) {
                inflight_[hole] = inflight_[live];
                break;
            }
            retireOne(inflight_[live]);
        }
        // Entries at or past live are gone; hole is filled or gone.
        m &= (std::uint64_t{1} << live) - 1;
        m &= ~(std::uint64_t{1} << hole);
    }
    inflight_.resize(live);

    stateChangedLastTick_ = true;
    if (now >= lastRelease_ + 32) {
        releaseRetired();
        lastRelease_ = now;
    }
}

void
Processor::retireOne(const InFlight &f)
{
    ctxs_[f.ctx].noteRetired();
    ++retiredTotal_;
    for (auto &entry : appRetired_) {
        if (entry.first == f.appId) {
            ++entry.second;
            return;
        }
    }
    appRetired_.emplace_back(f.appId, 1);
}

void
Processor::releaseRetired()
{
    for (ThreadContext &ctx : ctxs_) {
        if (!ctx.loaded())
            continue;
        SeqNum oldest = ctx.nextIssueSeq();
        for (const InFlight &f : inflight_) {
            if (f.ctx == ctx.id() && f.seq < oldest)
                oldest = f.seq;
        }
        if (oldest > 0)
            ctx.retireUpTo(oldest - 1);
    }
}

int
Processor::selectOwner(Cycle now)
{
    switch (cfg_.scheme) {
      case Scheme::Single:
      case Scheme::Blocked:
        if (hot_.available(current_, now))
            return current_;
        if (hot_.runnable[current_] == 0 || blockedNeedsNewCurrent_) {
            int next = nextAvailableRing(hot_, current_, now);
            if (next >= 0) {
                current_ = next;
                blockedNeedsNewCurrent_ = false;
                return current_;
            }
        }
        return -1;
      case Scheme::Interleaved:
      case Scheme::FineGrained:
      default: {
        const int prio = cfg_.priorityContext;
        if (cfg_.scheme == Scheme::Interleaved && prio >= 0 &&
            prio < static_cast<int>(ctxs_.size())) {
            // Priority context takes every other slot; the rest
            // round-robin over the remaining contexts.
            if (hot_.available(prio, now) && rrLast_ != prio) {
                rrLast_ = prio;
                return prio;
            }
            const int n = static_cast<int>(ctxs_.size());
            for (int step = 1; step <= n; ++step) {
                int idx = (rrLastOther_ + step) % n;
                if (idx == prio)
                    continue;
                if (hot_.available(idx, now)) {
                    rrLastOther_ = idx;
                    rrLast_ = idx;
                    return idx;
                }
            }
            if (hot_.available(prio, now)) {
                rrLast_ = prio;
                return prio;
            }
            return -1;
        }
        int owner = nextAvailableRing(hot_, rrLast_, now);
        if (owner >= 0)
            rrLast_ = owner;
        return owner;
      }
    }
}

int
Processor::constSelectOwner(Cycle now) const
{
    // Mirror of selectOwner without the cursor writes. Keep the two
    // in lockstep: any scheme change there must be replicated here.
    switch (cfg_.scheme) {
      case Scheme::Single:
      case Scheme::Blocked:
        if (hot_.available(current_, now))
            return current_;
        if (hot_.runnable[current_] == 0 || blockedNeedsNewCurrent_)
            return nextAvailableRing(hot_, current_, now);
        return -1;
      case Scheme::Interleaved:
      case Scheme::FineGrained:
      default: {
        const int prio = cfg_.priorityContext;
        if (cfg_.scheme == Scheme::Interleaved && prio >= 0 &&
            prio < static_cast<int>(ctxs_.size())) {
            if (hot_.available(prio, now) && rrLast_ != prio)
                return prio;
            const int n = static_cast<int>(ctxs_.size());
            for (int step = 1; step <= n; ++step) {
                int idx = (rrLastOther_ + step) % n;
                if (idx == prio)
                    continue;
                if (hot_.available(idx, now))
                    return idx;
            }
            if (hot_.available(prio, now))
                return prio;
            return -1;
        }
        return nextAvailableRing(hot_, rrLast_, now);
      }
    }
}

bool
Processor::planFastForward(Cycle now, Cycle limit,
                           FastForwardPlan &out)
{
    // A window must cover at least two cycles to beat plain ticking.
    if (limit <= now + 1)
        return false;

    // Global cap: no miss detection may fall inside the window (it
    // squashes, switches and moves cursors). Retirements may: the
    // sleep's settle replays them, and the sync fence below is the
    // one issue decision they change. The cache is conservative-low,
    // so a stale value can only shrink the window, never over-extend
    // it; a miss event left due by a swap-with-back displacement
    // keeps nextMissDetectAt_ <= now and correctly declines the plan.
    Cycle cap = limit;
    if (nextMissDetectAt_ < cap)
        cap = nextMissDetectAt_;
    if (cap <= now + 1)
        return false;

    // ---- processor-wide stall timers -------------------------------
    // tick() early-returns on these before owner selection, so the
    // skipped cycles rotate no cursors (needOwnerCommit stays false).
    // Priority order matches tick(): flush, then fetch, then DTLB.
    if (flushUntil_ > now) {
        out.until = std::min(cap, flushUntil_);
        out.cls = CycleClass::Switch;
        out.attribute = true;
        out.needOwnerCommit = false;
        return out.until > now + 1;
    }
    if (fetchStallUntil_ > now) {
        out.until = std::min(cap, fetchStallUntil_);
        out.cls = CycleClass::InstStall;
        out.attribute = true;
        out.needOwnerCommit = false;
        return out.until > now + 1;
    }
    if (dataTlbStallUntil_ > now) {
        out.until = std::min(cap, dataTlbStallUntil_);
        out.cls = CycleClass::DataStall;
        out.attribute = true;
        out.needOwnerCommit = false;
        return out.until > now + 1;
    }

    const int owner = constSelectOwner(now);
    if (owner < 0) {
        // ---- idle window -------------------------------------------
        // No context is available and none can become available
        // before its unavailable-until timer expires, except by a
        // sync wake: an immediate callback from another context's
        // unlock/arrive, which ends the window at once (applyWake).
        // selectOwner mutates no cursor when it returns -1, so no
        // owner commit is needed.
        // Replicate attributeIdle's choice of attributed context.
        int who;
        Cycle wake = kCycleNever;
        if ((cfg_.scheme == Scheme::Single ||
             cfg_.scheme == Scheme::Blocked) &&
            !blockedNeedsNewCurrent_ &&
            hot_.runnable[current_] != 0) {
            // Resident context holds the pipeline: others waking
            // mid-window change neither selectOwner's -1 nor the
            // attribution, so only current_'s wake caps the window.
            who = current_;
            wake = hot_.unavailUntil[current_];
        } else {
            who = soonestAvailable(hot_);
            if (who >= 0)
                wake = hot_.unavailUntil[who];
        }
        out.attribute = true;
        out.needOwnerCommit = false;
        if (who >= 0) {
            out.until = std::min(cap, wake);
            switch (ctxs_[who].waitKind()) {
              case WaitKind::Sync:
                out.cls = CycleClass::Sync;
                break;
              case WaitKind::Backoff:
                out.cls = CycleClass::LongInstr;
                break;
              case WaitKind::Memory:
              default:
                out.cls = CycleClass::DataStall;
                break;
            }
            return out.until > now + 1;
        }
        // No known resume time. Loaded unfinished threads are all
        // blocked on synchronization (Sync time); otherwise this is
        // the end-of-run tail, which attributes nothing.
        out.until = cap;
        out.cls = CycleClass::Sync;
        for (std::size_t c = 0; c < hot_.size(); ++c) {
            if (hot_.runnable[c] != 0)
                return out.until > now + 1;
        }
        out.attribute = false;
        return out.until > now + 1;
    }

    // ---- hazard window ---------------------------------------------
    // Only provable for a single-issue machine with exactly one
    // available context: then every skipped cycle selects the same
    // owner, whose selection is idempotent after the one rotation
    // sleepOn replays, and the stalled instruction's hazard
    // comparisons stay constant thanks to the breakpoint caps below.
    if (cfg_.issueWidth != 1 || availableCount(hot_, now) != 1)
        return false;

    // Another context waking mid-window would contend for the slot.
    for (std::size_t c = 0; c < hot_.size(); ++c) {
        if (static_cast<int>(c) == owner)
            continue;
        if (hot_.runnable[c] != 0 && hot_.unavailUntil[c] < cap)
            cap = hot_.unavailUntil[c];
    }
    if (cap <= now + 1)
        return false;

    ThreadContext &ctx = ctxs_[static_cast<CtxId>(owner)];
    MicroOp op;
    // peek is transparent: the skipped lockstep cycles would have
    // performed the identical peek. Failure means the thread ends
    // exactly now; let lockstep handle the transition.
    if (!ctx.peek(op))
        return false;

    out.attribute = true;
    out.needOwnerCommit = true;

    // Branch redirect: issueFrom bails before the fetch until the
    // branch resolves, attributing ShortInstr.
    if (ctx.nextFetchAt() > now) {
        out.until = std::min(cap, ctx.nextFetchAt());
        out.cls = CycleClass::ShortInstr;
        return out.until > now + 1;
    }

    if (cfg_.scheme == Scheme::FineGrained) {
        // HEP interlock: one instruction per context in the pipe.
        // Anything past it issues (fine-grained has no scoreboard
        // stalls), so that is the only fast-forwardable window.
        if (ctx.nextIssueSeq() > 0 &&
            ctx.lastIssueAt() + cfg_.intPipeDepth > now) {
            out.until =
                std::min(cap, ctx.lastIssueAt() + cfg_.intPipeDepth);
            out.cls = CycleClass::ShortInstr;
            return out.until > now + 1;
        }
        return false;
    }

    // An unfetched instruction would run a (mutating) ifetch.
    if (op.seq != ctx.lastFetchSeq())
        return false;

    // Sync fence: holds while any of the owner's instructions is in
    // flight, so it lifts in the cycle the last of them retires.
    if (isSync(op.op) && sync_) {
        Cycle lift = 0;
        for (const InFlight &f : inflight_) {
            if (f.ctx == static_cast<CtxId>(owner))
                lift = std::max(lift, f.retireAt);
        }
        if (lift != 0) {
            out.until = std::min(cap, lift);
            out.cls = CycleClass::Sync;
            return out.until > now + 1;
        }
    }

    // Register / functional-unit hazard. Everything below mirrors
    // issueFrom's stall path; the capAt breakpoints pin every
    // time-vs-now comparison so the classification (and the decision
    // to stall at all) is constant across the window.
    const FuKind fu = fuKind(op.op);
    const Cycle fu_free = fuBusy_[static_cast<std::size_t>(fu)];
    const std::uint32_t res_lat = resultLatency(cfg_.lat, op);
    const Cycle reg_ready =
        ctx.scoreboard().readyCycle(op, res_lat, now);
    Cycle startable = reg_ready;
    if (fu_free > startable)
        startable = fu_free;
    if (startable <= now)
        return false; // the instruction issues this cycle

    Cycle until = cap;
    auto capAt = [&](Cycle x) {
        if (x > now && x < until)
            until = x;
    };
    capAt(startable);
    capAt(fu_free);
    if (fu_free > now + 4)
        capAt(fu_free - 4); // LongInstr/ShortInstr threshold
    capAt(ctx.scoreboard().regReady(op.src1));
    capAt(ctx.scoreboard().regReady(op.src2));
    capAt(ctx.scoreboard().regReady(op.dst));

    const CycleClass why =
        classifyHazard(ctx, op, fu_free, reg_ready, now);
    // A live switch hint mutates (backoff / blocked switch). The
    // wait only shrinks as now advances, so a hint that is off now
    // stays off for the whole window.
    const bool hintable =
        cfg_.switchHintThreshold > 0 &&
        startable - now >= cfg_.switchHintThreshold &&
        why != CycleClass::DataStall &&
        otherThreadExists(hot_, owner);
    if (hintable && (cfg_.scheme == Scheme::Blocked ||
                     cfg_.scheme == Scheme::Interleaved))
        return false;

    out.until = until;
    out.cls = why;
    return out.until > now + 1;
}

void
Processor::attributeIdle(Cycle now)
{
    // Attribute the idle cycle to whatever the context that will
    // resume soonest is waiting for.
    int who;
    if ((cfg_.scheme == Scheme::Single ||
         cfg_.scheme == Scheme::Blocked) &&
        !blockedNeedsNewCurrent_ && hot_.runnable[current_] != 0) {
        who = current_;
    } else {
        who = soonestAvailable(hot_);
    }
    if (who < 0) {
        // No context has a known resume time. If unfinished threads
        // are still loaded they are all blocked indefinitely on
        // synchronization (a lock or barrier release will wake them):
        // that is sync time, not a hole in the accounting. Only the
        // end-of-run tail, with nothing loaded and unfinished, stays
        // unattributed.
        for (std::size_t c = 0; c < hot_.size(); ++c) {
            if (hot_.runnable[c] != 0) {
                bd_.add(CycleClass::Sync);
                return;
            }
        }
        return;
    }
    switch (hot_.waitKind[who]) {
      case WaitKind::Sync:
        bd_.add(CycleClass::Sync);
        break;
      case WaitKind::Backoff:
        bd_.add(CycleClass::LongInstr);
        break;
      case WaitKind::Memory:
      default:
        bd_.add(CycleClass::DataStall);
        break;
    }
    (void)now;
}

CycleClass
Processor::classifyHazard(const ThreadContext &ctx, const MicroOp &op,
                          Cycle fu_free, Cycle reg_ready,
                          Cycle now) const
{
    if (fu_free > reg_ready && fu_free > now) {
        return (fu_free - now) > 4 ? CycleClass::LongInstr
                                   : CycleClass::ShortInstr;
    }
    switch (ctx.scoreboard().blockingKind(op, now)) {
      case ProducerKind::LoadMiss:
        return CycleClass::DataStall;
      case ProducerKind::LongOp:
        return CycleClass::LongInstr;
      default:
        return CycleClass::ShortInstr;
    }
}

void
Processor::noteStallBatch(int c, const MicroOp &op, Cycle fu_free,
                          CycleClass why, Cycle startable, Cycle now)
{
    // Single-issue only: a wider machine's other slots could issue
    // or consume structural resources the batch does not model.
    if (cfg_.issueWidth != 1)
        return;
    Cycle until = startable;
    auto capAt = [&](Cycle x) {
        if (x > now && x < until)
            until = x;
    };
    // A miss detected inside the window would squash or switch.
    // Retirements due inside it only replay (settleSleep).
    capAt(nextMissDetectAt_);
    // Under single and blocked, @p c is the resident context and
    // keeps the slot while it stays available (selectOwner's first
    // branch), whatever the other contexts do. Nor can its switch
    // hint turn on mid-window: issueFrom fires the hint whenever
    // another thread exists, so a wait that qualifies for one reaches
    // this stall path only when none does. Under interleaving, another
    // context available anywhere in the window could take over the
    // slot (owner rotation) and issue, and one available this very
    // cycle (skip-blocked donation) declines outright.
    if (cfg_.scheme != Scheme::Single && cfg_.scheme != Scheme::Blocked) {
        const std::size_t n = hot_.size();
        for (std::size_t i = 0; i < n; ++i) {
            if (static_cast<int>(i) == c || hot_.runnable[i] == 0)
                continue;
            if (hot_.unavailUntil[i] <= now)
                return;
            capAt(hot_.unavailUntil[i]);
        }
    }
    if (until <= now + 1)
        return;
    // Classification breakpoints, pinned exactly as in
    // planFastForward: inside [now, until) every time-vs-now
    // comparison classifyHazard makes keeps its value, so @p why
    // holds for the whole window (and the hint, off this tick with a
    // shrinking wait, stays off).
    const ThreadContext &ctx = ctxs_[static_cast<std::size_t>(c)];
    capAt(fu_free);
    if (fu_free > now + 4)
        capAt(fu_free - 4);
    capAt(ctx.scoreboard().regReady(op.src1));
    capAt(ctx.scoreboard().regReady(op.src2));
    capAt(ctx.scoreboard().regReady(op.dst));
    if (until <= now + 1)
        return;
    batch_ = {until, why};
}

bool
Processor::planSleep(Cycle now, Cycle limit)
{
    FastForwardPlan plan;
    if (!planFastForward(now, limit, plan)) {
        armed_ = false;
        return false;
    }
    sleepOn(now, plan);
    return true;
}

void
Processor::sleepOn(Cycle now, const FastForwardPlan &plan)
{
    if (plan.needOwnerCommit)
        (void)selectOwner(now);
    sleep_ = plan;
    sleepFrom_ = now;
}

void
Processor::replaySleep(Cycle through)
{
    // One retireDue per cycle with something due, never one over
    // several cycles' retirements: its swap-remove then leaves
    // inflight_ in the order the skipped ticks would have, and
    // squashFrom emits its events in that order. Each call leaves
    // nextRetireAt_ past t.
    for (Cycle t = std::max(nextRetireAt_, sleepFrom_); t < through;
         t = nextRetireAt_)
        retireDue(t);
    const Cycle n = through - sleepFrom_;
    if (sleep_.attribute)
        bd_.add(sleep_.cls, n * cfg_.issueWidth);
    sleptCycles_ += n;
    // A sync wake zeroes sleep_.until: nothing after through is owed.
    sleepFrom_ = through < sleep_.until ? through : kCycleNever;
}

void
Processor::tick(Cycle now)
{
    // Latched once per cycle; every emit site inside the slot loop
    // reads the flag instead of chasing probes_->enabled().
    probeOn_ = probes_ && probes_->enabled();
    issuedLastTick_ = false;
    shortStallHint_ = false;
    stateChangedLastTick_ = false;
    batch_.until = 0;

    processMissEvents(now);
    retireDue(now);

    // Per-cycle structural resources (dual issue).
    memPortUsed_ = false;
    branchUsed_ = false;

    // Each cycle has issueWidth slots; every slot is attributed to
    // exactly one category. A processor-wide stall raised by an
    // earlier slot (I-miss, flush, TLB trap) consumes the rest.
    // The single-issue fast path runs the stall-timer checks exactly
    // once and never enters the loop; only slot >= 1 of a wider
    // machine re-checks, because slot 0 may have raised a stall.
    const std::uint32_t width = cfg_.issueWidth;
    if (flushUntil_ > now) {
        stateChangedLastTick_ = true;
        bd_.add(CycleClass::Switch, width);
        return;
    }
    if (fetchStallUntil_ > now) {
        stateChangedLastTick_ = true;
        bd_.add(CycleClass::InstStall, width);
        return;
    }
    if (dataTlbStallUntil_ > now) {
        stateChangedLastTick_ = true;
        bd_.add(CycleClass::DataStall, width);
        return;
    }
    tickSlot(now);
    for (std::uint32_t slot = 1; slot < width; ++slot) {
        if (flushUntil_ > now) {
            bd_.add(CycleClass::Switch, width - slot);
            return;
        }
        if (fetchStallUntil_ > now) {
            bd_.add(CycleClass::InstStall, width - slot);
            return;
        }
        if (dataTlbStallUntil_ > now) {
            bd_.add(CycleClass::DataStall, width - slot);
            return;
        }
        tickSlot(now);
    }
}

void
Processor::tickSlot(Cycle now)
{
    int owner = selectOwner(now);
    if (owner < 0) {
        attributeIdle(now);
        return;
    }

    if (cfg_.scheme == Scheme::Interleaved &&
        cfg_.interleavedSkipBlocked) {
        // Ablation variant: a hazard-blocked context gives its slot
        // to the next available one instead of bubbling. Visit each
        // available context at most once, starting with the owner;
        // the ring scan reports -1 when no context is available (the
        // owner itself may have finished or become unavailable while
        // issuing), which ends the donation round early.
        int candidate = owner;
        for (int tries = 0; tries < cfg_.numContexts; ++tries) {
            if (issueFrom(candidate, now, false))
                return;
            candidate = nextAvailableRing(hot_, candidate, now);
            if (candidate < 0 || candidate == owner)
                break;
        }
        // Everyone blocked: attribute via the original slot owner.
        issueFrom(owner, now, true);
        return;
    }
    issueFrom(owner, now, true);
}

bool
Processor::issueFrom(int c, Cycle now, bool attribute_stall)
{
    ThreadContext &ctx = ctxs_[static_cast<CtxId>(c)];
    MicroOp op;
    if (!ctx.peek(op)) {
        // The thread terminated exactly now.
        if (attribute_stall)
            attributeIdle(now);
        return attribute_stall;
    }

    // Branch redirect: the context cannot supply a correct-path
    // instruction until the mispredicted branch resolves in EX.
    if (ctx.nextFetchAt() > now) {
        if (attribute_stall)
            bd_.add(CycleClass::ShortInstr);
        return attribute_stall;
    }

    const bool fine_grained = (cfg_.scheme == Scheme::FineGrained);

    // HEP-style processors have no interlocks: at most one
    // instruction per context in the pipeline.
    if (fine_grained && ctx.nextIssueSeq() > 0 &&
        ctx.lastIssueAt() + cfg_.intPipeDepth > now) {
        if (attribute_stall)
            bd_.add(CycleClass::ShortInstr);
        return attribute_stall;
    }

    // Instruction fetch (once per instruction; blocking on a miss).
    if (!fine_grained && op.seq != ctx.lastFetchSeq()) {
        FetchResult f = mem_.ifetch(id_, op.pc, now);
        ctx.setLastFetchSeq(op.seq);
        if (f.stall > 0) {
            // A blocking I-miss stalls the whole processor: the
            // cycle is consumed regardless of the issue variant.
            fetchStallUntil_ = now + f.stall;
            bd_.add(CycleClass::InstStall);
            return true;
        }
    }

    // Synchronization ops are fences: they must not issue while an
    // older instruction is still in flight, because an older load's
    // miss would squash and re-execute them - re-acquiring a lock or
    // re-arriving at a barrier corrupts the synchronization state.
    if (isSync(op.op) && sync_) {
        for (const InFlight &f : inflight_) {
            if (f.ctx == static_cast<CtxId>(c)) {
                if (attribute_stall)
                    bd_.add(CycleClass::Sync);
                return attribute_stall;
            }
        }
    }

    // Structural slot constraints (dual issue): one memory access
    // and one control transfer per cycle.
    const bool is_mem = isLoad(op.op) || isStore(op.op) ||
                        op.op == Op::Prefetch;
    if ((is_mem && memPortUsed_) ||
        (isControl(op.op) && branchUsed_)) {
        if (attribute_stall)
            bd_.add(CycleClass::ShortInstr);
        return attribute_stall;
    }

    // Register and functional-unit hazards.
    const FuKind fu = fuKind(op.op);
    const Cycle fu_free = fuBusy_[static_cast<std::size_t>(fu)];
    const std::uint32_t res_lat = resultLatency(cfg_.lat, op);
    const Cycle reg_ready =
        ctx.scoreboard().readyCycle(op, res_lat, now);
    Cycle startable = reg_ready;
    if (fu_free > startable)
        startable = fu_free;

    if (!fine_grained && startable > now) {
        const CycleClass why =
            classifyHazard(ctx, op, fu_free, reg_ready, now);
        const Cycle wait = startable - now;
        const bool hintable =
            cfg_.switchHintThreshold > 0 &&
            wait >= cfg_.switchHintThreshold &&
            why != CycleClass::DataStall &&
            otherThreadExists(hot_, c) &&
            nextAvailableRing(hot_, c, now) >= 0;

        if (hintable && cfg_.scheme == Scheme::Blocked) {
            // Compiler-inserted explicit switch (Table 4: 3 cycles).
            stateChangedLastTick_ = true;
            bd_.add(CycleClass::Switch);
            ctx.makeUnavailable(startable, WaitKind::Backoff);
            blockedSwitch(now, now + cfg_.sw.blockedExplicitCost);
            return true;
        }
        if (hintable && cfg_.scheme == Scheme::Interleaved) {
            // Compiler-inserted backoff (Table 4: 1 cycle).
            stateChangedLastTick_ = true;
            bd_.add(CycleClass::Switch);
            ++switchEvents_;
            noteSwitch(static_cast<CtxId>(c), now,
                       SwitchReason::ExplicitHint, wait);
            ctx.makeUnavailable(startable, WaitKind::Backoff);
            return true;
        }
        // A stall this short cannot yield a fast-forward window on
        // the next cycle (its cap would be <= next-now + 1), so let
        // the next turn skip the doomed plan attempt.
        if (startable <= now + 2)
            shortStallHint_ = true;
        if (attribute_stall) {
            bd_.add(why);
            if (startable > now + 1)
                noteStallBatch(c, op, fu_free, why, startable, now);
        }
        return attribute_stall;
    }

    // ---- the instruction issues this cycle -------------------------
    issuedLastTick_ = true;
    stateChangedLastTick_ = true;
    ProducerKind write_kind = res_lat <= 5 ? ProducerKind::ShortOp
                                           : ProducerKind::LongOp;
    Cycle write_ready = now + res_lat;
    bool issued_useful = true;

    switch (op.op) {
      case Op::Load: {
        if (fine_grained) {
            write_ready = now + cfg_.uniMem.memLat;
            write_kind = ProducerKind::LoadMiss;
            ctx.makeUnavailable(write_ready, WaitKind::Memory);
            break;
        }
        if (op.seq == ctx.missReplaySeq()) {
            // Replay of the miss that switched this context out:
            // the data is forwarded from the miss buffer.
            ctx.clearMissReplaySeq();
            write_ready = now + cfg_.lat.loadLat;
            write_kind = ProducerKind::ShortOp;
            break;
        }
        LoadResult r = mem_.load(id_, op.addr, now);
        if (r.mshrStall) {
            if (attribute_stall)
                bd_.add(CycleClass::DataStall);
            return attribute_stall;
        }
        if (r.tlbPenalty > 0)
            dataTlbStallUntil_ = now + 1 + r.tlbPenalty;
        if (r.l1Hit) {
            write_ready = now + cfg_.lat.loadLat;
            write_kind = ProducerKind::ShortOp;
        } else {
            write_ready = std::max<Cycle>(r.ready,
                                          now + cfg_.lat.loadLat);
            write_kind = ProducerKind::LoadMiss;
            if (cfg_.scheme == Scheme::Blocked ||
                cfg_.scheme == Scheme::Interleaved) {
                const Cycle detect = now + cfg_.sw.missDetectStage;
                missEvents_.push_back(
                    {static_cast<CtxId>(c), op.seq, detect, r.ready});
                if (detect < nextMissDetectAt_)
                    nextMissDetectAt_ = detect;
            }
        }
        break;
      }
      case Op::Prefetch: {
        // Non-binding prefetch: start the line fetch but never make
        // the context unavailable or stall issue. mshrStall reports
        // the MSHR file was full() at miss time; the fetch was not
        // started and the prefetch is dropped (counted, not silent).
        if (fine_grained)
            break;
        LoadResult r = mem_.load(id_, op.addr, now);
        if (r.mshrStall)
            ++prefetchDropped_;
        if (r.tlbPenalty > 0)
            dataTlbStallUntil_ = now + 1 + r.tlbPenalty;
        break;
      }
      case Op::Store: {
        if (fine_grained)
            break;
        StoreResult r = mem_.store(id_, op.addr, now);
        if (r.bufferStall) {
            if (attribute_stall)
                bd_.add(CycleClass::DataStall);
            return attribute_stall;
        }
        if (r.tlbPenalty > 0)
            dataTlbStallUntil_ = now + 1 + r.tlbPenalty;
        break;
      }
      case Op::Branch:
      case Op::Jump: {
        if (!fine_grained) {
            const bool correct =
                btb_.resolve(op.pc, op.taken, op.target);
            if (!correct) {
                ctx.setNextFetchAt(now + cfg_.branchResolveStage + 1);
            }
        }
        break;
      }
      case Op::CtxSwitch: {
        // Explicit switch instruction: its slot plus the drain are
        // all overhead (Table 4).
        bd_.add(CycleClass::Switch);
        ctx.consume();
        if (cfg_.scheme == Scheme::Blocked)
            blockedSwitch(now, now + cfg_.sw.blockedExplicitCost);
        return true;
      }
      case Op::Backoff: {
        bd_.add(CycleClass::Switch);
        ctx.consume();
        ctx.makeUnavailable(now + op.backoffCycles, WaitKind::Backoff);
        // Under the blocked scheme an explicit backoff behaves like
        // an explicit switch (it must yield the whole pipeline).
        if (cfg_.scheme == Scheme::Blocked)
            blockedSwitch(now, now + cfg_.sw.blockedExplicitCost);
        return true;
      }
      case Op::Lock: {
        if (sync_) {
            auto res = sync_->lock(op.syncId, now,
                                   wakeFn(static_cast<CtxId>(c)));
            if (res.acquired) {
                ctx.makeUnavailable(res.ready, WaitKind::Sync);
            } else {
                ctx.makeUnavailable(kCycleNever, WaitKind::Sync);
                if (cfg_.scheme == Scheme::Blocked)
                    blockedSwitch(now,
                                  now + 1 + cfg_.sw.blockedExplicitCost);
            }
        }
        break;
      }
      case Op::Unlock: {
        if (sync_)
            sync_->unlock(op.syncId, now + 1);
        break;
      }
      case Op::Barrier: {
        if (sync_) {
            if (probeOn_) {
                ProbeEvent ev;
                ev.kind = ProbeKind::BarrierArrive;
                ev.cycle = now;
                ev.proc = id_;
                ev.ctx = static_cast<CtxId>(c);
                ev.arg = op.syncId;
                probes_->emit(ev);
            }
            auto res = sync_->arrive(op.syncId, syncThreads_, now,
                                     wakeFn(static_cast<CtxId>(c)));
            if (res.released) {
                ctx.makeUnavailable(res.ready, WaitKind::Sync);
            } else {
                ctx.makeUnavailable(kCycleNever, WaitKind::Sync);
                if (cfg_.scheme == Scheme::Blocked)
                    blockedSwitch(now,
                                  now + 1 + cfg_.sw.blockedExplicitCost);
            }
        }
        break;
      }
      default:
        break;
    }

    ctx.consume();
    ctx.setLastIssueAt(now);
    if (is_mem)
        memPortUsed_ = true;
    if (isControl(op.op))
        branchUsed_ = true;
    if (op.dst != kNoReg)
        ctx.scoreboard().recordWrite(op.dst, write_ready, write_kind);

    if (fu != FuKind::None) {
        fuBusy_[static_cast<std::size_t>(fu)] =
            now + issueInterval(cfg_.lat, op);
    }

    if (issued_useful) {
        bd_.add(CycleClass::Busy);
        const Cycle retire_at = now + pipeDepth(cfg_, op.op);
        inflight_.push_back({op.seq, retire_at, op.dst,
                             static_cast<CtxId>(c), ctx.appId(),
                             now});
        if (retire_at < nextRetireAt_)
            nextRetireAt_ = retire_at;
        if (probeOn_) {
            ProbeEvent ev;
            ev.kind = ProbeKind::ContextIssue;
            ev.cycle = now;
            ev.proc = id_;
            ev.ctx = static_cast<CtxId>(c);
            ev.seq = op.seq;
            ev.addr = op.pc;
            ev.arg = static_cast<std::uint32_t>(op.op);
            ev.reg = op.dst;
            if (op.dst != kNoReg && op.dst != kZeroReg)
                ev.latency = write_ready - now;
            probes_->emit(ev);
        }
    }
    return true;
}

} // namespace mtsim
