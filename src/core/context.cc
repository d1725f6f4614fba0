#include "core/context.hh"

#include <algorithm>
#include <bit>

namespace mtsim {

ThreadContext::ThreadContext(CtxId id, ContextHotState *hot,
                             Scoreboard *sb)
    : id_(id), slot_(hot != nullptr ? id : 0), hot_(hot), sb_(sb)
{
    if (hot_ == nullptr) {
        ownHot_ = std::make_unique<ContextHotState>(1);
        hot_ = ownHot_.get();
    }
    if (sb_ == nullptr) {
        ownSb_ = std::make_unique<Scoreboard>();
        sb_ = ownSb_.get();
    }
}

void
ThreadContext::loadThread(InstrSource *src, std::uint32_t app_id)
{
    source_ = src;
    appId_ = app_id;
    baseSeq_ = readSeq_ = nextSeq_;  // sequence numbers stay monotonic
    sourceDone_ = false;
    hot_->unavailUntil[slot_] = 0;
    hot_->waitKind[slot_] = WaitKind::None;
    hot_->nextFetchAt[slot_] = 0;
    hot_->lastIssueAt[slot_] = 0;
    hot_->lastFetchSeq[slot_] = ~SeqNum(0);
    missReplaySeq_ = ~SeqNum(0);
    sb_->reset();
    updateRunnable();
}

void
ThreadContext::unloadThread()
{
    source_ = nullptr;
    baseSeq_ = readSeq_ = nextSeq_;
    // An empty slot holds no register state: without this, ready
    // times from the unloaded thread would greet the next loadThread
    // caller that forgets the reset.
    sb_->reset();
    missReplaySeq_ = ~SeqNum(0);
    hot_->unavailUntil[slot_] = 0;
    hot_->waitKind[slot_] = WaitKind::None;
    hot_->runnable[slot_] = 0;
}

bool
ThreadContext::peek(MicroOp &op)
{
    if (!loaded())
        return false;
    if (readSeq_ < nextSeq_) {
        op = window_[readSeq_ & windowMask_];
        return true;
    }
    if (sourceDone_)
        return false;
    if (windowSize() == window_.size())
        growWindow();
    MicroOp &fetched = window_[nextSeq_ & windowMask_];
    if (!source_->next(fetched)) {
        sourceDone_ = true;
        updateRunnable();
        return false;
    }
    fetched.seq = nextSeq_++;
    op = fetched;
    return true;
}

void
ThreadContext::growWindow()
{
    static_assert(std::has_single_bit(kInitialWindow));
    std::vector<MicroOp> grown(
        std::max(2 * window_.size(), kInitialWindow));
    const SeqNum mask = grown.size() - 1;
    for (SeqNum s = baseSeq_; s < nextSeq_; ++s)
        grown[s & mask] = window_[s & windowMask_];
    window_.swap(grown);
    windowMask_ = mask;
}

void
ThreadContext::rollbackTo(SeqNum seq)
{
    assert(seq >= baseSeq_ && seq <= nextSeq_);
    readSeq_ = seq;
    if (sourceDone_)
        updateRunnable();
}

void
ThreadContext::retireUpTo(SeqNum seq)
{
    // Never release instructions that have not issued yet.
    const SeqNum end = seq < readSeq_ ? seq + 1 : readSeq_;
    if (end > baseSeq_)
        baseSeq_ = end;
    if (sourceDone_)
        updateRunnable();
}

} // namespace mtsim
