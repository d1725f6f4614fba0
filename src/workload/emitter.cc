#include "workload/emitter.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

#include "isa/latency.hh"
#include "prof/profiler.hh"

namespace mtsim {

namespace detail {

/**
 * Twine stand-in: list-schedule one basic block by critical path so
 * that loads and long-latency producers are separated from their
 * consumers, while preserving every register and memory dependence.
 *
 * The dependence graph is built with last-writer / readers-since-
 * write tables (O(block) with tiny constants) instead of testing all
 * op pairs. The edge set is the transitive reduction-superset of the
 * all-pairs graph with the same transitive closure, which provably
 * yields the identical schedule: list scheduling only observes
 * readiness ("every transitive predecessor emitted") and critical-
 * path priorities, and dropping a redundant edge a->c that is
 * implied by a->b->c changes neither (prio[b] >= prio[c] because
 * latencies are non-negative). The probe digests pin this.
 *
 * One instance lives for the Emitter's lifetime and is reused for
 * every block. The edges are one 64-bit successor and predecessor
 * mask per op, so building, prioritising and scheduling a block walk
 * set bits; the output buffer and the per-address list keep their
 * capacity across run() calls, so steady-state emission does not
 * touch the allocator.
 */
class BlockScheduler
{
    // Edges, readiness and reader sets are one bit per block op.
    static_assert(Emitter::kMaxBlockOps <= 64,
                  "block bitmasks are 64 bits wide");

  public:
    BlockScheduler()
    {
        // buildEdges resets exactly the entries it dirties, so the
        // tables only need one whole-array initialisation ever.
        lastWriter_.fill(-1);
        readers_.fill(0);
    }

    void
    run(std::vector<MicroOp> &ops)
    {
        const std::size_t n = ops.size();
        if (n < 2)
            return;

        buildEdges(ops);
        computePriorities(ops);

        out_.clear();
        out_.reserve(n);
        std::uint64_t ready = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (preds_[i] == 0)
                ready |= std::uint64_t{1} << i;
        }

        for (std::size_t step = 0; step < n; ++step) {
            // Pick the ready op with the longest remaining critical
            // path; break ties by program order for determinism
            // (ascending bit scan + strict compare keeps the lowest
            // index, exactly like the original full scan).
            std::uint64_t m = ready;
            std::size_t best =
                static_cast<std::size_t>(std::countr_zero(m));
            m &= m - 1;
            while (m != 0) {
                const auto i =
                    static_cast<std::size_t>(std::countr_zero(m));
                m &= m - 1;
                if (prio_[i] > prio_[best])
                    best = i;
            }
            const std::uint64_t best_bit = std::uint64_t{1} << best;
            ready &= ~best_bit;
            out_.push_back(ops[best]);
            // A successor is ready once its last predecessor leaves.
            for (std::uint64_t s = succs_[best]; s != 0; s &= s - 1) {
                const auto j =
                    static_cast<std::size_t>(std::countr_zero(s));
                preds_[j] &= ~best_bit;
                if (preds_[j] == 0)
                    ready |= std::uint64_t{1} << j;
            }
        }
        // Buffer ping-pong: ops gets the scheduled block, out_ keeps
        // the old buffer (cleared, capacity intact) for the next run.
        ops.swap(out_);
    }

  private:
    void
    buildEdges(const std::vector<MicroOp> &ops)
    {
        const std::size_t n = ops.size();
        std::fill_n(succs_.begin(), n, 0);
        std::fill_n(preds_.begin(), n, 0);
        mems_.clear();

        for (std::size_t j = 0; j < n; ++j) {
            const MicroOp &b = ops[j];
            const std::uint64_t jbit = std::uint64_t{1} << j;
            // Edges i -> j for every i in mask (all earlier than j).
            auto depMask = [&](std::uint64_t mask) {
                preds_[j] |= mask;
                for (; mask != 0; mask &= mask - 1)
                    succs_[std::countr_zero(mask)] |= jbit;
            };
            auto dep = [&](std::int8_t i) {
                if (i >= 0)
                    depMask(std::uint64_t{1} << i);
            };

            // RAW: depend on the last writer of each source; every
            // earlier writer is reached through its WAW chain.
            if (b.src1 != kNoReg) {
                dep(lastWriter_[b.src1]);
                readers_[b.src1] |= jbit;
            }
            if (b.src2 != kNoReg) {
                dep(lastWriter_[b.src2]);
                readers_[b.src2] |= jbit;
            }

            // Memory: same-address pairs involving a store. A load
            // depends on the last same-address store; a store on the
            // last store plus every load since it.
            if (isLoad(b.op) || isStore(b.op)) {
                MemEntry *e = nullptr;
                for (MemEntry &m : mems_) {
                    if (m.addr == b.addr) {
                        e = &m;
                        break;
                    }
                }
                if (e == nullptr) {
                    mems_.push_back(MemEntry{b.addr, -1, 0});
                    e = &mems_.back();
                }
                dep(e->lastStore);
                if (isStore(b.op)) {
                    depMask(e->loads);
                    e->lastStore = static_cast<std::int8_t>(j);
                    e->loads = 0;
                } else {
                    e->loads |= jbit;
                }
            }

            // WAR (readers since the last write, excluding a
            // self-read of the destination) and WAW on the dest.
            if (b.dst != kNoReg) {
                depMask(readers_[b.dst] & ~jbit);
                dep(lastWriter_[b.dst]);
                lastWriter_[b.dst] = static_cast<std::int8_t>(j);
                readers_[b.dst] = 0;
            }
        }

        // Targeted reset: only registers this block touched can hold
        // stale state (blocks are often much smaller than the table,
        // so full fills would dominate the build for short blocks).
        for (std::size_t j = 0; j < n; ++j) {
            const MicroOp &b = ops[j];
            if (b.src1 != kNoReg)
                readers_[b.src1] = 0;
            if (b.src2 != kNoReg)
                readers_[b.src2] = 0;
            if (b.dst != kNoReg) {
                lastWriter_[b.dst] = -1;
                readers_[b.dst] = 0;
            }
        }
    }

    void
    computePriorities(const std::vector<MicroOp> &ops)
    {
        static const LatencyParams lat;
        // Successors come later in the block, so a backward pass sees
        // each one's priority before its predecessors need it.
        for (std::size_t ii = ops.size(); ii-- > 0;) {
            std::uint32_t best_succ = 0;
            for (std::uint64_t s = succs_[ii]; s != 0; s &= s - 1)
                best_succ = std::max(best_succ, prio_[std::countr_zero(s)]);
            prio_[ii] = best_succ + resultLatency(lat, ops[ii]);
        }
    }

    /** Per-address state for the block's memory dependences. */
    struct MemEntry
    {
        Addr addr;
        std::int8_t lastStore; ///< index of last store, -1 if none
        std::uint64_t loads;   ///< loads since that store (bitmask)
    };

    using OpMasks = std::array<std::uint64_t, Emitter::kMaxBlockOps>;
    /** Direct successors of each op (bit j: an edge to op j). */
    OpMasks succs_;
    /** Direct predecessors of each op; run() clears each bit as
     *  that predecessor is scheduled. */
    OpMasks preds_;
    /** Longest latency path from each op to the block's end. */
    std::array<std::uint32_t, Emitter::kMaxBlockOps> prio_;
    std::vector<MicroOp> out_;
    /** Index of the last op writing each register, -1 if none. */
    std::array<std::int8_t, 256> lastWriter_;
    /** Ops reading each register since its last write (bitmask). */
    std::array<std::uint64_t, 256> readers_;
    std::vector<MemEntry> mems_;
};

} // namespace detail

Emitter::Emitter(Addr code_base, Addr data_base, std::uint64_t seed,
                 bool schedule)
    : space_(data_base), rng_(seed), codeBase_(code_base),
      pc_(code_base), schedule_(schedule)
{
    if (schedule_)
        sched_ = std::make_unique<detail::BlockScheduler>();
}

Emitter::~Emitter() = default;

Addr
Emitter::codeRegion(std::uint32_t idx) const
{
    return codeBase_ + 0x800000ull + static_cast<Addr>(idx) * 2048;
}

PauseAwaiter
Emitter::pause()
{
    flushBlock();
    return {};
}

RegId
Emitter::ipin()
{
    for (RegId r = 1; r <= 7; ++r) {
        if (!(intPinned_ & (1u << r))) {
            intPinned_ |= (1u << r);
            return r;
        }
    }
    throw std::runtime_error("Emitter: out of pinned integer registers");
}

RegId
Emitter::fpin()
{
    for (RegId r = 1; r <= 7; ++r) {
        if (!(fpPinned_ & (1u << r))) {
            fpPinned_ |= (1u << r);
            return static_cast<RegId>(kFpRegBase + r);
        }
    }
    throw std::runtime_error("Emitter: out of pinned fp registers");
}

void
Emitter::unpin(RegId r)
{
    if (r >= kFpRegBase) {
        fpPinned_ &= ~(1u << (r - kFpRegBase));
    } else {
        intPinned_ &= ~(1u << r);
    }
}

RegId
Emitter::allocInt()
{
    RegId r = static_cast<RegId>(8 + intRot_);
    intRot_ = (intRot_ + 1) % 24;
    return r;
}

RegId
Emitter::allocFp()
{
    RegId r = static_cast<RegId>(kFpRegBase + 8 + fpRot_);
    fpRot_ = (fpRot_ + 1) % 24;
    return r;
}

void
Emitter::push(MicroOp op)
{
    block_.push_back(op);
    if (block_.size() >= kMaxBlockOps)
        flushBlock();
}

void
Emitter::flushBlock()
{
    if (block_.empty())
        return;
    if (schedule_)
        sched_->run(block_);
    commit(block_);
    block_.clear();
}

void
Emitter::commit(std::vector<MicroOp> &ops)
{
    for (MicroOp &op : ops) {
        op.pc = pc_;
        pc_ += 4;
    }
    out_.insert(out_.end(), ops.begin(), ops.end());
}

void
Emitter::emitDirect(MicroOp op)
{
    flushBlock();
    op.pc = pc_;
    pc_ += 4;
    out_.push_back(op);
}

RegId
Emitter::load(Addr a, RegId addr_src)
{
    MicroOp op;
    op.op = Op::Load;
    op.dst = allocInt();
    op.src1 = addr_src;
    op.addr = a;
    push(op);
    return op.dst;
}

RegId
Emitter::fload(Addr a, RegId addr_src)
{
    MicroOp op;
    op.op = Op::Load;
    op.dst = allocFp();
    op.src1 = addr_src;
    op.addr = a;
    push(op);
    return op.dst;
}

RegId
Emitter::loadInto(RegId dst, Addr a)
{
    MicroOp op;
    op.op = Op::Load;
    op.dst = dst;
    op.addr = a;
    push(op);
    return dst;
}

void
Emitter::prefetch(Addr a)
{
    MicroOp op;
    op.op = Op::Prefetch;
    op.addr = a;
    push(op);
}

void
Emitter::store(Addr a, RegId v)
{
    MicroOp op;
    op.op = Op::Store;
    op.src1 = v;
    op.addr = a;
    push(op);
}

RegId
Emitter::iop(RegId a, RegId b)
{
    MicroOp op;
    op.op = Op::IntAlu;
    op.dst = allocInt();
    op.src1 = a;
    op.src2 = b;
    push(op);
    return op.dst;
}

RegId
Emitter::iopInto(RegId dst, RegId a, RegId b)
{
    MicroOp op;
    op.op = Op::IntAlu;
    op.dst = dst;
    op.src1 = a;
    op.src2 = b;
    push(op);
    return dst;
}

RegId
Emitter::ishift(RegId a)
{
    MicroOp op;
    op.op = Op::Shift;
    op.dst = allocInt();
    op.src1 = a;
    push(op);
    return op.dst;
}

RegId
Emitter::imul(RegId a, RegId b)
{
    MicroOp op;
    op.op = Op::IntMul;
    op.dst = allocInt();
    op.src1 = a;
    op.src2 = b;
    push(op);
    return op.dst;
}

RegId
Emitter::idiv(RegId a, RegId b)
{
    MicroOp op;
    op.op = Op::IntDiv;
    op.dst = allocInt();
    op.src1 = a;
    op.src2 = b;
    push(op);
    return op.dst;
}

RegId
Emitter::fadd(RegId a, RegId b)
{
    MicroOp op;
    op.op = Op::FpAdd;
    op.dst = allocFp();
    op.src1 = a;
    op.src2 = b;
    push(op);
    return op.dst;
}

RegId
Emitter::faddInto(RegId dst, RegId a, RegId b)
{
    MicroOp op;
    op.op = Op::FpAdd;
    op.dst = dst;
    op.src1 = a;
    op.src2 = b;
    push(op);
    return dst;
}

RegId
Emitter::fmul(RegId a, RegId b)
{
    MicroOp op;
    op.op = Op::FpMul;
    op.dst = allocFp();
    op.src1 = a;
    op.src2 = b;
    push(op);
    return op.dst;
}

RegId
Emitter::fmulInto(RegId dst, RegId a, RegId b)
{
    MicroOp op;
    op.op = Op::FpMul;
    op.dst = dst;
    op.src1 = a;
    op.src2 = b;
    push(op);
    return dst;
}

RegId
Emitter::fdiv(RegId a, RegId b, bool single_prec)
{
    MicroOp op;
    op.op = Op::FpDiv;
    op.dst = allocFp();
    op.src1 = a;
    op.src2 = b;
    op.singlePrec = single_prec;
    push(op);
    return op.dst;
}

RegId
Emitter::imm()
{
    MicroOp op;
    op.op = Op::IntAlu;
    op.dst = allocInt();
    push(op);
    return op.dst;
}

void
Emitter::nop()
{
    MicroOp op;
    op.op = Op::Nop;
    push(op);
}

Emitter::Label
Emitter::here()
{
    flushBlock();
    return Label{pc_};
}

void
Emitter::branch(RegId cond, Label target, bool taken)
{
    MicroOp op;
    op.op = Op::Branch;
    op.src1 = cond;
    op.target = target.pc;
    op.taken = taken;
    emitDirect(op);
    if (taken)
        pc_ = target.pc;
}

void
Emitter::branchFwd(RegId cond, bool taken, std::uint32_t skip_ops)
{
    flushBlock();  // the target is relative to the branch's own pc
    MicroOp op;
    op.op = Op::Branch;
    op.src1 = cond;
    op.target = pc_ + 4ull * (skip_ops + 1);
    op.taken = taken;
    emitDirect(op);
    if (taken)
        pc_ = op.target;
}

void
Emitter::jump(Label target)
{
    MicroOp op;
    op.op = Op::Jump;
    op.target = target.pc;
    op.taken = true;
    emitDirect(op);
    pc_ = target.pc;
}

Emitter::Label
Emitter::call(Addr region_pc)
{
    MicroOp op;
    op.op = Op::Jump;
    op.target = region_pc;
    op.taken = true;
    emitDirect(op);
    Label return_to{pc_};
    pc_ = region_pc;
    return return_to;
}

void
Emitter::ret(Label return_to)
{
    jump(return_to);
}

void
Emitter::backoff(std::uint16_t cycles)
{
    MicroOp op;
    op.op = Op::Backoff;
    op.backoffCycles = cycles;
    emitDirect(op);
}

void
Emitter::ctxSwitch()
{
    MicroOp op;
    op.op = Op::CtxSwitch;
    emitDirect(op);
}

void
Emitter::lock(std::uint32_t id)
{
    MicroOp op;
    op.op = Op::Lock;
    op.syncId = id;
    emitDirect(op);
}

void
Emitter::unlock(std::uint32_t id)
{
    MicroOp op;
    op.op = Op::Unlock;
    op.syncId = id;
    emitDirect(op);
}

void
Emitter::barrier(std::uint32_t id)
{
    MicroOp op;
    op.op = Op::Barrier;
    op.syncId = id;
    emitDirect(op);
}

ThreadSource::ThreadSource(Addr code_base, Addr data_base,
                           std::uint64_t seed, const KernelFn &kernel,
                           bool schedule)
    : em_(code_base, data_base, seed, schedule), coro_(kernel(em_))
{}

bool
ThreadSource::refill()
{
    MTSIM_PROF_SCOPE("frontend.replay");
    // clear() keeps the capacity, so the buffer is allocated by the
    // first refill, not at setup, and reused by every later one.
    std::vector<MicroOp> &buf = em_.out();
    buf.clear();
    pos_ = 0;
    {
        MTSIM_PROF_SCOPE("frontend.emit");
        while (buf.size() < kRefillOps && coro_.alive())
            coro_.resume();
    }
    // Kernel ended: flush any trailing half-block.
    if (buf.size() < kRefillOps)
        em_.pause();
    return !buf.empty();
}

} // namespace mtsim
