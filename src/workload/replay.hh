/**
 * @file
 * Pre-decoded replay front end (docs/ARCHITECTURE.md §9). A
 * ReplayProgram runs a kernel coroutine through the regular Emitter
 * pipeline (register allocation, pc assignment, Twine-style block
 * scheduling) and records the resulting micro-op stream in one flat,
 * append-only array. ReplayCursor adapts that array to the
 * InstrSource pull interface with a trivial bounds-check-and-copy
 * next(), replacing the coroutine resume / deque machinery on the
 * per-fetch hot path.
 *
 * Decoding is lazy but monotonic: the coroutine is resumed in chunks
 * the first time a cursor reads past the decoded prefix, and every op
 * ever decoded stays in the buffer (the program is immutable once
 * written, never shrunk). That makes cursors cheap to re-point: an OS
 * swap that later reloads the same thread continues from the same
 * cursor, and the stream it sees is byte-identical to what the
 * coroutine path would have produced, because it *is* that stream,
 * recorded.
 *
 * Trade-off: the full decoded stream is retained for the life of the
 * program (sizeof(MicroOp) = 48 bytes per op), where the coroutine
 * path kept only a
 * small window buffered. Long runs pay RSS for front-end speed;
 * --no-replay restores the lazy path.
 */

#ifndef MTSIM_WORKLOAD_REPLAY_HH
#define MTSIM_WORKLOAD_REPLAY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/emitter.hh"
#include "workload/program.hh"

namespace mtsim {

class ReplayProgram
{
  public:
    /** Same signature as ThreadSource: the decode pipeline is the
     *  coroutine front end, run behind the buffer. */
    ReplayProgram(Addr code_base, Addr data_base, std::uint64_t seed,
                  const KernelFn &kernel, bool schedule = true);

    /**
     * Ensure op @p idx is decoded, resuming the coroutine by chunks
     * if needed. @return false when the program ends before @p idx.
     */
    bool
    materialize(std::size_t idx)
    {
        if (idx < ops_.size())
            return true;
        return decodeTo(idx);
    }

    const MicroOp &at(std::size_t idx) const { return ops_[idx]; }

    /** Ops decoded so far (== program length once complete()). */
    std::size_t decodedOps() const { return ops_.size(); }

    /** True once the kernel coroutine has run to completion. */
    bool complete() const { return done_; }

  private:
    bool decodeTo(std::size_t idx);

    /** Chunk granularity: one coroutine-resume burst per refill. */
    static constexpr std::size_t kChunkOps = 4096;

    ThreadSource decode_;
    std::vector<MicroOp> ops_;
    bool done_ = false;
};

/**
 * Process-wide decoded-program cache, filled through a non-empty
 * cache key of UniSystem::addApp / MpSystem::loadApp: repeated runs
 * of one config would otherwise re-decode identical kernels. The
 * first run decodes (lazily, as ever); later runs get the same
 * ReplayProgram back and extend its decoded prefix at most once.
 * Callers must guarantee one key names one (code, data, seed,
 * kernel-stream) combination - a config name plus app/thread index
 * pins all four. Digest-pinned by construction: a cached program
 * *is* the recorded stream, so later runs replay byte-identical ops.
 * Not for concurrent use of one program by two host threads.
 */
std::shared_ptr<ReplayProgram>
cachedReplayProgram(const std::string &key, Addr code_base,
                    Addr data_base, std::uint64_t seed,
                    const KernelFn &kernel);

/** Drop the decode cache (frees the retained op arrays). */
void clearReplayProgramCache();

/**
 * A read position in a ReplayProgram. This is what the processor
 * fetch stage consumes; the OS scheduler re-points contexts at the
 * same cursor across swaps, so the position advances exactly as the
 * coroutine source's internal state would have.
 */
class ReplayCursor : public InstrSource
{
  public:
    explicit ReplayCursor(std::shared_ptr<ReplayProgram> prog)
        : prog_(std::move(prog))
    {}

    bool
    next(MicroOp &op) override
    {
        if (!prog_->materialize(idx_))
            return false;
        op = prog_->at(idx_++);
        return true;
    }

    std::size_t position() const { return idx_; }
    const ReplayProgram &program() const { return *prog_; }

  private:
    std::shared_ptr<ReplayProgram> prog_;
    std::size_t idx_ = 0;
};

} // namespace mtsim

#endif // MTSIM_WORKLOAD_REPLAY_HH
