/** @file Kept only for perfbench, which times decode through this
 *  API. The one front end is ThreadSource; there is no decode cache. */

#ifndef MTSIM_WORKLOAD_REPLAY_HH
#define MTSIM_WORKLOAD_REPLAY_HH

#include "workload/emitter.hh"

namespace mtsim {

/** A ThreadSource that counts the ops it has decoded. */
struct ReplayProgram final : ThreadSource
{
    using ThreadSource::ThreadSource;

    /** Decode through op @p idx; false if the kernel ends first. */
    bool
    materialize(std::size_t idx)
    {
        for (MicroOp op; decoded <= idx && next(op);)
            ++decoded;
        return decoded > idx;
    }
    std::size_t decodedOps() const { return decoded; }
    std::size_t decoded = 0;
};

inline void clearReplayProgramCache() {}

} // namespace mtsim
#endif // MTSIM_WORKLOAD_REPLAY_HH
