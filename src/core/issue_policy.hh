/**
 * @file
 * Context-selection helpers shared by the scheme implementations in
 * the processor: ring scans for round-robin interleaving and for the
 * blocked scheme's switch-target choice.
 *
 * The primary overloads scan a processor's ContextHotState block
 * (contiguous per-context arrays, docs/ARCHITECTURE.md §3); the
 * vector<ThreadContext> overloads express the same semantics through
 * the per-context accessors and exist for tests and cold callers.
 * Both read the same SoA-backed truth, so they cannot diverge.
 */

#ifndef MTSIM_CORE_ISSUE_POLICY_HH
#define MTSIM_CORE_ISSUE_POLICY_HH

#include <vector>

#include "common/types.hh"
#include "core/context.hh"

namespace mtsim {

/**
 * First context available at @p now scanning the ring starting AFTER
 * @p from (wrapping), or -1 if none.
 */
int nextAvailableRing(const ContextHotState &hot, int from, Cycle now);
int nextAvailableRing(const std::vector<ThreadContext> &ctxs, int from,
                      Cycle now);

/**
 * True if any loaded, unfinished context other than @p self exists
 * (the hardware's "is there anyone to switch to" test).
 */
bool otherThreadExists(const ContextHotState &hot, int self);
bool otherThreadExists(const std::vector<ThreadContext> &ctxs, int self);

/** Count of contexts available at @p now. */
int availableCount(const ContextHotState &hot, Cycle now);
int availableCount(const std::vector<ThreadContext> &ctxs, Cycle now);

/**
 * Among loaded, unfinished contexts, the index of the one with the
 * earliest availability time (-1 if none are loaded). Used when no
 * context is available, to attribute the idle cycle to whatever the
 * gating context waits for.
 */
int soonestAvailable(const ContextHotState &hot);
int soonestAvailable(const std::vector<ThreadContext> &ctxs);

} // namespace mtsim

#endif // MTSIM_CORE_ISSUE_POLICY_HH
