/**
 * @file
 * Host-side self-profiling: where do the *simulator's* wall-clock
 * cycles go? RAII scoped timers aggregate into a per-subsystem cost
 * tree (pipeline tick, caches, bus, directory, sync, OS scheduler,
 * probe/checker overhead), complemented by an allocation counter and
 * peak-RSS tracking (host_info.hh). Everything is strictly passive:
 * no simulated state is read or written, so a profiled run is
 * bit-identical to an unprofiled one.
 *
 * Profiling is off by default and every MTSIM_PROF_SCOPE site then
 * reduces to a single branch on one global bool - the simulation hot
 * path stays cost-free. Enable with `mtsim_run --prof`, the
 * MTSIM_PROF=1 environment variable (honoured by the driver and the
 * bench binaries), or Profiler::instance().enable(true). Defining
 * MTSIM_NO_PROF at compile time removes the sites entirely.
 *
 * The scope cursor is thread-local. The main thread binds lazily to
 * the shared root tree (preserving the classic single-threaded
 * behaviour exactly); host-parallel worker threads call
 * registerWorkerThread() to get a private cost tree, and report() /
 * writeJson() merge all trees by scope name into one view.
 */

#ifndef MTSIM_PROF_PROFILER_HH
#define MTSIM_PROF_PROFILER_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace mtsim {

class JsonWriter;

namespace prof {

/**
 * One node of the cost tree. `ns` is inclusive (time of the scope and
 * everything nested inside it); a node's self time is
 * ns - sum(children ns). Names are the string literals passed to
 * MTSIM_PROF_SCOPE; lookup compares pointers first, so re-entering a
 * scope from the same site never strcmps.
 */
struct ProfNode
{
    const char *name;
    ProfNode *parent;
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
    std::vector<std::unique_ptr<ProfNode>> children;

    ProfNode(const char *n, ProfNode *p) : name(n), parent(p) {}

    /** Find or create the child named @p n. */
    ProfNode *child(const char *n);

    /** Sum of the direct children's inclusive times. */
    std::uint64_t childNs() const;

    /** Inclusive time minus the children's (>= 0 by construction). */
    std::uint64_t
    selfNs() const
    {
        const std::uint64_t c = childNs();
        return ns > c ? ns - c : 0;
    }
};

/**
 * The global profiler. A singleton, because scoped-timer call sites
 * are scattered across components that have no common owner and the
 * whole simulator runs single-threaded.
 */
class Profiler
{
  public:
    static Profiler &instance();

    /** Fast global gate every MTSIM_PROF_SCOPE site checks. */
    static bool enabled() { return enabled_; }

    /** Turn scope timing and allocation counting on or off. */
    void enable(bool on);

    /** Drop the trees and counters (does not change enable state).
     *  Call only while no registered worker threads are live. */
    void reset();

    /** Top of the main thread's cost tree (its ns/calls stay zero;
     *  report uses the merged children sum as the denominator). */
    const ProfNode &root() const { return root_; }

    /** The calling thread's innermost open scope (root when none). */
    const ProfNode *
    current() const
    {
        return tlsCurrent_ != nullptr ? tlsCurrent_ : &root_;
    }

    /**
     * Bind the calling thread to a fresh private cost tree. Worker
     * threads of the host-parallel MP run loops call this before
     * their first scope so concurrent timing never races on one
     * cursor; report()/writeJson() fold every worker tree into the
     * main tree by scope name. Pair with unregisterWorkerThread()
     * before the thread exits.
     */
    void registerWorkerThread();
    void unregisterWorkerThread();

    /**
     * Open the child scope @p name of the current scope and make it
     * current. Returns the node the matching pop() must close.
     */
    ProfNode *push(const char *name);

    /** Close @p node, crediting @p ns of inclusive time to it. */
    void pop(ProfNode *node, std::uint64_t ns);

    /** Heap allocations observed while profiling was enabled. */
    static std::uint64_t allocCount();

    /**
     * Print the cost tree: one row per scope with inclusive time,
     * percent of the total, and call count; every scope with children
     * gets an extra "(self)" row so the leaf-level percentages sum to
     * 100% (+/- rounding) at any depth.
     */
    void report(std::ostream &os) const;

    /** Serialize the cost tree as nested {name, ns, calls, children}
     *  objects under the writer's current position. */
    void writeJson(JsonWriter &w) const;

  private:
    Profiler() : root_("(run)", nullptr) {}

    /** Merge of the main tree and every worker tree, by name. */
    ProfNode mergedTree() const;

    static inline bool enabled_ = false;
    /** Per-thread scope cursor; nullptr = not yet bound (the main
     *  thread binds to root_ on first use). */
    static thread_local ProfNode *tlsCurrent_;

    ProfNode root_;
    mutable std::mutex workerMu_;
    std::vector<std::unique_ptr<ProfNode>> workerRoots_;
};

/** Monotonic host clock in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * The RAII timer behind MTSIM_PROF_SCOPE. When profiling is disabled
 * construction is one branch: no clock read, no tree access, no
 * counter update (tests/prof_test.cc asserts this).
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(const char *name)
    {
        if (Profiler::enabled()) {
            node_ = Profiler::instance().push(name);
            start_ = nowNs();
        }
    }

    ~ScopedTimer()
    {
        if (node_ != nullptr)
            Profiler::instance().pop(node_, nowNs() - start_);
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    ProfNode *node_ = nullptr;
    std::uint64_t start_ = 0;
};

} // namespace prof
} // namespace mtsim

#ifdef MTSIM_NO_PROF
#define MTSIM_PROF_SCOPE(name) ((void)0)
#else
#define MTSIM_PROF_CONCAT2(a, b) a##b
#define MTSIM_PROF_CONCAT(a, b) MTSIM_PROF_CONCAT2(a, b)
#define MTSIM_PROF_SCOPE(name)                                       \
    ::mtsim::prof::ScopedTimer MTSIM_PROF_CONCAT(mtsimProfScope_,    \
                                                 __LINE__)(name)
#endif

#endif // MTSIM_PROF_PROFILER_HH
