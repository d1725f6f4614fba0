#include "prof/profiler.hh"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <new>

#include "metrics/json_stats.hh"

/*
 * Allocation counting replaces the global operator new/delete with
 * malloc/free wrappers that bump one relaxed counter while profiling
 * is enabled. Sanitizer builds keep the sanitizer's own allocator
 * interposition instead (it provides strictly better diagnostics).
 */
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MTSIM_ALLOC_TRACKING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MTSIM_ALLOC_TRACKING 0
#else
#define MTSIM_ALLOC_TRACKING 1
#endif
#else
#define MTSIM_ALLOC_TRACKING 1
#endif

namespace {

std::atomic<std::uint64_t> gAllocs{0};

} // namespace

#if MTSIM_ALLOC_TRACKING

namespace {

inline void
countAlloc()
{
    if (mtsim::prof::Profiler::enabled())
        gAllocs.fetch_add(1, std::memory_order_relaxed);
}

void *
allocOrThrow(std::size_t n)
{
    countAlloc();
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
alignedAllocOrThrow(std::size_t n, std::size_t align)
{
    countAlloc();
    if (align < sizeof(void *))
        align = sizeof(void *);
    void *p = nullptr;
    if (posix_memalign(&p, align, n ? n : 1) == 0)
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return allocOrThrow(n); }
void *operator new[](std::size_t n) { return allocOrThrow(n); }

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    countAlloc();
    return std::malloc(n ? n : 1);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    countAlloc();
    return std::malloc(n ? n : 1);
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    return alignedAllocOrThrow(n, static_cast<std::size_t>(a));
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return alignedAllocOrThrow(n, static_cast<std::size_t>(a));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

#endif // MTSIM_ALLOC_TRACKING

namespace mtsim::prof {

ProfNode *
ProfNode::child(const char *n)
{
    for (auto &c : children) {
        // Scope names are string literals; identical sites hand in
        // the identical pointer, so the strcmp is a cold fallback
        // for the same name spelled at two sites.
        if (c->name == n || std::strcmp(c->name, n) == 0)
            return c.get();
    }
    children.push_back(std::make_unique<ProfNode>(n, this));
    return children.back().get();
}

std::uint64_t
ProfNode::childNs() const
{
    std::uint64_t sum = 0;
    for (const auto &c : children)
        sum += c->ns;
    return sum;
}

thread_local ProfNode *Profiler::tlsCurrent_ = nullptr;

Profiler &
Profiler::instance()
{
    static Profiler p;
    return p;
}

void
Profiler::enable(bool on)
{
    enabled_ = on;
}

void
Profiler::reset()
{
    root_.children.clear();
    root_.ns = 0;
    root_.calls = 0;
    tlsCurrent_ = &root_;
    {
        std::lock_guard<std::mutex> g(workerMu_);
        workerRoots_.clear();
    }
    gAllocs.store(0, std::memory_order_relaxed);
}

void
Profiler::registerWorkerThread()
{
    auto root = std::make_unique<ProfNode>("(worker)", nullptr);
    tlsCurrent_ = root.get();
    std::lock_guard<std::mutex> g(workerMu_);
    workerRoots_.push_back(std::move(root));
}

void
Profiler::unregisterWorkerThread()
{
    tlsCurrent_ = nullptr;
}

ProfNode *
Profiler::push(const char *name)
{
    if (tlsCurrent_ == nullptr)
        tlsCurrent_ = &root_; // main thread, first scope
    ProfNode *node = tlsCurrent_->child(name);
    ++node->calls;
    tlsCurrent_ = node;
    return node;
}

void
Profiler::pop(ProfNode *node, std::uint64_t ns)
{
    assert(tlsCurrent_ == node && "mismatched profiler push/pop");
    node->ns += ns;
    tlsCurrent_ = node->parent != nullptr ? node->parent : &root_;
}

std::uint64_t
Profiler::allocCount()
{
    return gAllocs.load(std::memory_order_relaxed);
}

namespace {

std::string
fmtSeconds(std::uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%10.3f ms",
                  static_cast<double>(ns) / 1e6);
    return buf;
}

std::string
fmtShare(std::uint64_t ns, std::uint64_t total)
{
    char buf[32];
    const double pct =
        total > 0 ? 100.0 * static_cast<double>(ns) /
                        static_cast<double>(total)
                  : 0.0;
    std::snprintf(buf, sizeof(buf), "%6.1f%%", pct);
    return buf;
}

/** Children of @p n, largest inclusive time first. */
std::vector<const ProfNode *>
sortedChildren(const ProfNode &n)
{
    std::vector<const ProfNode *> kids;
    kids.reserve(n.children.size());
    for (const auto &c : n.children)
        kids.push_back(c.get());
    std::sort(kids.begin(), kids.end(),
              [](const ProfNode *a, const ProfNode *b) {
                  return a->ns > b->ns;
              });
    return kids;
}

void
printNode(std::ostream &os, const ProfNode &n, std::uint64_t total,
          int depth)
{
    const std::string name(2 * static_cast<std::size_t>(depth), ' ');
    os << "  " << std::left << std::setw(26) << name + n.name
       << std::right << fmtSeconds(n.ns) << fmtShare(n.ns, total)
       << std::setw(12) << n.calls << '\n';
    if (n.children.empty())
        return;
    for (const ProfNode *c : sortedChildren(n))
        printNode(os, *c, total, depth + 1);
    // Residual so leaf-level shares at any depth sum to the parent.
    const std::string self(
        2 * static_cast<std::size_t>(depth + 1), ' ');
    os << "  " << std::left << std::setw(26) << self + "(self)"
       << std::right << fmtSeconds(n.selfNs())
       << fmtShare(n.selfNs(), total) << std::setw(12) << ' ' << '\n';
}

void
writeNodeJson(JsonWriter &w, const ProfNode &n)
{
    w.beginObject();
    w.kv("name", n.name);
    w.kv("ns", n.ns);
    w.kv("self_ns", n.selfNs());
    w.kv("calls", n.calls);
    w.key("children");
    w.beginArray();
    for (const auto &c : n.children)
        writeNodeJson(w, *c);
    w.endArray();
    w.endObject();
}

/** Fold @p src's subtree into @p dst, matching children by name. */
void
mergeInto(ProfNode &dst, const ProfNode &src)
{
    for (const auto &c : src.children) {
        ProfNode *d = dst.child(c->name);
        d->ns += c->ns;
        d->calls += c->calls;
        mergeInto(*d, *c);
    }
}

} // namespace

ProfNode
Profiler::mergedTree() const
{
    ProfNode merged("(run)", nullptr);
    mergeInto(merged, root_);
    std::lock_guard<std::mutex> g(workerMu_);
    for (const auto &wr : workerRoots_)
        mergeInto(merged, *wr);
    return merged;
}

void
Profiler::report(std::ostream &os) const
{
    const ProfNode merged = mergedTree();
    const std::uint64_t total = merged.childNs();
    os << "self-profile: " << fmtSeconds(total) << " timed, "
       << allocCount() << " heap allocations\n";
    os << "  " << std::left << std::setw(26) << "scope" << std::right
       << std::setw(13) << "time" << std::setw(7) << "share"
       << std::setw(12) << "calls" << '\n';
    for (const ProfNode *c : sortedChildren(merged))
        printNode(os, *c, total, 0);
}

void
Profiler::writeJson(JsonWriter &w) const
{
    const ProfNode merged = mergedTree();
    w.beginObject();
    w.kv("total_ns", merged.childNs());
    w.kv("allocs", allocCount());
    w.key("tree");
    w.beginArray();
    for (const auto &c : merged.children)
        writeNodeJson(w, *c);
    w.endArray();
    w.endObject();
}

} // namespace mtsim::prof
