#include "common/config.hh"

#include <algorithm>
#include <stdexcept>

namespace mtsim {

const char *
schemeName(Scheme s)
{
    switch (s) {
      case Scheme::Single:      return "single";
      case Scheme::Blocked:     return "blocked";
      case Scheme::Interleaved: return "interleaved";
      case Scheme::FineGrained: return "fine-grained";
      default:                  return "?";
    }
}

namespace {

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

void
validateCache(const CacheParams &c, const char *name)
{
    if (c.lineBytes == 0 || !isPow2(c.lineBytes))
        throw std::invalid_argument(
            std::string(name) + ": line size must be a power of two");
    if (c.sizeBytes == 0 || c.sizeBytes % c.lineBytes != 0 ||
        !isPow2(c.sizeBytes / c.lineBytes)) {
        throw std::invalid_argument(
            std::string(name) + ": size must be a power-of-two number "
            "of lines");
    }
    if (c.fetchLines == 0)
        throw std::invalid_argument(
            std::string(name) + ": fetch size must be >= 1 line");
}

} // namespace

void
Config::validate() const
{
    if (numContexts == 0)
        throw std::invalid_argument("numContexts must be >= 1");
    if (issueWidth < 1 || issueWidth > 2)
        throw std::invalid_argument("issueWidth must be 1 or 2");
    if (scheme == Scheme::Single && numContexts != 1)
        throw std::invalid_argument(
            "single-context scheme requires numContexts == 1");
    if (scheme != Scheme::Single && numContexts < 1)
        throw std::invalid_argument("multithreaded scheme needs contexts");
    if (intPipeDepth < 5)
        throw std::invalid_argument("integer pipeline too shallow");
    // An op stays in flight for its pipe depth and a cycle issues at
    // most issueWidth ops; the processor's retire pass keeps the
    // in-flight set as one 64-bit mask.
    if (std::uint64_t{issueWidth} * std::max(intPipeDepth, fpPipeDepth) >
        64)
        throw std::invalid_argument(
            "issueWidth x pipeline depth must be <= 64 in-flight ops");
    if (sw.missDetectStage >= intPipeDepth)
        throw std::invalid_argument(
            "miss detect stage must lie within the pipeline");
    if (branchResolveStage >= intPipeDepth)
        throw std::invalid_argument(
            "branch resolve stage must lie within the pipeline");
    if (!isPow2(btbEntries))
        throw std::invalid_argument("BTB entries must be a power of two");
    validateCache(l1d, "l1d");
    validateCache(l1i, "l1i");
    validateCache(l2, "l2");
    if (numMshrs == 0)
        throw std::invalid_argument("need at least one MSHR");
    if (uniMem.numBanks == 0 || !isPow2(uniMem.numBanks))
        throw std::invalid_argument("memory banks must be a power of two");
    if (numProcessors == 0)
        throw std::invalid_argument("numProcessors must be >= 1");
    if (os.timeSliceCycles == 0)
        throw std::invalid_argument("time slice must be nonzero");
    if (mpMem.localMemLo > mpMem.localMemHi ||
        mpMem.remoteMemLo > mpMem.remoteMemHi ||
        mpMem.remoteCacheLo > mpMem.remoteCacheHi) {
        throw std::invalid_argument("MP latency range inverted");
    }
}

Config
Config::make(Scheme s, std::uint8_t contexts)
{
    Config c;
    c.scheme = s;
    c.numContexts = (s == Scheme::Single) ? 1 : contexts;
    c.validate();
    return c;
}

Config
Config::makeMp(Scheme s, std::uint8_t contexts, std::uint16_t procs)
{
    Config c = make(s, contexts);
    c.numProcessors = procs;
    // Section 5.2: ideal instruction cache, single-level data cache.
    c.idealICache = true;
    c.singleLevelDCache = true;
    c.validate();
    return c;
}

} // namespace mtsim
