/**
 * @file
 * Translation lookaside buffer timing model. Fully associative with
 * FIFO replacement; a miss costs a fixed software-refill penalty
 * (the paper attributes TLB stall time together with the
 * corresponding cache: "inst cache/TLB", "data cache/TLB").
 */

#ifndef MTSIM_CACHE_TLB_HH
#define MTSIM_CACHE_TLB_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"

namespace mtsim {

class Tlb
{
  public:
    explicit Tlb(const TlbParams &params);

    /**
     * Translate the page of @p a, refilling on a miss.
     * @return the stall penalty in cycles (0 on a hit).
     */
    std::uint32_t access(Addr a);

    /** Probe without refill. */
    bool present(Addr a) const { return slotOf(pageOf(a)) != kNone; }

    void clear();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    /** Page number no address maps to (pages are >= 2 bytes). */
    static constexpr Addr kEmpty = ~Addr(0);
    static constexpr std::size_t kNone = ~std::size_t(0);

    Addr pageOf(Addr a) const { return a >> pageShift_; }
    /** Home slot of @p page in set_ (Fibonacci hashing). */
    std::size_t
    homeOf(Addr page) const
    {
        return static_cast<std::size_t>(
            (page * 0x9E3779B97F4A7C15ull) >> setShift_);
    }
    /** Slot of set_ holding @p page, or kNone. */
    std::size_t slotOf(Addr page) const;
    void insert(Addr page);
    /** Remove @p page (present) by backward-shift deletion. */
    void erase(Addr page);

    TlbParams params_;
    std::uint32_t pageShift_;  ///< log2(pageBytes); pageBytes must be 2^k
    /** Resident pages in fill order; fifo_ is the next victim once
     *  all entries are in use. */
    std::vector<Addr> pages_;
    std::size_t used_ = 0;
    std::size_t fifo_ = 0;
    /**
     * The resident pages again, as an open-addressed set (linear
     * probing, kEmpty = free) with at least twice as many slots as
     * entries, so a lookup touches a slot or two instead of scanning
     * every entry.
     */
    std::vector<Addr> set_;
    std::size_t setMask_;
    std::uint32_t setShift_;   ///< 64 - log2(set_.size())
    Addr lastPage_ = kEmpty;   ///< one-entry micro-TLB fast path
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace mtsim

#endif // MTSIM_CACHE_TLB_HH
