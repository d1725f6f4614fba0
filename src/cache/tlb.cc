#include "cache/tlb.hh"

#include <algorithm>
#include <bit>
#include <cassert>

namespace mtsim {

Tlb::Tlb(const TlbParams &params)
    : params_(params),
      pageShift_(static_cast<std::uint32_t>(
          std::countr_zero(params.pageBytes))),
      pages_(params.entries, 0),
      set_(std::bit_ceil(2 * std::size_t{params.entries}), kEmpty),
      setMask_(set_.size() - 1),
      setShift_(64 - static_cast<std::uint32_t>(
                         std::countr_zero(set_.size())))
{
    assert(std::has_single_bit(params.pageBytes) &&
           "page size must be a power of two");
    assert(params.pageBytes >= 2 && "page numbers must miss kEmpty");
    assert(params.entries > 0);
}

std::size_t
Tlb::slotOf(Addr page) const
{
    // At most half the slots are full, so every probe run ends.
    for (std::size_t i = homeOf(page);; i = (i + 1) & setMask_) {
        if (set_[i] == page)
            return i;
        if (set_[i] == kEmpty)
            return kNone;
    }
}

void
Tlb::insert(Addr page)
{
    std::size_t i = homeOf(page);
    while (set_[i] != kEmpty)
        i = (i + 1) & setMask_;
    set_[i] = page;
}

void
Tlb::erase(Addr page)
{
    // Backward shift: pull each later page of the probe run into the
    // hole unless that would move it before its home slot, so every
    // run stays unbroken and no tombstones accumulate.
    std::size_t hole = slotOf(page);
    assert(hole != kNone);
    for (std::size_t j = (hole + 1) & setMask_; set_[j] != kEmpty;
         j = (j + 1) & setMask_) {
        const std::size_t from_home = (j - homeOf(set_[j])) & setMask_;
        if (from_home >= ((j - hole) & setMask_)) {
            set_[hole] = set_[j];
            hole = j;
        }
    }
    set_[hole] = kEmpty;
}

std::uint32_t
Tlb::access(Addr a)
{
    const Addr page = pageOf(a);
    if (page == lastPage_ || slotOf(page) != kNone) {
        lastPage_ = page;
        ++hits_;
        return 0;
    }
    ++misses_;
    if (used_ == pages_.size())
        erase(pages_[fifo_]);
    else
        ++used_;
    pages_[fifo_] = page;
    insert(page);
    if (++fifo_ == pages_.size())
        fifo_ = 0;
    lastPage_ = page;
    return params_.missPenalty;
}

void
Tlb::clear()
{
    std::fill(set_.begin(), set_.end(), kEmpty);
    used_ = 0;
    fifo_ = 0;
    lastPage_ = kEmpty;
}

} // namespace mtsim
