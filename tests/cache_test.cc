/**
 * @file
 * Unit tests for the cache building blocks: direct-mapped tag array,
 * MSHRs, write buffer, TLB and instruction cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/cache.hh"
#include "cache/icache.hh"
#include "cache/mshr.hh"
#include "cache/tlb.hh"
#include "cache/write_buffer.hh"
#include "common/rng.hh"

namespace mtsim {
namespace {

CacheParams
smallCache()
{
    return CacheParams{1024, 32, 1, 1, 1, 2, 1};  // 32 lines
}

// ---- Cache ------------------------------------------------------------

TEST(Cache, MissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.present(0x100));
    c.fill(0x100, LineState::Shared);
    EXPECT_TRUE(c.present(0x100));
    EXPECT_TRUE(c.present(0x11f));   // same line
    EXPECT_FALSE(c.present(0x120));  // next line
}

TEST(Cache, LineAddrMasksOffset)
{
    Cache c(smallCache());
    EXPECT_EQ(c.lineAddrOf(0x1234), 0x1220u);
}

TEST(Cache, ConflictEvictsAndReportsVictim)
{
    Cache c(smallCache());   // 32 lines -> stride 1024 aliases
    c.fill(0x100, LineState::Dirty);
    Cache::Evicted ev = c.fill(0x100 + 1024, LineState::Shared);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.lineAddr, 0x100u);
    EXPECT_FALSE(c.present(0x100));
    EXPECT_TRUE(c.present(0x100 + 1024));
}

TEST(Cache, RefillSameLineIsNotEviction)
{
    Cache c(smallCache());
    c.fill(0x100, LineState::Shared);
    Cache::Evicted ev = c.fill(0x100, LineState::Dirty);
    EXPECT_FALSE(ev.valid);
    EXPECT_EQ(c.state(0x100), LineState::Dirty);
}

TEST(Cache, MakeDirtyAndInvalidate)
{
    Cache c(smallCache());
    c.fill(0x200, LineState::Shared);
    c.makeDirty(0x200);
    EXPECT_EQ(c.state(0x200), LineState::Dirty);
    EXPECT_TRUE(c.invalidate(0x200));    // dirty -> writeback
    EXPECT_FALSE(c.present(0x200));
    EXPECT_FALSE(c.invalidate(0x200));   // already gone
}

TEST(Cache, DowngradeDirtyToShared)
{
    Cache c(smallCache());
    c.fill(0x300, LineState::Dirty);
    c.downgrade(0x300);
    EXPECT_EQ(c.state(0x300), LineState::Shared);
    // Downgrading a shared line is a no-op.
    c.downgrade(0x300);
    EXPECT_EQ(c.state(0x300), LineState::Shared);
}

TEST(Cache, MakeDirtyOnAbsentLineIsNoop)
{
    Cache c(smallCache());
    c.makeDirty(0x500);
    EXPECT_FALSE(c.present(0x500));
}

TEST(Cache, PortReservationSerializes)
{
    Cache c(smallCache());
    EXPECT_EQ(c.reservePort(10, 2), 10u);
    EXPECT_EQ(c.reservePort(10, 2), 12u);  // busy until 12
    EXPECT_EQ(c.reservePort(20, 1), 20u);  // idle gap
}

TEST(Cache, DisplaceRandomInvalidates)
{
    Cache c(smallCache());
    for (Addr a = 0; a < 1024; a += 32)
        c.fill(a, LineState::Shared);
    EXPECT_DOUBLE_EQ(c.occupancyFraction(), 1.0);
    Rng rng(3);
    c.displaceRandom(64, rng);
    EXPECT_LT(c.occupancyFraction(), 1.0);
}

TEST(Cache, ClearEmptiesEverything)
{
    Cache c(smallCache());
    c.fill(0x40, LineState::Dirty);
    c.clear();
    EXPECT_FALSE(c.present(0x40));
    EXPECT_DOUBLE_EQ(c.occupancyFraction(), 0.0);
}

// ---- MshrFile -----------------------------------------------------------

TEST(Mshr, AllocateTrackAndRetire)
{
    MshrFile m(2);
    EXPECT_FALSE(m.outstanding(0x100));
    m.allocate(0x100, 50);
    EXPECT_TRUE(m.outstanding(0x100));
    EXPECT_EQ(m.completionOf(0x100), 50u);
    EXPECT_EQ(m.inUse(), 1u);
    m.retire(49);
    EXPECT_TRUE(m.outstanding(0x100));
    m.retire(50);
    EXPECT_FALSE(m.outstanding(0x100));
}

TEST(Mshr, FullWhenAllAllocated)
{
    MshrFile m(2);
    m.allocate(0x100, 50);
    EXPECT_FALSE(m.full());
    m.allocate(0x200, 60);
    EXPECT_TRUE(m.full());
    m.retire(55);
    EXPECT_FALSE(m.full());
}

TEST(Mshr, CompletionOfUnknownIsNever)
{
    MshrFile m(2);
    EXPECT_EQ(m.completionOf(0x900), kCycleNever);
}

TEST(Mshr, StatsCountAllocationsAndMerges)
{
    MshrFile m(4);
    m.allocate(0x100, 10);
    m.allocate(0x200, 20);
    m.noteMerge();
    EXPECT_EQ(m.allocations(), 2u);
    EXPECT_EQ(m.merges(), 1u);
}

// ---- WriteBuffer ----------------------------------------------------------

TEST(WriteBuffer, FillsUpAndDrains)
{
    WriteBuffer wb(2);
    EXPECT_FALSE(wb.full(0));
    wb.push(10);
    wb.push(20);
    EXPECT_TRUE(wb.full(5));
    EXPECT_EQ(wb.freeSlotAt(5), 10u);
    EXPECT_FALSE(wb.full(10));
    EXPECT_EQ(wb.inUse(5), 2u);
    EXPECT_EQ(wb.inUse(15), 1u);
    EXPECT_EQ(wb.inUse(25), 0u);
}

TEST(WriteBuffer, FreeSlotNowWhenIdle)
{
    WriteBuffer wb(2);
    EXPECT_EQ(wb.freeSlotAt(7), 7u);
}

TEST(WriteBuffer, ClearEmpties)
{
    WriteBuffer wb(1);
    wb.push(100);
    wb.clear();
    EXPECT_FALSE(wb.full(0));
}

// ---- Tlb -------------------------------------------------------------------

TEST(Tlb, MissThenHit)
{
    Tlb t(TlbParams{4, 4096, 25});
    EXPECT_EQ(t.access(0x1000), 25u);
    EXPECT_EQ(t.access(0x1abc), 0u);   // same page
    EXPECT_EQ(t.access(0x2000), 25u);  // different page
    EXPECT_EQ(t.hits(), 1u);
    EXPECT_EQ(t.misses(), 2u);
}

TEST(Tlb, FifoReplacement)
{
    Tlb t(TlbParams{2, 4096, 25});
    t.access(0x1000);
    t.access(0x2000);
    t.access(0x3000);   // evicts 0x1000
    EXPECT_FALSE(t.present(0x1000));
    EXPECT_TRUE(t.present(0x2000));
    EXPECT_TRUE(t.present(0x3000));
}

TEST(Tlb, ClearForgets)
{
    Tlb t(TlbParams{4, 4096, 25});
    t.access(0x1000);
    t.clear();
    EXPECT_FALSE(t.present(0x1000));
    EXPECT_EQ(t.access(0x1000), 25u);
}

/** Linear-scan FIFO TLB: what Tlb must behave like. */
class ReferenceTlb
{
  public:
    explicit ReferenceTlb(const TlbParams &p) : p_(p) {}

    std::uint32_t
    access(Addr a)
    {
        if (present(a)) {
            ++hits_;
            return 0;
        }
        ++misses_;
        if (fifo_.size() == p_.entries)
            fifo_.erase(fifo_.begin());
        fifo_.push_back(a / p_.pageBytes);
        return p_.missPenalty;
    }

    bool
    present(Addr a) const
    {
        return std::find(fifo_.begin(), fifo_.end(), a / p_.pageBytes) !=
               fifo_.end();
    }

    void clear() { fifo_.clear(); }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    TlbParams p_;
    std::vector<Addr> fifo_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

TEST(Tlb, MatchesLinearScanFifoOnRandomStreams)
{
    const TlbParams shapes[] = {{48, 4096, 20}, {64, 4096, 25}};
    for (const TlbParams &p : shapes) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            Rng rng(seed * 7919 + p.entries);
            // A pool about twice the TLB's reach keeps it evicting;
            // half the pool is dense, half scattered over 52 bits.
            std::vector<Addr> pool;
            for (std::uint32_t i = 0; i < p.entries; ++i)
                pool.push_back(0x4000 + i);
            for (std::uint32_t i = 0; i < p.entries + 16; ++i)
                pool.push_back(rng.next() >> 12);
            Tlb t(p);
            ReferenceTlb ref(p);
            Addr last = 0;
            for (int step = 0; step < 20000; ++step) {
                if (step == 10000) {
                    t.clear();
                    ref.clear();
                }
                Addr a;
                if (step > 0 && rng.chance(0.3)) {
                    // Same page again, another offset.
                    a = (last & ~Addr(p.pageBytes - 1)) |
                        rng.range(p.pageBytes);
                } else {
                    a = pool[rng.range(pool.size())] * p.pageBytes +
                        rng.range(p.pageBytes);
                }
                last = a;
                ASSERT_EQ(t.access(a), ref.access(a))
                    << "entries " << p.entries << " seed " << seed
                    << " step " << step;
                const Addr probe =
                    pool[rng.range(pool.size())] * p.pageBytes;
                ASSERT_EQ(t.present(probe), ref.present(probe))
                    << "entries " << p.entries << " seed " << seed
                    << " step " << step;
                ASSERT_TRUE(t.present(a));
            }
            EXPECT_EQ(t.hits(), ref.hits());
            EXPECT_EQ(t.misses(), ref.misses());
            EXPECT_GT(t.misses(), 2000u);  // evictions were exercised
            std::size_t resident = 0;
            for (Addr page : pool)
                resident += t.present(page * p.pageBytes);
            EXPECT_EQ(resident, p.entries);
        }
    }
}

// ---- ICache ----------------------------------------------------------------

TEST(ICache, MissFillHit)
{
    CacheParams p{1024, 32, 2, 1, 0, 0, 8};
    ICache ic(p, TlbParams{4, 4096, 20});
    ICache::Access a = ic.access(0x5000);
    EXPECT_FALSE(a.hit);
    EXPECT_EQ(a.tlbPenalty, 20u);
    ic.fill(a.lineAddr, 100);
    EXPECT_TRUE(ic.access(0x5000).hit);
    // Two-line fetch also brought in the next line.
    EXPECT_TRUE(ic.access(0x5020).hit);
    EXPECT_FALSE(ic.access(0x5040).hit);
    EXPECT_EQ(ic.hits(), 2u);
    EXPECT_EQ(ic.misses(), 2u);
}

TEST(ICache, FillOccupancyBlocksArray)
{
    CacheParams p{1024, 32, 2, 1, 0, 0, 8};
    ICache ic(p, TlbParams{4, 4096, 0});
    ic.fill(0x100, 50);
    EXPECT_EQ(ic.arrayFreeAt(), 58u);   // 50 + fill occupancy 8
}

} // namespace
} // namespace mtsim
