#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>

#include "storage/buffer_cache.h"
#include "storage/extent_allocator.h"
#include "storage/simulated_disk.h"
#include "storage/storage_accountant.h"
#include "storage/wal.h"
#include "util/clock.h"

namespace mbq::storage {
namespace {

// ---------------------------------------------------------- SimulatedDisk

TEST(SimulatedDiskTest, RoundTripsPages) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  PageId p0 = disk.AllocatePage();
  PageId p1 = disk.AllocatePage();
  EXPECT_EQ(p0, 0u);
  EXPECT_EQ(p1, 1u);

  std::vector<uint8_t> data(kPageSize, 0xAB);
  ASSERT_TRUE(disk.WritePage(p1, data.data()).ok());
  std::vector<uint8_t> out(kPageSize, 0);
  ASSERT_TRUE(disk.ReadPage(p1, out.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), data.data(), kPageSize), 0);
  // p0 stays zeroed.
  ASSERT_TRUE(disk.ReadPage(p0, out.data()).ok());
  EXPECT_EQ(out[0], 0);
}

TEST(SimulatedDiskTest, RejectsOutOfRange) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  std::vector<uint8_t> buf(kPageSize);
  EXPECT_TRUE(disk.ReadPage(0, buf.data()).IsOutOfRange());
  disk.AllocatePage();
  EXPECT_TRUE(disk.ReadPage(1, buf.data()).IsOutOfRange());
  EXPECT_TRUE(disk.WritePage(9, buf.data()).IsOutOfRange());
}

TEST(SimulatedDiskTest, ChargesSeekForRandomAccess) {
  VirtualClock clock;
  DiskProfile profile;  // HDD-like
  SimulatedDisk disk(profile, &clock);
  for (int i = 0; i < 1000; ++i) disk.AllocatePage();
  std::vector<uint8_t> buf(kPageSize);

  // Sequential scan: one seek then transfers.
  disk.ResetStats();
  for (PageId p = 0; p < 100; ++p) ASSERT_TRUE(disk.ReadPage(p, buf.data()).ok());
  uint64_t seq_seeks = disk.stats().seeks;
  uint64_t seq_nanos = disk.stats().busy_nanos;

  // Strided scan: every access seeks.
  disk.ResetStats();
  for (PageId p = 0; p < 1000; p += 100) {
    ASSERT_TRUE(disk.ReadPage(p, buf.data()).ok());
  }
  EXPECT_LE(seq_seeks, 2u);
  EXPECT_EQ(disk.stats().seeks, 10u);
  EXPECT_GT(disk.stats().busy_nanos / 10, seq_nanos / 100);
}

TEST(SimulatedDiskTest, TimeFlowsToClock) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile(), &clock);
  disk.AllocatePage();
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(disk.ReadPage(0, buf.data()).ok());
  EXPECT_EQ(clock.NowNanos(), disk.stats().busy_nanos);
  EXPECT_GT(clock.NowNanos(), 0u);
}

/// Points $TMPDIR at `dir` for the test's lifetime, restoring it after.
class ScopedTmpdir {
 public:
  explicit ScopedTmpdir(const std::string& dir) {
    if (const char* old = std::getenv("TMPDIR")) saved_ = old;
    setenv("TMPDIR", dir.c_str(), 1);
  }
  ~ScopedTmpdir() {
    if (saved_) {
      setenv("TMPDIR", saved_->c_str(), 1);
    } else {
      unsetenv("TMPDIR");
    }
  }

 private:
  std::optional<std::string> saved_;
};

bool DirIsEmpty(const std::string& dir) {
  return std::filesystem::directory_iterator(dir) ==
         std::filesystem::directory_iterator();
}

TEST(SimulatedDiskTest, FileBackedPagesStayPrivateAndLeaveNoFile) {
  std::string dir = ::testing::TempDir() + "/mbq_disk_XXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  {
    ScopedTmpdir tmpdir(dir);
    VirtualClock clock;
    SimulatedDisk a(DiskProfile::Instant(), &clock);
    SimulatedDisk b(DiskProfile::Instant(), &clock);
    constexpr PageId kPages = 300;  // 2.4 MiB per disk
    std::vector<uint8_t> page(kPageSize);
    for (PageId id = 0; id < kPages; ++id) {
      ASSERT_EQ(a.AllocatePage(), id);
      ASSERT_EQ(b.AllocatePage(), id);
      for (size_t i = 0; i < kPageSize; ++i) page[i] = (id * 7 + i) & 0xFF;
      ASSERT_TRUE(a.WritePage(id, page.data()).ok());
      page[0] ^= 0xFF;  // b's copy of each page differs from a's
      ASSERT_TRUE(b.WritePage(id, page.data()).ok());
    }
    EXPECT_TRUE(DirIsEmpty(dir));
    std::vector<uint8_t> out(kPageSize);
    for (PageId id = kPages; id-- > 0;) {
      ASSERT_TRUE(a.ReadPage(id, out.data()).ok());
      for (size_t i = 0; i < kPageSize; ++i) {
        ASSERT_EQ(out[i], (id * 7 + i) & 0xFF) << "page " << id;
      }
      ASSERT_TRUE(b.ReadPage(id, out.data()).ok());
      EXPECT_EQ(out[0], ((id * 7) & 0xFF) ^ 0xFF) << "page " << id;
    }
    // Rewrites of one page (a WAL's tail) read back the latest bytes,
    // before and after another page's write pushes them to the file.
    std::fill(page.begin(), page.end(), 0x11);
    ASSERT_TRUE(a.WritePage(7, page.data()).ok());
    std::fill(page.begin(), page.end(), 0x22);
    ASSERT_TRUE(a.WritePage(7, page.data()).ok());
    ASSERT_TRUE(a.ReadPage(7, out.data()).ok());
    EXPECT_EQ(out, page);
    ASSERT_TRUE(a.WritePage(8, page.data()).ok());
    ASSERT_TRUE(a.ReadPage(7, out.data()).ok());
    EXPECT_EQ(out, page);
    // A page past the last write reads as zeros; past the end is refused.
    PageId fresh = a.AllocatePage();
    ASSERT_TRUE(a.ReadPage(fresh, out.data()).ok());
    EXPECT_EQ(std::count(out.begin(), out.end(), 0),
              static_cast<long>(kPageSize));
    EXPECT_TRUE(a.ReadPage(fresh + 1, out.data()).IsOutOfRange());
    EXPECT_TRUE(a.WritePage(fresh + 1, out.data()).IsOutOfRange());

    a.InjectFailureAfter(2);
    EXPECT_TRUE(a.ReadPage(0, out.data()).ok());
    EXPECT_TRUE(a.WritePage(0, out.data()).ok());
    EXPECT_TRUE(a.ReadPage(0, out.data()).IsIoError());
    a.ClearFailure();
    EXPECT_TRUE(a.ReadPage(0, out.data()).ok());
    EXPECT_EQ(a.stats().page_reads, kPages + 5);
    EXPECT_EQ(a.SizeBytes(), (kPages + 1) * kPageSize);
  }
  EXPECT_TRUE(DirIsEmpty(dir));
  std::filesystem::remove(dir);
}

TEST(SimulatedDiskTest, MissingTmpdirSurfacesIoError) {
  ScopedTmpdir tmpdir(::testing::TempDir() + "/mbq_no_such_dir/nested");
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  PageId id = disk.AllocatePage();
  std::vector<uint8_t> buf(kPageSize);
  EXPECT_TRUE(disk.WritePage(id, buf.data()).IsIoError());
  EXPECT_TRUE(disk.ReadPage(id, buf.data()).IsIoError());
}

// ------------------------------------------------------------ BufferCache

BufferCacheOptions SmallCache(size_t pages) {
  BufferCacheOptions options;
  options.capacity_pages = pages;
  return options;
}

TEST(BufferCacheTest, CachesReads) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCache cache(&disk, SmallCache(4));
  PageId id;
  {
    auto page = cache.NewPage();
    ASSERT_TRUE(page.ok());
    id = page->page_id();
  }
  uint64_t misses = cache.stats().misses;
  for (int i = 0; i < 10; ++i) {
    auto ref = cache.GetPage(id);
    ASSERT_TRUE(ref.ok());
  }
  EXPECT_EQ(cache.stats().misses, misses);  // all hits
  EXPECT_GE(cache.stats().hits, 10u);
}

TEST(BufferCacheTest, WritesBackDirtyPagesOnEviction) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCache cache(&disk, SmallCache(2));
  PageId first;
  {
    auto page = cache.NewPage();
    ASSERT_TRUE(page.ok());
    first = page->page_id();
    page->data()[0] = 0x7F;
    page->MarkDirty();
  }
  // Fill the cache to force eviction of `first`.
  for (int i = 0; i < 4; ++i) {
    auto page = cache.NewPage();
    ASSERT_TRUE(page.ok());
    page->MarkDirty();
  }
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(disk.ReadPage(first, buf.data()).ok());
  EXPECT_EQ(buf[0], 0x7F);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(BufferCacheTest, PinnedPagesSurviveEviction) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCache cache(&disk, SmallCache(3));
  auto pinned = cache.NewPage();
  ASSERT_TRUE(pinned.ok());
  pinned->data()[1] = 0x55;
  // Churn through many pages; the pinned frame must not be reused.
  for (int i = 0; i < 10; ++i) {
    auto page = cache.NewPage();
    ASSERT_TRUE(page.ok());
  }
  EXPECT_EQ(pinned->data()[1], 0x55);
}

TEST(BufferCacheTest, AllPinnedFails) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCache cache(&disk, SmallCache(2));
  auto a = cache.NewPage();
  auto b = cache.NewPage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = cache.NewPage();
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsFailedPrecondition());
}

TEST(BufferCacheTest, WriteThroughPropagatesImmediately) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCacheOptions options = SmallCache(4);
  options.write_policy = WritePolicy::kWriteThrough;
  BufferCache cache(&disk, options);
  auto page = cache.NewPage();
  ASSERT_TRUE(page.ok());
  page->data()[5] = 0x11;
  page->MarkDirty();
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(disk.ReadPage(page->page_id(), buf.data()).ok());
  EXPECT_EQ(buf[5], 0x11);
}

TEST(BufferCacheTest, FlushAllStallCountsOnce) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCacheOptions options = SmallCache(4);
  options.flush_all_when_full = true;
  BufferCache cache(&disk, options);
  for (int i = 0; i < 12; ++i) {
    auto page = cache.NewPage();
    ASSERT_TRUE(page.ok());
    page->MarkDirty();
  }
  EXPECT_GT(cache.stats().flush_stalls, 0u);
}

TEST(BufferCacheTest, EvictAllColdStart) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCache cache(&disk, SmallCache(8));
  PageId id;
  {
    auto page = cache.NewPage();
    ASSERT_TRUE(page.ok());
    id = page->page_id();
    page->data()[0] = 9;
    page->MarkDirty();
  }
  ASSERT_TRUE(cache.EvictAll().ok());
  EXPECT_EQ(cache.cached_pages(), 0u);
  uint64_t misses = cache.stats().misses;
  auto ref = cache.GetPage(id);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(cache.stats().misses, misses + 1);  // cold read
  EXPECT_EQ(ref->data()[0], 9);                 // data survived the flush
}

// -------------------------------------------------------------------- WAL

TEST(WalTest, AppendsAndReplaysDurableRecords) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  Wal wal(&disk);
  std::vector<uint8_t> rec1{1, 2, 3};
  std::vector<uint8_t> rec2{4, 5};
  EXPECT_EQ(wal.Append(rec1), 0u);
  EXPECT_EQ(wal.Append(rec2), 1u);
  ASSERT_TRUE(wal.Sync().ok());

  std::vector<std::vector<uint8_t>> seen;
  ASSERT_TRUE(wal.Replay([&](uint64_t lsn, const std::vector<uint8_t>& p) {
                   EXPECT_EQ(lsn, seen.size());
                   seen.push_back(p);
                   return Status::OK();
                 })
                  .ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], rec1);
  EXPECT_EQ(seen[1], rec2);
}

TEST(WalTest, UnsyncedRecordsAreNotDurable) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  Wal wal(&disk);
  wal.Append({1});
  ASSERT_TRUE(wal.Sync().ok());
  wal.Append({2});  // not synced
  size_t count = 0;
  ASSERT_TRUE(wal.Replay([&](uint64_t, const std::vector<uint8_t>&) {
                   ++count;
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(count, 1u);
}

TEST(WalTest, LargeRecordsSpanPages) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  Wal wal(&disk);
  std::vector<uint8_t> big(3 * kPageSize, 0xEE);
  wal.Append(big);
  ASSERT_TRUE(wal.Sync().ok());
  size_t count = 0;
  ASSERT_TRUE(wal.Replay([&](uint64_t, const std::vector<uint8_t>& p) {
                   EXPECT_EQ(p, big);
                   ++count;
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(count, 1u);
  EXPECT_GE(disk.num_pages(), 3u);
}

TEST(WalTest, ResetClearsLog) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  Wal wal(&disk);
  wal.Append({1});
  ASSERT_TRUE(wal.Sync().ok());
  wal.Reset();
  EXPECT_EQ(wal.next_lsn(), 0u);
  size_t count = 0;
  ASSERT_TRUE(wal.Replay([&](uint64_t, const std::vector<uint8_t>&) {
                   ++count;
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(count, 0u);
}

// -------------------------------------------------------- ExtentAllocator

TEST(ExtentAllocatorTest, StreamsGetContiguousRuns) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  ExtentAllocator extents(&disk, /*extent_pages=*/4);
  std::vector<PageId> a;
  for (int i = 0; i < 4; ++i) a.push_back(extents.AllocatePage(0));
  // One extent: consecutive page ids.
  for (int i = 1; i < 4; ++i) EXPECT_EQ(a[i], a[i - 1] + 1);
  EXPECT_EQ(extents.extents_allocated(), 1u);
}

TEST(ExtentAllocatorTest, InterleavedStreamsFragmentWithSmallExtents) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  ExtentAllocator small(&disk, 1);
  // Alternate two streams: with 1-page extents their pages interleave.
  PageId s0a = small.AllocatePage(0);
  PageId s1a = small.AllocatePage(1);
  PageId s0b = small.AllocatePage(0);
  EXPECT_EQ(s1a, s0a + 1);
  EXPECT_EQ(s0b, s1a + 1);  // stream 0 is no longer contiguous

  ExtentAllocator big(&disk, 8);
  PageId b0a = big.AllocatePage(0);
  big.AllocatePage(1);
  PageId b0b = big.AllocatePage(0);
  EXPECT_EQ(b0b, b0a + 1);  // still inside stream 0's extent
}

TEST(ExtentAllocatorTest, TracksStreamPages) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  ExtentAllocator extents(&disk, 2);
  extents.AllocatePage(3);
  extents.AllocatePage(3);
  extents.AllocatePage(3);
  EXPECT_EQ(extents.StreamPages(3).size(), 3u);
  EXPECT_TRUE(extents.StreamPages(99).empty());
  EXPECT_EQ(extents.extents_allocated(), 2u);
}

// ------------------------------------------------------ StorageAccountant

TEST(StorageAccountantTest, AppendsAllocatePagesAndFlush) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCache cache(&disk, BufferCacheOptions{});
  ExtentAllocator extents(&disk, 8);
  StorageAccountant acct(&cache, &extents);
  uint32_t stream = acct.NewStream();
  auto off0 = acct.AppendBytes(stream, 100);
  ASSERT_TRUE(off0.ok());
  EXPECT_EQ(*off0, 0u);
  auto off1 = acct.AppendBytes(stream, kPageSize);
  ASSERT_TRUE(off1.ok());
  EXPECT_EQ(*off1, 100u);
  EXPECT_EQ(acct.StreamBytes(stream), 100 + kPageSize);
  ASSERT_TRUE(acct.Finalize().ok());
  EXPECT_GT(disk.stats().page_writes, 0u);
}

TEST(StorageAccountantTest, TouchReadChargesColdPages) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCacheOptions options;
  options.capacity_pages = 16;
  BufferCache cache(&disk, options);
  ExtentAllocator extents(&disk, 8);
  StorageAccountant acct(&cache, &extents);
  uint32_t stream = acct.NewStream();
  ASSERT_TRUE(acct.AppendBytes(stream, 4 * kPageSize).ok());
  ASSERT_TRUE(acct.Finalize().ok());
  ASSERT_TRUE(cache.EvictAll().ok());
  uint64_t reads = disk.stats().page_reads;
  ASSERT_TRUE(acct.TouchRead(stream, 0, 2 * kPageSize).ok());
  EXPECT_GE(disk.stats().page_reads, reads + 2);
  // Warm now: no further reads.
  reads = disk.stats().page_reads;
  ASSERT_TRUE(acct.TouchRead(stream, 0, 2 * kPageSize).ok());
  EXPECT_EQ(disk.stats().page_reads, reads);
}

TEST(StorageAccountantTest, TouchPastEndIsSafe) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCache cache(&disk, BufferCacheOptions{});
  ExtentAllocator extents(&disk, 8);
  StorageAccountant acct(&cache, &extents);
  uint32_t stream = acct.NewStream();
  EXPECT_TRUE(acct.TouchRead(stream, 0, 100).ok());  // empty stream
  ASSERT_TRUE(acct.AppendBytes(stream, 10).ok());
  EXPECT_TRUE(acct.TouchRead(stream, 5 * kPageSize, 100).ok());
}

}  // namespace
}  // namespace mbq::storage

namespace mbq::storage {
namespace {

// --------------------------------------------------------- Fault injection

TEST(FaultInjectionTest, DiskFailsAfterBudget) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  disk.AllocatePage();
  std::vector<uint8_t> buf(kPageSize);
  disk.InjectFailureAfter(2);
  EXPECT_TRUE(disk.ReadPage(0, buf.data()).ok());
  EXPECT_TRUE(disk.WritePage(0, buf.data()).ok());
  EXPECT_TRUE(disk.ReadPage(0, buf.data()).IsIoError());
  EXPECT_TRUE(disk.WritePage(0, buf.data()).IsIoError());
  disk.ClearFailure();
  EXPECT_TRUE(disk.ReadPage(0, buf.data()).ok());
}

TEST(FaultInjectionTest, BufferCachePropagatesReadFailure) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCacheOptions options;
  options.capacity_pages = 4;
  BufferCache cache(&disk, options);
  PageId id;
  {
    auto page = cache.NewPage();
    ASSERT_TRUE(page.ok());
    id = page->page_id();
    page->MarkDirty();
  }
  ASSERT_TRUE(cache.EvictAll().ok());
  disk.InjectFailureAfter(0);
  auto ref = cache.GetPage(id);
  EXPECT_FALSE(ref.ok());
  EXPECT_TRUE(ref.status().IsIoError());
  // The cache stays usable after the device recovers.
  disk.ClearFailure();
  auto again = cache.GetPage(id);
  EXPECT_TRUE(again.ok());
}

TEST(FaultInjectionTest, FlushSurfacesWriteFailure) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCache cache(&disk, BufferCacheOptions{});
  {
    auto page = cache.NewPage();
    ASSERT_TRUE(page.ok());
    page->MarkDirty();
  }
  disk.InjectFailureAfter(0);
  EXPECT_TRUE(cache.FlushAll().IsIoError());
  disk.ClearFailure();
  EXPECT_TRUE(cache.FlushAll().ok());
}

}  // namespace
}  // namespace mbq::storage
