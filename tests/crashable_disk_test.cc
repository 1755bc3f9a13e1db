// Unit tests for CrashableDisk: crash-state enumeration (barrier
// legality, golden counts, dedup, sampling), flush fault injection,
// snapshot bookkeeping, and the MTD observer path — including the
// regression test for MtdBlockShim::Flush(), which used to be a silent
// no-op and made every un-flushed write look durable.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "storage/crashable_disk.h"
#include "storage/mtd_device.h"
#include "storage/ram_disk.h"

namespace mcfs::storage {
namespace {

std::shared_ptr<CrashableDisk> MakeDisk(std::uint64_t bytes = 4096) {
  return std::make_shared<CrashableDisk>(
      std::make_shared<RamDisk>("d0", bytes, nullptr));
}

Bytes ReadAll(BlockDevice& dev) {
  Bytes out(dev.size_bytes());
  EXPECT_TRUE(dev.Read(0, out).ok());
  return out;
}

TEST(CrashableDiskTest, GoldenCountsForThreeWritesOneBarrier) {
  auto disk = MakeDisk();
  // One barriered write, then three in-flight writes at distinct offsets.
  ASSERT_TRUE(disk->Write(0, AsBytes("base")).ok());
  ASSERT_TRUE(disk->Flush().ok());
  ASSERT_TRUE(disk->Write(100, AsBytes("aa")).ok());
  ASSERT_TRUE(disk->Write(200, AsBytes("bb")).ok());
  ASSERT_TRUE(disk->Write(300, AsBytes("cc")).ok());
  ASSERT_EQ(disk->pending_writes(), 3u);
  ASSERT_EQ(disk->barriers(), 1u);

  CrashStateOptions ordered;
  ordered.barrier_model = BarrierModel::kOrdered;
  EXPECT_EQ(disk->EnumerateCrashStates(ordered).size(), 4u);  // prefixes 0..3

  CrashStateOptions reorder;
  reorder.barrier_model = BarrierModel::kReorderable;
  EXPECT_EQ(disk->EnumerateCrashStates(reorder).size(), 8u);  // 2^3 subsets
}

TEST(CrashableDiskTest, BarrierLegality) {
  auto disk = MakeDisk();
  ASSERT_TRUE(disk->Write(0, AsBytes("durable!")).ok());
  ASSERT_TRUE(disk->Flush().ok());
  ASSERT_TRUE(disk->Write(512, AsBytes("pending")).ok());

  CrashStateOptions opts;
  opts.barrier_model = BarrierModel::kReorderable;
  const auto states = disk->EnumerateCrashStates(opts);
  ASSERT_EQ(states.size(), 2u);
  for (const CrashState& st : states) {
    // No crash state may lose a write that preceded a barrier.
    const Bytes image = st.image.ToBytes();
    EXPECT_EQ(std::string(image.begin(), image.begin() + 8), "durable!");
  }
  // Exactly one state applies the pending write.
  const auto applied = std::count_if(
      states.begin(), states.end(),
      [](const CrashState& st) { return st.applied.size() == 1; });
  EXPECT_EQ(applied, 1);
}

TEST(CrashableDiskTest, OrderedModelYieldsPrefixesOnly) {
  auto disk = MakeDisk();
  ASSERT_TRUE(disk->Write(0, AsBytes("w0")).ok());
  ASSERT_TRUE(disk->Write(100, AsBytes("w1")).ok());

  CrashStateOptions opts;
  opts.barrier_model = BarrierModel::kOrdered;
  const auto states = disk->EnumerateCrashStates(opts);
  ASSERT_EQ(states.size(), 3u);
  for (const CrashState& st : states) {
    for (std::size_t i = 0; i < st.applied.size(); ++i) {
      EXPECT_EQ(st.applied[i], i);  // contiguous from zero = a prefix
    }
  }
}

TEST(CrashableDiskTest, IdenticalImagesDedup) {
  auto disk = MakeDisk();
  // Two identical in-flight writes: applying either one alone (or both)
  // produces the same image, so {0}, {1}, {0,1} collapse into one state.
  ASSERT_TRUE(disk->Write(50, AsBytes("same")).ok());
  ASSERT_TRUE(disk->Write(50, AsBytes("same")).ok());

  CrashStateOptions opts;
  opts.barrier_model = BarrierModel::kReorderable;
  EXPECT_EQ(disk->EnumerateCrashStates(opts).size(), 2u);
}

TEST(CrashableDiskTest, SamplingHonorsCapAndKeepsEndpoints) {
  auto disk = MakeDisk(1 << 16);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(disk->Write(static_cast<std::uint64_t>(i) * 16,
                            AsBytes("x" + std::to_string(i))).ok());
  }

  CrashStateOptions opts;
  opts.barrier_model = BarrierModel::kReorderable;
  opts.max_states = 16;
  opts.seed = 7;
  const auto states = disk->EnumerateCrashStates(opts);
  EXPECT_LE(states.size(), 16u);
  bool has_empty = false;
  bool has_full = false;
  for (const CrashState& st : states) {
    if (st.applied.empty()) has_empty = true;
    if (st.applied.size() == 20u) has_full = true;
  }
  EXPECT_TRUE(has_empty);  // the "nothing persisted" crash
  EXPECT_TRUE(has_full);   // the "everything persisted" crash
}

TEST(CrashableDiskTest, SamplingIsDeterministicPerSeed) {
  auto disk = MakeDisk(1 << 16);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(disk->Write(static_cast<std::uint64_t>(i) * 32,
                            AsBytes("y" + std::to_string(i))).ok());
  }
  CrashStateOptions opts;
  opts.max_states = 8;
  opts.seed = 3;
  const auto first = disk->EnumerateCrashStates(opts);
  const auto second = disk->EnumerateCrashStates(opts);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].applied, second[i].applied);
    EXPECT_EQ(first[i].image, second[i].image);
  }
}

TEST(CrashableDiskTest, FlushFaultInjection) {
  auto disk = MakeDisk();
  ASSERT_TRUE(disk->Write(0, AsBytes("inflight")).ok());
  disk->InjectFlushErrors(1);
  EXPECT_EQ(disk->Flush().error(), Errno::kEIO);
  // The failed barrier commits nothing: the write stays in flight.
  EXPECT_EQ(disk->pending_writes(), 1u);
  EXPECT_EQ(disk->barriers(), 0u);
  // The next barrier succeeds and drains the journal.
  EXPECT_TRUE(disk->Flush().ok());
  EXPECT_EQ(disk->pending_writes(), 0u);
  EXPECT_EQ(disk->barriers(), 1u);
  const Bytes durable = disk->durable_image().ToBytes();
  EXPECT_EQ(std::string(durable.begin(), durable.begin() + 8), "inflight");
}

TEST(CrashableDiskTest, SnapshotCarriesCrashBookkeeping) {
  auto disk = MakeDisk();
  ASSERT_TRUE(disk->Write(0, AsBytes("durable")).ok());
  ASSERT_TRUE(disk->Flush().ok());
  ASSERT_TRUE(disk->Write(256, AsBytes("pending")).ok());

  const DeviceImage snapshot = disk->Capture();

  // Mutate past the snapshot: another barrier plus another write.
  ASSERT_TRUE(disk->Flush().ok());
  ASSERT_TRUE(disk->Write(512, AsBytes("later")).ok());
  ASSERT_EQ(disk->barriers(), 2u);

  ASSERT_TRUE(disk->Restore(snapshot).ok());
  EXPECT_EQ(disk->barriers(), 1u);
  EXPECT_EQ(disk->pending_writes(), 1u);
  // Live contents include the in-flight write again...
  const Bytes live = ReadAll(*disk);
  EXPECT_EQ(std::string(live.begin() + 256, live.begin() + 263), "pending");
  // ...but the durable image does not.
  const Bytes durable = disk->durable_image().ToBytes();
  EXPECT_EQ(durable[256], 0);

  // A raw image carries no bookkeeping, so the recorder refuses it.
  EXPECT_EQ(disk->Restore(DeviceImage::FromBytes(live)).error(),
            Errno::kEINVAL);
}

TEST(CrashableDiskTest, RestoreRejectsWrongSize) {
  auto disk = MakeDisk(4096);
  auto other = MakeDisk(8192);
  EXPECT_EQ(disk->Restore(other->Capture()).error(), Errno::kEINVAL);
}

TEST(CrashableDiskTest, MarkCleanCommitsWithoutBarrier) {
  auto disk = MakeDisk();
  ASSERT_TRUE(disk->Write(0, AsBytes("setup")).ok());
  ASSERT_EQ(disk->pending_writes(), 1u);
  disk->MarkClean();
  EXPECT_EQ(disk->pending_writes(), 0u);
  CrashStateOptions opts;
  EXPECT_EQ(disk->EnumerateCrashStates(opts).size(), 1u);
}

TEST(CrashableDiskTest, StateDigestSeesPendingWrites) {
  auto disk = MakeDisk();
  const std::uint64_t clean = disk->StateDigest();
  ASSERT_TRUE(disk->Write(0, AsBytes("w")).ok());
  const std::uint64_t dirty = disk->StateDigest();
  EXPECT_NE(clean, dirty);
  ASSERT_TRUE(disk->Flush().ok());
  // Committing changes the durable image, so the digest moves again.
  EXPECT_NE(disk->StateDigest(), dirty);
}

// --- MTD observer path ---------------------------------------------------

TEST(CrashableDiskMtdTest, ObserverJournalsProgramsAndErases) {
  auto mtd = std::make_shared<MtdDevice>("mtd0", 64 * 1024, nullptr);
  auto shim = std::make_shared<MtdBlockShim>(mtd);
  auto crash = std::make_shared<CrashableDisk>(shim);
  crash->AttachMtd(mtd);

  ASSERT_TRUE(mtd->EraseBlock(0).ok());
  ASSERT_TRUE(mtd->Program(0, AsBytes("node")).ok());
  // Erase + program both count as in-flight post-images.
  EXPECT_EQ(crash->pending_writes(), 2u);

  // fsync-driven barrier: MtdDevice::Flush reaches the observer.
  ASSERT_TRUE(mtd->Flush().ok());
  EXPECT_EQ(crash->pending_writes(), 0u);
  EXPECT_EQ(crash->barriers(), 1u);
}

TEST(CrashableDiskMtdTest, ShimWritesAreNotDoubleCounted) {
  auto mtd = std::make_shared<MtdDevice>("mtd0", 64 * 1024, nullptr);
  auto shim = std::make_shared<MtdBlockShim>(mtd);
  auto crash = std::make_shared<CrashableDisk>(shim);
  crash->AttachMtd(mtd);

  // A shim write decomposes into erase+program on the MTD. Only the raw
  // observer hooks may journal those — if the block-level Write recorded
  // too, the same bytes would be journaled twice (3 records, and crash
  // subsets could resurrect the pre-erase image after the program).
  ASSERT_TRUE(crash->Write(0, Bytes(16, 0x5a)).ok());
  EXPECT_EQ(crash->pending_writes(), 2u);  // erase + program, nothing else

  // Applying the full journal reproduces the live flash exactly.
  CrashStateOptions opts;
  opts.barrier_model = BarrierModel::kOrdered;
  const auto states = crash->EnumerateCrashStates(opts);
  ASSERT_FALSE(states.empty());
  EXPECT_EQ(states.back().image, mtd->Capture());
}

// Regression: MtdBlockShim::Flush used to return Ok() without touching
// the MTD, so an attached recorder never saw jffs2f's fsync barriers.
TEST(CrashableDiskMtdTest, ShimFlushIsARealBarrier) {
  auto mtd = std::make_shared<MtdDevice>("mtd0", 64 * 1024, nullptr);
  auto shim = std::make_shared<MtdBlockShim>(mtd);
  auto crash = std::make_shared<CrashableDisk>(shim);
  crash->AttachMtd(mtd);

  ASSERT_TRUE(mtd->EraseBlock(0).ok());
  ASSERT_TRUE(mtd->Program(0, AsBytes("fsynced")).ok());
  ASSERT_EQ(crash->barriers(), 0u);

  // The barrier must flow shim -> MTD -> observer.
  ASSERT_TRUE(shim->Flush().ok());
  EXPECT_EQ(crash->barriers(), 1u);
  EXPECT_EQ(crash->pending_writes(), 0u);
  EXPECT_EQ(shim->stats().flushes, 1u);
}

TEST(CrashableDiskMtdTest, ObserverBarrierFaultInjection) {
  auto mtd = std::make_shared<MtdDevice>("mtd0", 64 * 1024, nullptr);
  auto shim = std::make_shared<MtdBlockShim>(mtd);
  auto crash = std::make_shared<CrashableDisk>(shim);
  crash->AttachMtd(mtd);

  ASSERT_TRUE(mtd->EraseBlock(0).ok());
  crash->InjectFlushErrors(1);
  EXPECT_EQ(mtd->Flush().error(), Errno::kEIO);
  EXPECT_EQ(crash->barriers(), 0u);
  EXPECT_EQ(crash->pending_writes(), 1u);  // the erase stays in flight
  EXPECT_TRUE(mtd->Flush().ok());
  EXPECT_EQ(crash->barriers(), 1u);
}

TEST(CrashableDiskMtdTest, DetachesObserverOnDestruction) {
  auto mtd = std::make_shared<MtdDevice>("mtd0", 64 * 1024, nullptr);
  {
    auto shim = std::make_shared<MtdBlockShim>(mtd);
    auto crash = std::make_shared<CrashableDisk>(shim);
    crash->AttachMtd(mtd);
  }
  // No dangling observer: these must not touch freed memory.
  ASSERT_TRUE(mtd->EraseBlock(0).ok());
  EXPECT_TRUE(mtd->Flush().ok());
}

}  // namespace
}  // namespace mcfs::storage
