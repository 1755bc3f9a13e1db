// Differential tests for the block-shared DeviceImage.
//
// Seeded random Write/Program/EraseBlock calls with unaligned spans
// across 4 KB block and 16 KB erase-block edges, interleaved with
// capture, restore and discard, run against a flat Bytes reference: after
// every step the device bytes, every retained capture and the image
// digest must match the reference. The crash half checks
// EnumerateCrashStates against a flat re-implementation of the
// full-copy enumerator the overlay version replaced (same subsets, same
// dedup, same image bytes) for both barrier models.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "storage/crashable_disk.h"
#include "storage/device_image.h"
#include "storage/mtd_device.h"
#include "storage/ram_disk.h"
#include "util/md5.h"
#include "util/rng.h"

namespace mcfs::storage {
namespace {

constexpr std::uint64_t kBlock = DeviceImage::kBlockSize;

Bytes RandomBytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.Next());
  return out;
}

// An offset and length that often straddle a 4 KB (and so a 16 KB) edge.
std::pair<std::uint64_t, std::size_t> RandomSpan(Rng& rng,
                                                 std::uint64_t size) {
  const std::uint64_t offset =
      rng.Chance(1, 2)
          ? kBlock * rng.Between(1, size / kBlock - 1) - rng.Between(1, 700)
          : rng.Below(size);
  const std::size_t len = static_cast<std::size_t>(std::min<std::uint64_t>(
      rng.Between(0, 3 * kBlock), size - offset));
  return {offset, len};
}

std::uint64_t FlatDigest(const Bytes& flat) {
  return DeviceImage::FromBytes(flat).Digest().lo64();
}

struct Capture {
  DeviceImage image;
  Bytes flat;
};

// Captures, restores and discards at random, checking each retained
// capture against its flat copy: a later write must never reach an image
// that shared the block.
template <typename Device>
void RandomSnapshotStep(Rng& rng, Device& dev, Bytes& ref,
                        std::vector<Capture>& captures) {
  switch (rng.Below(3)) {
    case 0:
      captures.push_back({dev.Capture(), ref});
      break;
    case 1:
      if (!captures.empty()) {
        const Capture& c = captures[rng.Below(captures.size())];
        ASSERT_TRUE(dev.Restore(c.image).ok());
        ref = c.flat;
      }
      break;
    default:
      if (!captures.empty()) {
        captures.erase(captures.begin() +
                       static_cast<std::ptrdiff_t>(rng.Below(captures.size())));
      }
      break;
  }
}

template <typename Device>
void ExpectMatchesReference(Device& dev, const Bytes& ref,
                            const std::vector<Capture>& captures) {
  Bytes live(ref.size());
  ASSERT_TRUE(dev.Read(0, live).ok());
  ASSERT_EQ(live, ref);
  const DeviceImage image = dev.Capture();
  ASSERT_EQ(image.ToBytes(), ref);
  ASSERT_EQ(image.Digest().lo64(), FlatDigest(ref));
  for (const Capture& c : captures) {
    ASSERT_EQ(c.image.ToBytes(), c.flat);
    ASSERT_EQ(c.image.Digest().lo64(), FlatDigest(c.flat));
  }
}

TEST(DeviceImageTest, RamDiskMatchesFlatReference) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    // A partial last block: its bytes past the end must stay out of view.
    const std::uint64_t size = 24 * kBlock + 300;
    RamDisk disk("d", size, nullptr);
    Bytes ref(size, 0);
    std::vector<Capture> captures;
    for (int step = 0; step < 400; ++step) {
      if (rng.Chance(2, 3)) {
        auto [offset, len] = RandomSpan(rng, size);
        // Whole blocks of 0x00 / 0xff take the shared-block path.
        Bytes data = rng.Chance(1, 4)
                         ? Bytes(len, rng.Chance(1, 2) ? 0x00 : 0xff)
                         : RandomBytes(rng, len);
        ASSERT_TRUE(disk.Write(offset, data).ok());
        std::copy(data.begin(), data.end(), ref.begin() + offset);
      } else {
        RandomSnapshotStep(rng, disk, ref, captures);
      }
      ExpectMatchesReference(disk, ref, captures);
    }
  }
}

// Records the observer's post-images so they can be checked against the
// reference flash.
class PostImageLog : public MtdWriteObserver {
 public:
  void OnMtdWrite(std::uint64_t offset, ByteView after) override {
    writes.emplace_back(offset, Bytes(after.begin(), after.end()));
  }
  Status OnMtdBarrier() override { return Status::Ok(); }

  std::vector<std::pair<std::uint64_t, Bytes>> writes;
};

TEST(DeviceImageTest, MtdMatchesFlatReference) {
  for (std::uint64_t seed : {4u, 5u, 6u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const std::uint64_t size = 96 * 1024;  // six 16 KB erase blocks
    MtdDevice mtd("mtd", size, nullptr);
    PostImageLog log;
    mtd.set_write_observer(&log);
    Bytes ref(size, 0xff);
    std::vector<Capture> captures;
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t roll = rng.Below(6);
      if (roll < 3) {
        auto [offset, len] = RandomSpan(rng, size);
        Bytes data = RandomBytes(rng, len);
        // Mostly legal programs (only clear bits); sometimes one that
        // needs an erase first, which must fail and change nothing.
        const bool legal = len == 0 || rng.Chance(4, 5);
        bool sets_bits = false;
        for (std::size_t i = 0; i < len; ++i) {
          if (legal) data[i] &= ref[offset + i];
          sets_bits |= (data[i] & ~ref[offset + i]) != 0;
        }
        const Status s = mtd.Program(offset, data);
        if (sets_bits) {
          ASSERT_EQ(s.error(), Errno::kEIO);
        } else {
          ASSERT_TRUE(s.ok());
          for (std::size_t i = 0; i < len; ++i) ref[offset + i] &= data[i];
          ASSERT_FALSE(log.writes.empty());
          EXPECT_EQ(log.writes.back().first, offset);
          EXPECT_EQ(log.writes.back().second,
                    Bytes(ref.begin() + offset, ref.begin() + offset + len));
        }
      } else if (roll == 3) {
        const std::uint32_t block =
            static_cast<std::uint32_t>(rng.Below(mtd.erase_block_count()));
        ASSERT_TRUE(mtd.EraseBlock(block).ok());
        const std::uint64_t start =
            std::uint64_t{block} * mtd.erase_block_size();
        std::fill(ref.begin() + start,
                  ref.begin() + start + mtd.erase_block_size(), 0xff);
        EXPECT_EQ(log.writes.back().first, start);
        EXPECT_EQ(log.writes.back().second,
                  Bytes(mtd.erase_block_size(), 0xff));
      } else {
        RandomSnapshotStep(rng, mtd, ref, captures);
      }
      ExpectMatchesReference(mtd, ref, captures);
    }
    mtd.set_write_observer(nullptr);
  }
}

TEST(DeviceImageTest, UniformBlocksAreShared) {
  const DeviceImage zero(8 * kBlock, 0x00);
  const DeviceImage erased(8 * kBlock, 0xff);
  EXPECT_EQ(zero.SharedBlocks(DeviceImage::FromBytes(Bytes(8 * kBlock, 0))),
            8u);
  EXPECT_EQ(
      erased.SharedBlocks(DeviceImage::FromBytes(Bytes(8 * kBlock, 0xff))),
      8u);
  DeviceImage written = zero;
  written.Write(kBlock / 2, Bytes(2 * kBlock, 0xff));  // block 1 is whole
  EXPECT_EQ(written.SharedBlocks(zero), 5u);  // blocks 0, 1 and 2 changed
  EXPECT_EQ(written.SharedBlocks(erased), 1u);
  EXPECT_EQ(zero.ToBytes(), Bytes(8 * kBlock, 0));  // the source is intact
}

TEST(DeviceImageTest, CaptureSharesAndWritesCloneOnlyTouchedBlocks) {
  RamDisk disk("d", 64 * kBlock, nullptr);
  ASSERT_TRUE(disk.Write(0, Bytes(64 * kBlock, 0x11)).ok());
  const DeviceImage before = disk.Capture();
  ASSERT_TRUE(disk.Write(5 * kBlock + 10, Bytes(kBlock, 0x22)).ok());
  const DeviceImage after = disk.Capture();
  EXPECT_EQ(after.SharedBlocks(before), 62u);  // blocks 5 and 6 cloned
  EXPECT_NE(after.Digest(), before.Digest());
  ASSERT_TRUE(disk.Restore(before).ok());
  EXPECT_EQ(disk.Capture().SharedBlocks(before), 64u);
  EXPECT_EQ(disk.Capture().Digest(), before.Digest());
}

TEST(DeviceImageTest, DigestCoversSize) {
  EXPECT_NE(DeviceImage(kBlock, 0).Digest(),
            DeviceImage(2 * kBlock, 0).Digest());
  EXPECT_NE(DeviceImage::FromBytes(Bytes(100, 0)).Digest(),
            DeviceImage::FromBytes(Bytes(101, 0)).Digest());
}

// ---------------------------------------------------------------------------
// Crash states versus the flat enumerator

struct FlatRecord {
  std::uint64_t offset = 0;
  Bytes after;
};

struct FlatCrashState {
  std::vector<std::size_t> applied;
  Bytes image;
};

// The full-copy enumerator the overlay version replaced: each subset is
// applied to a flat copy of the durable image, and states dedup by the
// MD5 of the whole image.
std::vector<FlatCrashState> FlatEnumerate(
    const Bytes& durable, const std::vector<FlatRecord>& journal,
    const CrashStateOptions& options) {
  const std::size_t n = journal.size();
  const std::size_t cap = std::max<std::size_t>(options.max_states, 2);
  std::vector<std::vector<std::size_t>> subsets;
  auto prefix = [](std::size_t k) {
    std::vector<std::size_t> s(k);
    for (std::size_t i = 0; i < k; ++i) s[i] = i;
    return s;
  };
  auto from_mask = [n](std::uint64_t mask) {
    std::vector<std::size_t> s;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::uint64_t{1} << i)) s.push_back(i);
    }
    return s;
  };
  if (options.barrier_model == BarrierModel::kOrdered) {
    if (n + 1 <= cap) {
      for (std::size_t k = 0; k <= n; ++k) subsets.push_back(prefix(k));
    } else {
      std::set<std::size_t> lens = {0, n};
      Rng rng(options.seed);
      while (lens.size() < cap) lens.insert(1 + rng.Below(n - 1));
      for (std::size_t k : lens) subsets.push_back(prefix(k));
    }
  } else {
    const bool exhaustive =
        n < 64 && (std::uint64_t{1} << n) <= static_cast<std::uint64_t>(cap);
    if (exhaustive) {
      for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
        subsets.push_back(from_mask(mask));
      }
    } else {
      std::set<std::uint64_t> masks;
      masks.insert(0);
      masks.insert(n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1);
      Rng rng(options.seed);
      for (std::size_t attempt = 0; attempt < cap * 8 && masks.size() < cap;
           ++attempt) {
        std::uint64_t mask = rng.Next();
        if (n < 64) mask &= (std::uint64_t{1} << n) - 1;
        masks.insert(mask);
      }
      for (std::uint64_t mask : masks) subsets.push_back(from_mask(mask));
    }
  }
  std::vector<FlatCrashState> states;
  std::set<Md5Digest> seen;
  for (const auto& subset : subsets) {
    Bytes image = durable;
    for (std::size_t idx : subset) {
      std::copy(journal[idx].after.begin(), journal[idx].after.end(),
                image.begin() + journal[idx].offset);
    }
    if (!seen.insert(Md5::Hash(image)).second) continue;
    states.push_back({subset, std::move(image)});
  }
  return states;
}

void ExpectSameStates(const CrashableDisk& disk, const Bytes& durable,
                      const std::vector<FlatRecord>& journal) {
  for (BarrierModel model :
       {BarrierModel::kOrdered, BarrierModel::kReorderable}) {
    for (std::size_t cap : {4u, 64u}) {
      CrashStateOptions options;
      options.barrier_model = model;
      options.max_states = cap;
      options.seed = cap * 31 + journal.size();
      const auto got = disk.EnumerateCrashStates(options);
      const auto want = FlatEnumerate(durable, journal, options);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].applied, want[i].applied);
        EXPECT_EQ(got[i].pending_total, journal.size());
        ASSERT_EQ(got[i].image.ToBytes(), want[i].image);
      }
    }
  }
}

TEST(DeviceImageCrashTest, RamStackMatchesFlatEnumerator) {
  Rng rng(11);
  const std::uint64_t size = 8 * kBlock;
  CrashableDisk disk(std::make_shared<RamDisk>("d", size, nullptr));
  Bytes durable(size, 0);
  Bytes live(size, 0);
  std::vector<FlatRecord> journal;
  for (int step = 0; step < 80; ++step) {
    if (rng.Chance(1, 8)) {
      ASSERT_TRUE(disk.Flush().ok());
      durable = live;
      journal.clear();
    } else {
      // Overlapping writes: a small window of offsets, so later writes
      // partly cover earlier ones and some subsets give equal images.
      const std::uint64_t offset =
          2 * kBlock + rng.Below(kBlock + kBlock / 2);
      Bytes data = rng.Chance(1, 3)
                       ? Bytes(rng.Between(1, kBlock), 0x5a)
                       : RandomBytes(rng, rng.Between(1, kBlock));
      ASSERT_TRUE(disk.Write(offset, data).ok());
      std::copy(data.begin(), data.end(), live.begin() + offset);
      journal.push_back({offset, std::move(data)});
    }
    ASSERT_EQ(disk.durable_image().ToBytes(), durable);
    if (journal.size() <= 10) ExpectSameStates(disk, durable, journal);
  }
}

TEST(DeviceImageCrashTest, MtdStackMatchesFlatEnumerator) {
  Rng rng(12);
  const std::uint64_t size = 64 * 1024;
  auto mtd = std::make_shared<MtdDevice>("mtd", size, nullptr);
  CrashableDisk disk(std::make_shared<MtdBlockShim>(mtd));
  disk.AttachMtd(mtd);
  Bytes durable(size, 0xff);
  Bytes live(size, 0xff);
  std::vector<FlatRecord> journal;
  for (int step = 0; step < 80; ++step) {
    const std::uint64_t roll = rng.Below(8);
    if (roll == 0) {
      ASSERT_TRUE(mtd->Flush().ok());
      durable = live;
      journal.clear();
    } else if (roll == 1) {
      const std::uint32_t block =
          static_cast<std::uint32_t>(rng.Below(mtd->erase_block_count()));
      ASSERT_TRUE(mtd->EraseBlock(block).ok());
      const std::uint64_t start = std::uint64_t{block} * 16 * 1024;
      std::fill(live.begin() + start, live.begin() + start + 16 * 1024, 0xff);
      journal.push_back({start, Bytes(16 * 1024, 0xff)});
    } else {
      // Programs across the 16 KB edge at offset 16 KB.
      const std::uint64_t offset = 16 * 1024 - rng.Below(3 * kBlock);
      Bytes data = RandomBytes(rng, rng.Between(1, 2 * kBlock));
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] &= live[offset + i];
      }
      ASSERT_TRUE(mtd->Program(offset, data).ok());
      for (std::size_t i = 0; i < data.size(); ++i) {
        live[offset + i] &= data[i];
      }
      journal.push_back(
          {offset, Bytes(live.begin() + offset,
                         live.begin() + offset + data.size())});
    }
    ASSERT_EQ(disk.durable_image().ToBytes(), durable);
    if (journal.size() <= 10) ExpectSameStates(disk, durable, journal);
  }
}

TEST(DeviceImageCrashTest, CaptureRestoreCarriesTheJournal) {
  CrashableDisk disk(std::make_shared<RamDisk>("d", 8 * kBlock, nullptr));
  ASSERT_TRUE(disk.Write(100, Bytes(kBlock, 0x01)).ok());
  ASSERT_TRUE(disk.Flush().ok());
  ASSERT_TRUE(disk.Write(kBlock + 7, Bytes(10, 0x02)).ok());
  const DeviceImage snapshot = disk.Capture();
  const std::uint64_t digest = disk.StateDigest();
  const auto states = disk.EnumerateCrashStates({});

  ASSERT_TRUE(disk.Write(3 * kBlock, Bytes(kBlock, 0x03)).ok());
  ASSERT_TRUE(disk.Flush().ok());
  ASSERT_NE(disk.StateDigest(), digest);

  ASSERT_TRUE(disk.Restore(snapshot).ok());
  EXPECT_EQ(disk.StateDigest(), digest);
  const auto again = disk.EnumerateCrashStates({});
  ASSERT_EQ(again.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_EQ(again[i].applied, states[i].applied);
    EXPECT_EQ(again[i].image, states[i].image);
  }
  Bytes live(8 * kBlock);
  ASSERT_TRUE(disk.Read(0, live).ok());
  EXPECT_EQ(DeviceImage::FromBytes(live), snapshot);
}

}  // namespace
}  // namespace mcfs::storage
