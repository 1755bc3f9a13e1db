// Hostile on-disk images: every format's mount and walk must survive
// corrupted metadata.
//
// For each of ext2f, ext4f, xfsf and jffs2f the test populates a device
// (directories, files, a symlink), unmounts it, and makes 50 seeded
// copies of the image with 1-8 flipped bytes outside file contents. Each
// copy is built through DeviceImage::FromBytes and mounted as a recovery
// probe; a mount may fail with an errno or succeed, and a mounted copy
// is walked (readdir, stat, read, readlink) and then written (mkdir,
// create, write). The test asserts that nothing crashes, throws or hangs;
// a watchdog aborts the run if one copy takes longer than its bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "mcfs/fs_under_test.h"
#include "storage/device_image.h"
#include "util/rng.h"

namespace mcfs::core {
namespace {

constexpr std::uint8_t kContent = 0xa5;  // every file byte
constexpr std::size_t kSector = 512;
constexpr int kCopies = 50;

// Aborts the process if it is not destroyed within `limit`: a hang in a
// mount or walk must fail the test, not stall the suite.
class Watchdog {
 public:
  Watchdog(std::chrono::seconds limit, std::string what)
      : thread_([this, limit, what = std::move(what)] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "hang: %s\n", what.c_str());
            std::abort();
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the fields it reads
};

void WriteFile(fs::FileSystem& fs, const std::string& path,
               std::size_t size) {
  auto fh = fs.Open(path, fs::kCreate | fs::kWrOnly, 0644);
  ASSERT_TRUE(fh.ok()) << path;
  ASSERT_TRUE(fs.Write(fh.value(), 0, Bytes(size, kContent)).ok());
  ASSERT_TRUE(fs.Close(fh.value()).ok());
}

// Offsets whose bytes are not file contents: bytes other than kContent in
// 512-byte sectors that hold anything besides kContent and the fill byte.
std::vector<std::uint64_t> MetadataOffsets(const Bytes& image,
                                           std::uint8_t fill) {
  std::vector<std::uint64_t> out;
  for (std::size_t sector = 0; sector < image.size(); sector += kSector) {
    const std::size_t end = std::min(image.size(), sector + kSector);
    bool metadata = false;
    for (std::size_t i = sector; i < end && !metadata; ++i) {
      metadata = image[i] != fill && image[i] != kContent;
    }
    if (!metadata) continue;
    for (std::size_t i = sector; i < end; ++i) {
      if (image[i] != kContent) out.push_back(i);
    }
  }
  return out;
}

// Reads everything reachable, bounded so a directory cycle in a damaged
// image ends the walk instead of recursing forever.
void Walk(fs::FileSystem& fs, const std::string& dir, int depth,
          std::set<fs::InodeNum>& seen, int& budget) {
  if (depth > 8) return;
  auto entries = fs.ReadDir(dir);
  if (!entries.ok()) return;
  for (const fs::DirEntry& e : entries.value()) {
    if (--budget < 0) return;
    if (e.name == "." || e.name == "..") continue;
    const std::string path = (dir == "/" ? "" : dir) + "/" + e.name;
    auto attr = fs.GetAttr(path);
    if (!attr.ok()) continue;
    switch (attr.value().type) {
      case fs::FileType::kRegular: {
        auto fh = fs.Open(path, fs::kRdOnly, 0);
        if (!fh.ok()) break;
        (void)fs.Read(fh.value(), 0,
                      std::min<std::uint64_t>(attr.value().size, 64 * 1024));
        (void)fs.Close(fh.value());
        break;
      }
      case fs::FileType::kSymlink:
        (void)fs.ReadLink(path);
        break;
      case fs::FileType::kDirectory:
        if (seen.insert(attr.value().ino).second) {
          Walk(fs, path, depth + 1, seen, budget);
        }
        break;
    }
  }
}

struct Outcome {
  int mounted = 0;
  int refused = 0;
  int entries = 0;  // directory entries the walks visited
};

Outcome RunHostileCopies(FsKind kind, std::uint64_t seed) {
  Outcome outcome;
  FsUnderTestConfig config;
  config.kind = kind;
  auto made = FsUnderTest::Create(config, nullptr);
  EXPECT_TRUE(made.ok());
  if (!made.ok()) return outcome;
  FsUnderTest& fut = *made.value();

  fs::FileSystem& fs = fut.inner();
  EXPECT_TRUE(fs.Mkdir("/d", 0755).ok());
  EXPECT_TRUE(fs.Mkdir("/d/e", 0700).ok());
  WriteFile(fs, "/a", 100);
  WriteFile(fs, "/d/b", 5000);
  WriteFile(fs, "/d/e/c", 1);
  if (fs.Supports(fs::FsFeature::kSymlink)) {
    EXPECT_TRUE(fs.Symlink("/d/b", "/link").ok());
  }
  EXPECT_TRUE(fut.vfs().Unmount().ok());

  const std::uint8_t fill = kind == FsKind::kJffs2 ? 0xff : 0x00;
  const Bytes image = fut.device()->Capture().ToBytes();
  const std::vector<std::uint64_t> candidates = MetadataOffsets(image, fill);
  EXPECT_FALSE(candidates.empty());
  if (candidates.empty()) return outcome;

  Rng rng(seed);
  for (int copy = 0; copy < kCopies; ++copy) {
    Bytes bad = image;
    const std::uint64_t flips = rng.Between(1, 8);
    std::string what = std::string(FsKindName(kind)) + " copy " +
                       std::to_string(copy) + ", flipped";
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::uint64_t at = candidates[rng.Below(candidates.size())];
      bad[at] ^= static_cast<std::uint8_t>(rng.Between(1, 255));
      what += " " + std::to_string(at);
    }
    SCOPED_TRACE(what);
    Watchdog watchdog(std::chrono::seconds(60), what);
    auto probe = fut.BuildRecoveryProbe(storage::DeviceImage::FromBytes(bad));
    EXPECT_TRUE(probe.ok());
    if (!probe.ok()) continue;
    fs::FileSystem& victim = *probe.value();
    const Status mount = victim.Mount();
    if (!mount.ok()) {
      EXPECT_NE(mount.error(), Errno::kOk);
      ++outcome.refused;
      continue;
    }
    ++outcome.mounted;
    std::set<fs::InodeNum> seen;
    int budget = 256;
    Walk(victim, "/", 0, seen, budget);
    outcome.entries += 256 - std::max(budget, 0);
    (void)victim.Mkdir("/new", 0755);
    auto fh = victim.Open("/new/f", fs::kCreate | fs::kWrOnly, 0644);
    if (fh.ok()) {
      (void)victim.Write(fh.value(), 0, Bytes(3000, 0x11));
      (void)victim.Close(fh.value());
    }
    (void)victim.Unmount();
  }
  std::printf("%s: %d of %d damaged copies mounted (%d entries walked), "
              "%d refused\n",
              std::string(FsKindName(kind)).c_str(), outcome.mounted,
              kCopies, outcome.entries, outcome.refused);
  return outcome;
}

class HostileImageTest : public ::testing::TestWithParam<FsKind> {};

TEST_P(HostileImageTest, DamagedCopiesMountOrFailCleanly) {
  const Outcome outcome = RunHostileCopies(GetParam(), 2021);
  EXPECT_EQ(outcome.mounted + outcome.refused, kCopies);
}

INSTANTIATE_TEST_SUITE_P(Formats, HostileImageTest,
                         ::testing::Values(FsKind::kExt2, FsKind::kExt4,
                                           FsKind::kXfs, FsKind::kJffs2),
                         [](const ::testing::TestParamInfo<FsKind>& info) {
                           return std::string(FsKindName(info.param));
                         });

}  // namespace
}  // namespace mcfs::core
