// Block-content digests (DESIGN.md §7.4): a regular file's content enters
// its node digest as the sequence of MD5s of its 4 KB blocks, and a block
// whose bytes equal the previous block's reuses that block's digest. The
// scheme must keep the abstraction canonical — identical content hashes
// identically on every file system, whatever its layout or read chunking
// — and the reuse must compare bytes, not guess.
//
// Runs under `ctest -L abstraction`.
#include <gtest/gtest.h>

#include "mcfs/abstraction.h"
#include "mcfs/fs_under_test.h"
#include "mcfs/ops.h"

namespace mcfs::core {
namespace {

struct Family {
  std::string label;
  std::unique_ptr<FsUnderTest> fut;
  AbstractionOptions options;
  IncrementalAbstraction inc;
};

// Every file system the checker drives, VeriFS over both transports.
std::vector<std::unique_ptr<Family>> AllFamilies() {
  struct Spec {
    const char* label;
    FsKind kind;
    StateStrategy strategy;
    bool fuse;
  };
  const Spec specs[] = {
      {"ext2f", FsKind::kExt2, StateStrategy::kRemountPerOp, false},
      {"ext4f", FsKind::kExt4, StateStrategy::kRemountPerOp, false},
      {"jffs2f", FsKind::kJffs2, StateStrategy::kRemountPerOp, false},
      {"xfsf", FsKind::kXfs, StateStrategy::kRemountPerOp, false},
      {"verifs1", FsKind::kVerifs1, StateStrategy::kIoctl, false},
      {"verifs1-fuse", FsKind::kVerifs1, StateStrategy::kIoctl, true},
      {"verifs2", FsKind::kVerifs2, StateStrategy::kIoctl, false},
      {"verifs2-fuse", FsKind::kVerifs2, StateStrategy::kIoctl, true},
      {"specfs", FsKind::kSpec, StateStrategy::kIoctl, false},
  };
  std::vector<std::unique_ptr<Family>> families;
  for (const Spec& spec : specs) {
    FsUnderTestConfig config;
    config.kind = spec.kind;
    config.strategy = spec.strategy;
    config.fuse_transport = spec.fuse;
    // Room for the largest file on the small-device families.
    if (spec.kind == FsKind::kExt2 || spec.kind == FsKind::kExt4 ||
        spec.kind == FsKind::kJffs2) {
      config.device_bytes = 4 * 1024 * 1024;
    }
    auto fut = FsUnderTest::Create(config, nullptr);
    EXPECT_TRUE(fut.ok()) << spec.label;
    if (!fut.ok()) return {};
    auto family = std::make_unique<Family>();
    family->label = spec.label;
    family->fut = std::move(fut).value();
    family->options.exception_list = family->fut->SpecialPaths();
    families.push_back(std::move(family));
  }
  return families;
}

// `size` bytes in runs of 10,000 alternating 'a' and 'b': every fill
// change falls mid-block, and blocks 0-1 are equal, so both the hash and
// the reuse path run.
Bytes TwoFillContent(std::size_t size) {
  Bytes content(size);
  for (std::size_t i = 0; i < size; ++i) {
    content[i] = (i / 10'000) % 2 == 0 ? 'a' : 'b';
  }
  return content;
}

Status WriteFile(vfs::Vfs& v, const std::string& path, ByteView data) {
  auto fd = v.Open(path, fs::kCreate | fs::kWrOnly | fs::kTrunc, 0644);
  if (!fd.ok()) return fd.error();
  if (!data.empty()) {
    auto written = v.Write(fd.value(), 0, data);
    if (!written.ok()) return written.error();
  }
  return v.Close(fd.value());
}

TEST(ContentDigest, IdenticalContentHashesIdenticallyOnEveryFileSystem) {
  std::vector<std::unique_ptr<Family>> families = AllFamilies();
  ASSERT_EQ(families.size(), 9u);
  for (auto& family : families) {
    ASSERT_TRUE(family->inc.FullRecompute(family->fut->vfs(), family->options)
                    .ok())
        << family->label;
  }

  TouchedPathSet touched;
  touched.dirty = {"/f"};
  for (std::size_t size :
       {0ul, 1ul, 4095ul, 4096ul, 4097ul, 65535ul, 65536ul, 65537ul,
        131172ul}) {
    const Bytes content = TwoFillContent(size);
    std::vector<Md5Digest> full;
    std::vector<Md5Digest> incremental;
    for (auto& family : families) {
      vfs::Vfs& v = family->fut->vfs();
      ASSERT_TRUE(WriteFile(v, "/f", content).ok())
          << family->label << " size " << size;
      auto walk = ComputeAbstractState(v, family->options);
      ASSERT_TRUE(walk.ok()) << family->label;
      auto fold = family->inc.Refresh(v, family->options, touched);
      ASSERT_TRUE(fold.ok()) << family->label;
      // The cache agrees with a cold rebuild on this file system.
      IncrementalAbstraction cold;
      auto rebuilt = cold.FullRecompute(v, family->options);
      ASSERT_TRUE(rebuilt.ok()) << family->label;
      EXPECT_EQ(fold.value(), rebuilt.value())
          << family->label << " size " << size;
      full.push_back(walk.value());
      incremental.push_back(fold.value());
    }
    for (std::size_t i = 1; i < families.size(); ++i) {
      EXPECT_EQ(full[i], full[0]) << families[i]->label << " vs "
                                  << families[0]->label << ", full walk, "
                                  << size << " bytes";
      EXPECT_EQ(incremental[i], incremental[0])
          << families[i]->label << " vs " << families[0]->label
          << ", incremental, " << size << " bytes";
    }
  }
  // Both paths ran: the first two blocks of the larger files are equal.
  for (auto& family : families) {
    EXPECT_GT(family->inc.blocks_hashed(), 0u) << family->label;
    EXPECT_GT(family->inc.blocks_reused(), 0u) << family->label;
  }
}

TEST(ContentDigest, ReuseComparesBytesNotPositions) {
  FsUnderTestConfig config;
  config.kind = FsKind::kVerifs2;
  config.strategy = StateStrategy::kIoctl;
  config.fuse_transport = false;
  auto fut = FsUnderTest::Create(config, nullptr);
  ASSERT_TRUE(fut.ok());
  vfs::Vfs& v = fut.value()->vfs();
  const AbstractionOptions options;

  constexpr std::size_t kBlocks = 4;
  const Bytes uniform(kBlocks * 4096, 'x');
  ASSERT_TRUE(WriteFile(v, "/f", uniform).ok());
  ContentHashStats stats;
  auto base = HashNode(v, "/f", options, &stats);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(stats.blocks_hashed, 1u);
  EXPECT_EQ(stats.blocks_reused, kBlocks - 1);

  // Block i equals block i-1 except for one byte: it must be hashed, so
  // the node digest moves off the all-equal file's.
  for (std::size_t block = 1; block < kBlocks; ++block) {
    for (std::size_t at : {0ul, 2048ul, 4095ul}) {
      Bytes content = uniform;
      content[block * 4096 + at] = 'y';
      ASSERT_TRUE(WriteFile(v, "/f", content).ok());
      ContentHashStats one;
      auto changed = HashNode(v, "/f", options, &one);
      ASSERT_TRUE(changed.ok());
      EXPECT_NE(changed.value().digest, base.value().digest)
          << "block " << block << " byte " << at;
      EXPECT_EQ(one.blocks_hashed + one.blocks_reused, kBlocks);
      // The changed block and, when there is one, the block after it.
      EXPECT_EQ(one.blocks_hashed, block + 1 < kBlocks ? 3u : 2u);
    }
  }

  // A trailing partial block equal to a prefix of the previous one is a
  // different block, and so is the whole file.
  ASSERT_TRUE(WriteFile(v, "/f", ByteView(uniform).first(4096 + 100)).ok());
  ContentHashStats tail;
  auto partial = HashNode(v, "/f", options, &tail);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(tail.blocks_hashed, 2u);
  EXPECT_EQ(tail.blocks_reused, 0u);
}

}  // namespace
}  // namespace mcfs::core
