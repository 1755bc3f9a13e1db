// Implementation-specific behaviour of the four kernel-style file
// systems: the cross-FS *differences* the paper's evaluation leans on
// (directory-size reporting, special folders, usable capacity, minimum
// sizes), plus each implementation's own machinery (ext4f journal
// recovery, xfsf extent allocator, jffs2f log replay and GC) and
// permission enforcement under a non-root identity.
#include <gtest/gtest.h>

#include "fs/ext2/ext2fs.h"
#include "fs/ext4/ext4fs.h"
#include "fs/jffs2/jffs2fs.h"
#include "fs/xfs/xfsfs.h"
#include "storage/ram_disk.h"
#include "util/md5.h"
#include "util/rng.h"

namespace mcfs::fs {
namespace {

storage::BlockDevicePtr MakeDisk(std::uint64_t bytes) {
  return std::make_shared<storage::RamDisk>("d", bytes, nullptr);
}

void WriteAll(FileSystem& fs, const std::string& path,
              std::string_view data) {
  auto fd = fs.Open(path, kCreate | kWrOnly, 0644);
  ASSERT_TRUE(fd.ok()) << ErrnoName(fd.error());
  ASSERT_TRUE(fs.Write(fd.value(), 0, AsBytes(data)).ok());
  ASSERT_TRUE(fs.Close(fd.value()).ok());
}

// ---------------------------------------------------------------------------
// Trait: directory-size reporting (paper §3.4 false positive #1)

TEST(FsTraits, Ext2ReportsBlockMultipleDirSizes) {
  auto dev = MakeDisk(256 * 1024);
  Ext2Fs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  ASSERT_TRUE(fs.Mkdir("/d", 0755).ok());
  auto attr = fs.GetAttr("/d");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size % 1024, 0u);
  EXPECT_GE(attr.value().size, 1024u);
}

TEST(FsTraits, XfsReportsEntryBasedDirSizes) {
  auto dev = MakeDisk(XfsFs::kMinFsBytes);
  XfsFs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  ASSERT_TRUE(fs.Mkdir("/d", 0755).ok());
  auto empty = fs.GetAttr("/d");
  ASSERT_TRUE(empty.ok());
  WriteAll(fs, "/d/child", "x");
  auto with_child = fs.GetAttr("/d");
  ASSERT_TRUE(with_child.ok());
  // Entry-based: grows with entries, and is NOT a 4 KB multiple.
  EXPECT_GT(with_child.value().size, empty.value().size);
  EXPECT_NE(with_child.value().size % 4096, 0u);
}

// ---------------------------------------------------------------------------
// Trait: special folders (paper §3.4 false positive #2)

TEST(FsTraits, Ext4CreatesLostAndFoundButExt2DoesNot) {
  {
    auto dev = MakeDisk(256 * 1024);
    Ext4Fs ext4(dev);
    ASSERT_TRUE(ext4.Mkfs().ok());
    ASSERT_TRUE(ext4.Mount().ok());
    auto attr = ext4.GetAttr("/lost+found");
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr.value().type, FileType::kDirectory);
    EXPECT_EQ(attr.value().mode, 0700);
  }
  {
    auto dev = MakeDisk(256 * 1024);
    Ext2Fs ext2(dev);
    ASSERT_TRUE(ext2.Mkfs().ok());
    ASSERT_TRUE(ext2.Mount().ok());
    EXPECT_EQ(ext2.GetAttr("/lost+found").error(), Errno::kENOENT);
  }
}

TEST(FsTraits, XfsHasNoSpecialFolders) {
  auto dev = MakeDisk(XfsFs::kMinFsBytes);
  XfsFs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  auto entries = fs.ReadDir("/");
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries.value().empty());
}

// ---------------------------------------------------------------------------
// Trait: capacity (paper §3.4 false positive #3) and minimum sizes

TEST(FsTraits, XfsRejectsSmallDevices) {
  // "16MB for XFS, which allows a larger minimum file-system size" (§6).
  auto small = MakeDisk(256 * 1024);
  XfsFs fs(small);
  EXPECT_EQ(fs.Mkfs().error(), Errno::kEINVAL);

  auto big = MakeDisk(XfsFs::kMinFsBytes);
  XfsFs ok_fs(big);
  EXPECT_TRUE(ok_fs.Mkfs().ok());
}

TEST(FsTraits, Ext4JournalReducesUsableCapacityVsExt2) {
  auto dev2 = MakeDisk(256 * 1024);
  Ext2Fs ext2(dev2);
  ASSERT_TRUE(ext2.Mkfs().ok());
  ASSERT_TRUE(ext2.Mount().ok());
  auto sv2 = ext2.StatFs();
  ASSERT_TRUE(sv2.ok());

  auto dev4 = MakeDisk(256 * 1024);
  Ext4Fs ext4(dev4);
  ASSERT_TRUE(ext4.Mkfs().ok());
  ASSERT_TRUE(ext4.Mount().ok());
  auto sv4 = ext4.StatFs();
  ASSERT_TRUE(sv4.ok());

  // Same device size, different usable capacity — the root cause of the
  // near-full ENOSPC false positive.
  EXPECT_LT(sv4.value().free_bytes, sv2.value().free_bytes);
}

TEST(FsTraits, Ext2EnospcWhenFull) {
  auto dev = MakeDisk(64 * 1024);  // deliberately tiny
  Ext2Fs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  auto fd = fs.Open("/hog", kCreate | kWrOnly, 0644);
  ASSERT_TRUE(fd.ok());
  const Bytes chunk(1024, 0xaa);
  Errno last = Errno::kOk;
  for (std::uint64_t i = 0; i < 256; ++i) {
    auto n = fs.Write(fd.value(), i * chunk.size(), chunk);
    if (!n.ok()) {
      last = n.error();
      break;
    }
  }
  EXPECT_EQ(last, Errno::kENOSPC);
  ASSERT_TRUE(fs.Close(fd.value()).ok());

  // Freeing space makes writes possible again.
  ASSERT_TRUE(fs.Unlink("/hog").ok());
  WriteAll(fs, "/small", "fits now");
}

TEST(FsTraits, Ext2EnospcWhenInodesExhausted) {
  Ext2Options options;
  options.inode_count = 8;  // root + 7
  auto dev = MakeDisk(256 * 1024);
  Ext2Fs fs(dev, options);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  Errno last = Errno::kOk;
  for (int i = 0; i < 10; ++i) {
    Status s = fs.Mkdir("/d" + std::to_string(i), 0755);
    if (!s.ok()) {
      last = s.error();
      break;
    }
  }
  EXPECT_EQ(last, Errno::kENOSPC);
}

// ---------------------------------------------------------------------------
// ext2f: on-disk persistence details

TEST(Ext2Internals, SparseFileAccounting) {
  auto dev = MakeDisk(256 * 1024);
  Ext2Fs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());

  // Write one byte far into the file: the hole must not consume blocks.
  auto fd = fs.Open("/sparse", kCreate | kWrOnly, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs.Write(fd.value(), 10 * 1024, AsBytes("x")).ok());
  ASSERT_TRUE(fs.Close(fd.value()).ok());

  auto attr = fs.GetAttr("/sparse");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size, 10 * 1024 + 1);
  // st_blocks counts allocated 512-byte sectors: far fewer than size/512.
  EXPECT_LT(attr.value().blocks, attr.value().size / 512);
}

TEST(Ext2Internals, PersistsThroughRawDeviceBytes) {
  auto dev = MakeDisk(256 * 1024);
  {
    Ext2Fs fs(dev);
    ASSERT_TRUE(fs.Mkfs().ok());
    ASSERT_TRUE(fs.Mount().ok());
    WriteAll(fs, "/f", "raw-bytes-round-trip");
    ASSERT_TRUE(fs.Mkdir("/d", 0755).ok());
    ASSERT_TRUE(fs.Unmount().ok());
  }
  // A brand-new FS object over the same device sees the same contents:
  // everything really lives in the device bytes.
  Ext2Fs fresh(dev);
  ASSERT_TRUE(fresh.Mount().ok());
  auto fd = fresh.Open("/f", kRdOnly, 0);
  ASSERT_TRUE(fd.ok());
  auto data = fresh.Read(fd.value(), 0, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(AsString(data.value()), "raw-bytes-round-trip");
  ASSERT_TRUE(fresh.Close(fd.value()).ok());
  EXPECT_TRUE(fresh.GetAttr("/d").ok());
}

TEST(Ext2Internals, DirtyBlocksStayInCacheUntilFlush) {
  auto dev = MakeDisk(256 * 1024);
  Ext2Fs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  const std::uint64_t writes_before = dev->stats().writes;
  WriteAll(fs, "/f", "buffered");
  // The write-back cache holds the dirty blocks; the device is untouched.
  EXPECT_EQ(dev->stats().writes, writes_before);
  EXPECT_GT(fs.dirty_block_count(), 0u);
  ASSERT_TRUE(fs.Unmount().ok());
  EXPECT_GT(dev->stats().writes, writes_before);
}

TEST(Ext2Internals, MountRejectsUnformattedDevice) {
  auto dev = MakeDisk(256 * 1024);
  Ext2Fs fs(dev);
  EXPECT_EQ(fs.Mount().error(), Errno::kEINVAL);
}

TEST(Ext2Internals, DeviceIoErrorSurfacesAsEio) {
  auto ram = std::make_shared<storage::RamDisk>("d", 256 * 1024, nullptr);
  Ext2Fs fs(ram);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  WriteAll(fs, "/f", "data");
  ram->InjectIoErrors(100);
  EXPECT_EQ(fs.Unmount().error(), Errno::kEIO);  // flush fails
}

// ---------------------------------------------------------------------------
// ext4f: journal commit + crash recovery

TEST(Ext4Journal, CommitsTransactionsOnFlush) {
  auto dev = MakeDisk(256 * 1024);
  Ext4Fs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  WriteAll(fs, "/f", "journaled");
  ASSERT_TRUE(fs.Unmount().ok());
  EXPECT_GE(fs.journal_commits(), 1u);
}

TEST(Ext4Journal, RecoversCommittedButUncheckpointedTransaction) {
  auto dev = MakeDisk(256 * 1024);
  auto fs = std::make_shared<Ext4Fs>(dev);
  ASSERT_TRUE(fs->Mkfs().ok());
  ASSERT_TRUE(fs->Mount().ok());
  WriteAll(*fs, "/durable", "must-survive");
  auto fd = fs->Open("/durable", kRdOnly, 0);
  ASSERT_TRUE(fd.ok());

  // Crash between journal commit and in-place checkpoint.
  fs->SimulateCrashAfterNextJournalCommit();
  EXPECT_EQ(fs->Fsync(fd.value()).error(), Errno::kEIO);  // "crash"
  fs->CrashNow();

  // A fresh mount must replay the journal and recover the write.
  Ext4Fs recovered(dev);
  ASSERT_TRUE(recovered.Mount().ok());
  EXPECT_TRUE(recovered.replayed_journal_on_last_mount());
  auto rfd = recovered.Open("/durable", kRdOnly, 0);
  ASSERT_TRUE(rfd.ok());
  auto data = recovered.Read(rfd.value(), 0, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(AsString(data.value()), "must-survive");
}

TEST(Ext4Journal, CleanMountDoesNotReplay) {
  auto dev = MakeDisk(256 * 1024);
  Ext4Fs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  WriteAll(fs, "/f", "x");
  ASSERT_TRUE(fs.Unmount().ok());
  ASSERT_TRUE(fs.Mount().ok());
  EXPECT_FALSE(fs.replayed_journal_on_last_mount());
}

// ---------------------------------------------------------------------------
// xfsf: extent allocator

TEST(XfsInternals, SequentialWritesStayAtOneExtentWorth) {
  auto dev = MakeDisk(XfsFs::kMinFsBytes);
  XfsFs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  // 64 KB sequential write = 16 blocks; extent merging must keep the
  // per-inode map within kMaxExtents (a fragmented map would EFBIG).
  WriteAll(fs, "/seq", std::string(64 * 1024, 'e'));
  auto attr = fs.GetAttr("/seq");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size, 64u * 1024);
}

TEST(XfsInternals, FreeListCoalescesAfterDelete) {
  auto dev = MakeDisk(XfsFs::kMinFsBytes);
  XfsFs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  const std::size_t initial_extents = fs.free_extent_count();
  WriteAll(fs, "/a", std::string(8 * 1024, 'a'));
  WriteAll(fs, "/b", std::string(8 * 1024, 'b'));
  ASSERT_TRUE(fs.Unlink("/a").ok());
  ASSERT_TRUE(fs.Unlink("/b").ok());
  // Adjacent frees coalesce back toward the original single free extent.
  EXPECT_LE(fs.free_extent_count(), initial_extents + 1);
}

TEST(XfsInternals, PersistsThroughRawDeviceBytes) {
  auto dev = MakeDisk(XfsFs::kMinFsBytes);
  {
    XfsFs fs(dev);
    ASSERT_TRUE(fs.Mkfs().ok());
    ASSERT_TRUE(fs.Mount().ok());
    WriteAll(fs, "/persist", "xfs-bytes");
    ASSERT_TRUE(fs.Unmount().ok());
  }
  XfsFs fresh(dev);
  ASSERT_TRUE(fresh.Mount().ok());
  auto fd = fresh.Open("/persist", kRdOnly, 0);
  ASSERT_TRUE(fd.ok());
  auto data = fresh.Read(fd.value(), 0, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(AsString(data.value()), "xfs-bytes");
}

// ---------------------------------------------------------------------------
// jffs2f: log-structured behaviour on flash

std::shared_ptr<storage::MtdDevice> MakeMtd(std::uint64_t bytes) {
  return std::make_shared<storage::MtdDevice>("mtd", bytes, nullptr);
}

TEST(Jffs2Internals, LogReplayRebuildsState) {
  auto mtd = MakeMtd(1024 * 1024);
  {
    Jffs2Fs fs(mtd);
    ASSERT_TRUE(fs.Mkfs().ok());
    ASSERT_TRUE(fs.Mount().ok());
    WriteAll(fs, "/f", "log-structured");
    ASSERT_TRUE(fs.Mkdir("/d", 0755).ok());
    ASSERT_TRUE(fs.Unmount().ok());
  }
  Jffs2Fs fresh(mtd);
  ASSERT_TRUE(fresh.Mount().ok());
  auto fd = fresh.Open("/f", kRdOnly, 0);
  ASSERT_TRUE(fd.ok());
  auto data = fresh.Read(fd.value(), 0, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(AsString(data.value()), "log-structured");
  EXPECT_TRUE(fresh.GetAttr("/d").ok());
}

TEST(Jffs2Internals, LatestNodeWinsAfterOverwrites) {
  auto mtd = MakeMtd(1024 * 1024);
  Jffs2Fs fs(mtd);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  WriteAll(fs, "/f", "version-1");
  WriteAll(fs, "/f", "version-2-final");
  ASSERT_TRUE(fs.Unmount().ok());
  ASSERT_TRUE(fs.Mount().ok());
  auto fd = fs.Open("/f", kRdOnly, 0);
  ASSERT_TRUE(fd.ok());
  auto data = fs.Read(fd.value(), 0, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(AsString(data.value()), "version-2-final");
}

TEST(Jffs2Internals, DeletionSurvivesReplay) {
  auto mtd = MakeMtd(1024 * 1024);
  Jffs2Fs fs(mtd);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  WriteAll(fs, "/gone", "x");
  ASSERT_TRUE(fs.Unlink("/gone").ok());
  ASSERT_TRUE(fs.Unmount().ok());
  ASSERT_TRUE(fs.Mount().ok());
  // The tombstone + deletion dirent must win over the creation records.
  EXPECT_EQ(fs.GetAttr("/gone").error(), Errno::kENOENT);
}

TEST(Jffs2Internals, GarbageCollectionReclaimsSpace) {
  auto mtd = MakeMtd(256 * 1024);
  Jffs2Fs fs(mtd);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  // Repeatedly rewrite one file: the log fills with dead nodes until GC
  // compacts them away.
  const std::string payload(8 * 1024, 'g');
  for (int i = 0; i < 100; ++i) {
    WriteAll(fs, "/churn", payload);
  }
  EXPECT_GE(fs.gc_runs(), 1u);
  // Live data is intact after GC.
  auto fd = fs.Open("/churn", kRdOnly, 0);
  ASSERT_TRUE(fd.ok());
  auto data = fs.Read(fd.value(), 0, payload.size());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(AsString(data.value()), payload);
  // GC erases blocks: wear is visible on the erase counters.
  EXPECT_GT(fs.mtd().erase_count(0), 1u);
}

TEST(Jffs2Internals, EnospcWhenLiveDataExceedsFlash) {
  auto mtd = MakeMtd(64 * 1024);
  Jffs2Fs fs(mtd);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  auto fd = fs.Open("/big", kCreate | kWrOnly, 0644);
  ASSERT_TRUE(fd.ok());
  const Bytes chunk(8 * 1024, 0xbb);
  Errno last = Errno::kOk;
  for (std::uint64_t i = 0; i < 16; ++i) {
    auto n = fs.Write(fd.value(), i * chunk.size(), chunk);
    if (!n.ok()) {
      last = n.error();
      break;
    }
  }
  EXPECT_EQ(last, Errno::kENOSPC);
}

TEST(Jffs2Internals, TornTailIsIgnoredOnReplay) {
  auto mtd = MakeMtd(1024 * 1024);
  Jffs2Fs fs(mtd);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  WriteAll(fs, "/good", "intact");
  const std::uint64_t head = fs.log_head();
  ASSERT_TRUE(fs.Unmount().ok());

  // Simulate a torn write: valid-looking magic with garbage after it.
  Bytes garbage = {0x53, 0x46, 0x32, 0x4a};  // kNodeMagic little-endian
  garbage.resize(40, 0x00);
  ASSERT_TRUE(mtd->Program(head, garbage).ok());

  ASSERT_TRUE(fs.Mount().ok());  // replay must stop at the torn node
  auto fd = fs.Open("/good", kRdOnly, 0);
  ASSERT_TRUE(fd.ok());
  auto data = fs.Read(fd.value(), 0, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(AsString(data.value()), "intact");
}

// The checksum memo: a remount re-verifies only nodes that an earlier
// mount did not verify at the same offset.

// Offsets of the nodes in `image` before `head` (header: magic u32,
// type u8, seq u64, len u32, crc u32; nodes are 4-byte aligned).
std::vector<std::uint64_t> NodeOffsets(const Bytes& image,
                                       std::uint64_t head) {
  std::vector<std::uint64_t> offsets;
  for (std::uint64_t pos = 0; pos < head;) {
    offsets.push_back(pos);
    ByteReader r(ByteView(image).subspan(pos + 13, 4));
    pos += (21 + r.GetU32() + 3) / 4 * 4;
  }
  return offsets;
}

// ExportMountState without its trailing op counter, which is each
// instance's own timestamp clock and not replayed from flash.
Bytes ReplayedState(const Jffs2Fs& fs) {
  auto state = fs.ExportMountState();
  EXPECT_TRUE(state.ok());
  if (!state.ok()) return {};
  Bytes bytes = std::move(state.value());
  bytes.resize(bytes.size() - 8);
  return bytes;
}

// Remounts `warm` on `image` and mounts a fresh Jffs2Fs on a copy of the
// same bytes: both must reach the same mount status and, when mounted,
// the same index and log cursors (log head, next seq, next inode).
void ExpectWarmMatchesCold(Jffs2Fs& warm, const Bytes& image,
                           const std::string& what) {
  SCOPED_TRACE(what);
  if (warm.IsMounted()) {
    ASSERT_TRUE(warm.Unmount().ok());
  }
  ASSERT_TRUE(warm.mtd().Restore(storage::DeviceImage::FromBytes(image)).ok());
  const Status warm_status = warm.Mount();

  auto copy = MakeMtd(image.size());
  ASSERT_TRUE(copy->Restore(storage::DeviceImage::FromBytes(image)).ok());
  Jffs2Fs cold(copy);
  const Status cold_status = cold.Mount();
  ASSERT_EQ(warm_status, cold_status) << ErrnoName(warm_status.error());
  if (!warm_status.ok()) return;
  EXPECT_EQ(ReplayedState(warm), ReplayedState(cold));
}

TEST(Jffs2Internals, WarmReplayMatchesColdReplay) {
  auto mtd = MakeMtd(128 * 1024);
  Jffs2Fs warm(mtd);
  ASSERT_TRUE(warm.Mkfs().ok());
  ASSERT_TRUE(warm.Mount().ok());

  Rng rng(20211);
  std::vector<Bytes> images;  // every image captured after a clean remount
  const std::vector<std::string> names = {"/a", "/b", "/c", "/d/x", "/d/y"};
  for (int step = 0; step < 600; ++step) {
    const std::string& path = names[rng.Below(names.size())];
    switch (rng.Below(6)) {
      case 0:
      case 1: {  // rewrite a file: the log fills and GC runs
        (void)warm.Mkdir("/d", 0755);
        auto fd = warm.Open(path, kCreate | kWrOnly | kTrunc, 0644);
        if (fd.ok()) {
          const Bytes data(rng.Between(0, 6000),
                           static_cast<std::uint8_t>(rng.Next()));
          (void)warm.Write(fd.value(), 0, data);
          (void)warm.Close(fd.value());
        }
        break;
      }
      case 2:
        (void)warm.Unlink(path);
        break;
      case 3:
        (void)warm.Rename(path, names[rng.Below(names.size())]);
        break;
      case 4:
        (void)warm.Chmod(path, static_cast<Mode>(rng.Below(0777)));
        break;
      default:
        (void)warm.SetXattr(path, "user.k", AsBytes("v"));
        break;
    }
    if (step % 4 != 3) continue;

    // Remount the unchanged flash, then one of: an older or newer image,
    // a torn tail, or a one-byte flip in a node the memo holds.
    ASSERT_TRUE(warm.Unmount().ok());
    const Bytes image = mtd->Capture().ToBytes();
    ExpectWarmMatchesCold(warm, image, "unchanged");
    ASSERT_TRUE(warm.IsMounted());
    images.push_back(image);
    const std::uint64_t head = warm.log_head();
    const std::vector<std::uint64_t> nodes = NodeOffsets(image, head);
    Bytes variant = image;
    std::string what;
    switch (rng.Below(4)) {
      case 0:
        variant = images[rng.Below(images.size())];
        what = "captured image";
        break;
      case 1: {
        const std::uint64_t cut =
            head - rng.Between(1, std::min<std::uint64_t>(head, 64));
        std::fill(variant.begin() + cut, variant.begin() + head, 0xff);
        what = "torn tail at " + std::to_string(cut);
        break;
      }
      case 2: {
        static constexpr std::uint64_t kHeaderFields[] = {0, 13, 17};
        const std::uint64_t at = nodes[rng.Below(nodes.size())] +
                                 kHeaderFields[rng.Below(3)] + rng.Below(4);
        variant[at] ^= static_cast<std::uint8_t>(1 + rng.Below(255));
        what = "header flip at " + std::to_string(at);
        break;
      }
      default: {
        const std::uint64_t node = nodes[rng.Below(nodes.size())];
        ByteReader r(ByteView(image).subspan(node + 13, 4));
        const std::uint32_t len = r.GetU32();
        if (len == 0) continue;
        const std::uint64_t at = node + 21 + rng.Below(len);
        variant[at] ^= static_cast<std::uint8_t>(1 + rng.Below(255));
        what = "payload flip at " + std::to_string(at);
        break;
      }
    }
    ExpectWarmMatchesCold(warm, variant, what);
    // Carry on from the intact image (a damaged log cannot be appended to).
    ExpectWarmMatchesCold(warm, image, "back to " + what);
    ASSERT_TRUE(warm.IsMounted());
  }
  EXPECT_GE(warm.gc_runs(), 2u);
  EXPECT_GT(warm.replay_nodes_reused(), 0u);
  EXPECT_GT(warm.replay_nodes_hashed(), 0u);
}

// A hand-framed dirent node (parent 1, `name`, dangling target 999),
// padded to 4 bytes; `crc_ok` false stores a checksum that does not match.
Bytes FrameDirentNode(std::uint64_t seq, const std::string& name,
                      bool crc_ok) {
  ByteWriter p;
  p.PutU64(1);
  p.PutString(name);
  p.PutU64(999);
  p.PutU8(static_cast<std::uint8_t>(FileType::kRegular));
  const Bytes payload = p.Take();
  ByteWriter w;
  w.PutU32(0x4a324653);  // node magic
  w.PutU8(2);            // dirent
  w.PutU64(seq);
  w.PutU32(static_cast<std::uint32_t>(payload.size()));
  w.PutU32(static_cast<std::uint32_t>(Md5::Hash(payload).lo64()) ^
           (crc_ok ? 0 : 1));
  w.PutBytes(payload);
  Bytes node = w.Take();
  node.resize((node.size() + 3) / 4 * 4, 0);
  return node;
}

TEST(Jffs2Internals, MemoDoesNotVouchForBytesPastTheFirstChangedNode) {
  auto mtd = MakeMtd(64 * 1024);
  Jffs2Fs warm(mtd);
  ASSERT_TRUE(warm.Mkfs().ok());
  ASSERT_TRUE(warm.Mount().ok());
  const std::uint64_t root_end = warm.log_head();
  ASSERT_TRUE(warm.Unmount().ok());
  const Bytes formatted = mtd->Capture().ToBytes();

  // A node with a bad checksum, and an old log in which those exact bytes
  // sit, 44 bytes past the root node, inside the name of a valid node.
  const Bytes forged = FrameDirentNode(500, "ghost", /*crc_ok=*/false);
  std::string name(11, 'p');  // the name starts 33 bytes into the node
  name.append(forged.begin(), forged.end());
  Bytes old_log = formatted;
  const Bytes carrier = FrameDirentNode(2, name, /*crc_ok=*/true);
  std::copy(carrier.begin(), carrier.end(), old_log.begin() + root_end);
  ExpectWarmMatchesCold(warm, old_log, "carrier");

  // The new log changes the node after the root to one 44 bytes long and
  // puts the forged node right after it: the memo holds the same bytes at
  // the same offset, but they were never a node that passed a checksum.
  Bytes new_log = formatted;
  const Bytes changed = FrameDirentNode(2, "yy", /*crc_ok=*/true);
  ASSERT_EQ(changed.size(), 44u);
  std::copy(changed.begin(), changed.end(), new_log.begin() + root_end);
  std::copy(forged.begin(), forged.end(), new_log.begin() + root_end + 44);
  ExpectWarmMatchesCold(warm, new_log, "forged");
  EXPECT_EQ(warm.log_head(), root_end + 44);
}

TEST(Jffs2Internals, RemountHashesOnlyNodesItHasNotVerified) {
  auto mtd = MakeMtd(64 * 1024);
  Jffs2Fs fs(mtd);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  Bytes older;
  for (int i = 0; i < 8; ++i) {
    if (i == 4) older = mtd->Capture().ToBytes();
    WriteAll(fs, "/f" + std::to_string(i), std::string(100, 'a' + i));
  }
  ASSERT_TRUE(fs.Unmount().ok());
  ASSERT_TRUE(fs.Mount().ok());  // first replay of these nodes
  const Bytes image = mtd->Capture().ToBytes();
  const std::vector<std::uint64_t> nodes = NodeOffsets(image, fs.log_head());
  ASSERT_GE(nodes.size(), 10u);

  using Counts = std::pair<std::uint64_t, std::uint64_t>;  // hashed, reused
  auto remount = [&](const Bytes& flash) {
    const std::uint64_t hashed = fs.replay_nodes_hashed();
    const std::uint64_t reused = fs.replay_nodes_reused();
    EXPECT_TRUE(fs.Unmount().ok());
    EXPECT_TRUE(mtd->Restore(storage::DeviceImage::FromBytes(flash)).ok());
    EXPECT_TRUE(fs.Mount().ok());
    return Counts(fs.replay_nodes_hashed() - hashed,
                  fs.replay_nodes_reused() - reused);
  };

  // Unchanged image: every node is reused, none hashed.
  EXPECT_EQ(remount(image), Counts(0, nodes.size()));

  // An older image is a prefix of the log, and mounting it keeps the
  // newer nodes in the memo.
  const Counts to_older = remount(older);
  EXPECT_EQ(to_older.first, 0u);
  EXPECT_LT(to_older.second, nodes.size());
  EXPECT_EQ(remount(image), Counts(0, nodes.size()));

  // One flipped payload byte in node k: nodes before k are reused, node k
  // is hashed, fails its checksum, and replay stops there.
  const std::size_t k = 6;
  Bytes flipped = image;
  flipped[nodes[k] + 21 + 3] ^= 0x01;
  EXPECT_EQ(remount(flipped), Counts(1, k));
  EXPECT_EQ(fs.log_head(), nodes[k]);

  // Back to the intact image: the node that failed did not evict the
  // memo's copy of node k or anything after it.
  EXPECT_EQ(remount(image), Counts(0, nodes.size()));

  // GC rewrites every live node with a new seq: one remount hashes them
  // all, the next hashes none.
  const std::uint64_t gcs = fs.gc_runs();
  for (int i = 0; fs.gc_runs() == gcs; ++i) {
    ASSERT_LT(i, 1000);
    WriteAll(fs, "/churn", std::string(2000, 'c'));
  }
  const Bytes compacted = mtd->Capture().ToBytes();
  const Counts after_gc = remount(compacted);
  const std::uint64_t live = NodeOffsets(compacted, fs.log_head()).size();
  EXPECT_EQ(after_gc, Counts(live, 0));
  EXPECT_EQ(remount(compacted), Counts(0, live));
}

// ---------------------------------------------------------------------------
// Permission enforcement with a non-root identity

TEST(Permissions, NonRootIsDeniedByModeBits) {
  Ext2Options options;
  options.identity = Identity{1000, 1000};
  auto dev = MakeDisk(256 * 1024);
  Ext2Fs fs(dev, options);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());

  WriteAll(fs, "/mine", "owned by 1000");
  ASSERT_TRUE(fs.Chmod("/mine", 0400).ok());  // owner read-only
  EXPECT_EQ(fs.Open("/mine", kWrOnly, 0).error(), Errno::kEACCES);
  auto fd = fs.Open("/mine", kRdOnly, 0);
  EXPECT_TRUE(fd.ok());
  if (fd.ok()) EXPECT_TRUE(fs.Close(fd.value()).ok());

  // access() agrees.
  EXPECT_TRUE(fs.Access("/mine", kROk).ok());
  EXPECT_EQ(fs.Access("/mine", kWOk).error(), Errno::kEACCES);
}

TEST(Permissions, SearchBitRequiredToTraverse) {
  Ext2Options options;
  options.identity = Identity{1000, 1000};
  auto dev = MakeDisk(256 * 1024);
  Ext2Fs fs(dev, options);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  ASSERT_TRUE(fs.Mkdir("/locked", 0755).ok());
  WriteAll(fs, "/locked/f", "hidden");
  ASSERT_TRUE(fs.Chmod("/locked", 0600).ok());  // no +x: no traversal
  EXPECT_EQ(fs.GetAttr("/locked/f").error(), Errno::kEACCES);
}

TEST(Permissions, ChownRequiresRoot) {
  Ext2Options options;
  options.identity = Identity{1000, 1000};
  auto dev = MakeDisk(256 * 1024);
  Ext2Fs fs(dev, options);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  WriteAll(fs, "/f", "x");
  EXPECT_EQ(fs.Chown("/f", 0, 0).error(), Errno::kEPERM);
}

TEST(Permissions, ChmodRequiresOwnership) {
  Ext2Options options;
  options.identity = Identity{1000, 1000};
  auto dev = MakeDisk(256 * 1024);
  Ext2Fs fs(dev, options);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  // Root (mkfs identity is 1000 here, so make the file, then pretend a
  // different owner via a root-identity FS on the same device).
  WriteAll(fs, "/f", "x");
  ASSERT_TRUE(fs.Unmount().ok());

  Ext2Options root_options;  // uid 0
  Ext2Fs root_fs(dev, root_options);
  ASSERT_TRUE(root_fs.Mount().ok());
  ASSERT_TRUE(root_fs.Chown("/f", 555, 555).ok());
  ASSERT_TRUE(root_fs.Unmount().ok());

  ASSERT_TRUE(fs.Mount().ok());
  EXPECT_EQ(fs.Chmod("/f", 0777).error(), Errno::kEPERM);
}

}  // namespace
}  // namespace mcfs::fs
