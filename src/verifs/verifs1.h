// VeriFS1: the paper's initial MCFS-enabled RAM file system (§5).
//
// Deliberately minimal, matching the paper's description:
//   * a fixed-length inode array;
//   * a contiguous memory buffer attached to each inode as file data
//     (physical bytes never shrink — which is why forgetting to zero on
//     expansion exposes stale data, the first historical bug);
//   * a limited operation set: NO access(), rename(), symbolic or hard
//     links, or extended attributes;
//   * no limit on the total amount of data stored;
//   * native checkpoint/restore via a snapshot pool.
//
// State is structurally shared (src/verifs/cow_state.h): the inode
// array lives in refcounted chunks and file data in refcounted blocks,
// so Checkpoint() copies O(#chunks) pointers, each mutation clones only
// the chunk/block it writes, and Restore() is a root swap. The
// `cow_snapshots` option falls back to the original copy-the-world
// serialization for differential testing.
//
// Because it is a user-space (FUSE-style) file system, a restore must
// tell the kernel to invalidate its caches through the KernelNotifier;
// the injectable bug flags can suppress that (historical bug #2). With
// COW snapshots the invalidation is O(dirty): every mutation appends
// the (path, inode) it touched to an InvalLog, and restore invalidates
// only the records written since the snapshot was taken.
#pragma once

#include <map>
#include <unordered_map>
#include <vector>

#include "fs/checkpointable.h"
#include "fs/filesystem.h"
#include "fs/kernel_notifier.h"
#include "fs/perms.h"
#include "verifs/bugs.h"
#include "verifs/cow_state.h"
#include "verifs/snapshot_pool.h"

namespace mcfs::verifs {

struct Verifs1Options {
  std::uint32_t inode_count = 64;  // the fixed-length inode array
  fs::Identity identity;
  VerifsBugs bugs;
  // Structurally-shared snapshots (O(1) checkpoint, O(dirty) restore).
  // False = the original deep-copy serialization per snapshot.
  bool cow_snapshots = true;
};

class Verifs1 : public fs::FileSystem, public fs::CheckpointableFs {
 public:
  explicit Verifs1(Verifs1Options options = {});

  // Wires the kernel-cache invalidation callbacks used on restore.
  void SetNotifier(fs::KernelNotifier* notifier) {
    cow_.set_notifier(notifier);
  }

  // FileSystem.
  Status Mkfs() override;
  Status Mount() override;
  Status Unmount() override;
  bool IsMounted() const override { return mounted_; }

  Result<fs::InodeAttr> GetAttr(const std::string& path) override;
  Status Mkdir(const std::string& path, fs::Mode mode) override;
  Status Rmdir(const std::string& path) override;
  Status Unlink(const std::string& path) override;
  Result<std::vector<fs::DirEntry>> ReadDir(const std::string& path) override;

  Result<fs::FileHandle> Open(const std::string& path, std::uint32_t flags,
                              fs::Mode mode) override;
  Status Close(fs::FileHandle fh) override;
  Result<Bytes> Read(fs::FileHandle fh, std::uint64_t offset,
                     std::uint64_t size) override;
  Result<std::uint64_t> Write(fs::FileHandle fh, std::uint64_t offset,
                              ByteView data) override;
  Status Truncate(const std::string& path, std::uint64_t size) override;
  Status Fsync(fs::FileHandle fh) override;

  Status Chmod(const std::string& path, fs::Mode mode) override;
  Status Chown(const std::string& path, std::uint32_t uid,
               std::uint32_t gid) override;
  Result<fs::StatVfs> StatFs() override;

  bool Supports(fs::FsFeature feature) const override;
  // Rename/Link/Symlink/Access/xattrs inherit the ENOTSUP defaults:
  // VeriFS1 genuinely lacks them (paper §5).

  std::string TypeName() const override { return "verifs1"; }

  // CheckpointableFs: first-class snapshot handles. Restore preserves
  // the snapshot; the keyed Ioctl* shims from the base class keep the
  // paper's consuming ioctl semantics on top of these.
  Result<fs::SnapshotId> Checkpoint() override {
    return cow_.Checkpoint(CowHost());
  }
  Status Restore(fs::SnapshotId id) override {
    return cow_.Restore(CowHost(), id);
  }
  Status Discard(fs::SnapshotId id) override { return cow_.Discard(id); }
  fs::SnapshotStats Stats() const override {
    return cow_.Stats(inodes_, [](const Inode&) { return std::uint64_t{0}; });
  }

  // Raw state export/import — what a process- or VM-level snapshotter
  // captures (the daemon's memory image). Import behaves like a restore,
  // including kernel-cache invalidation.
  Bytes ExportState() const { return SerializeState(); }
  void ImportState(ByteView state) { cow_.ImportState(CowHost(), state); }

 protected:
  struct Inode {
    bool used = false;
    fs::FileType type = fs::FileType::kRegular;
    fs::Mode mode = 0;
    std::uint32_t uid = 0;
    std::uint32_t gid = 0;
    std::uint64_t atime_ns = 0;
    std::uint64_t mtime_ns = 0;
    std::uint64_t ctime_ns = 0;
    // File payload: `buf` is the contiguous buffer (never shrunk),
    // `size` the logical file length.
    CowBuffer buf;
    std::uint64_t size = 0;
    // Directory payload: name -> inode index.
    std::map<std::string, std::uint32_t> children;
    std::uint32_t parent = 0;  // inode index of the containing directory
  };
  using Table = CowTable<Inode>;

  struct OpenFile {
    std::uint32_t ino_index;
    std::uint32_t flags;
  };

  static constexpr std::uint32_t kRootIndex = 0;

  // Grows (or shrinks) the logical file size. The correct implementation
  // zeroes [old_size, new_size) on growth; bug #1 skips it.
  void SetFileSize(Inode& inode, std::uint64_t new_size, bool zero_growth);

  Result<std::uint32_t> ResolveIndex(const std::string& path) const;
  struct ParentRef {
    std::uint32_t parent_index;
    std::string name;
  };
  Result<ParentRef> ResolveParentRef(const std::string& path) const;
  Result<std::uint32_t> AllocInode();
  std::uint64_t NowNs() { return ++op_counter_ * 1000; }
  fs::InodeAttr ToAttr(std::uint32_t index, const Inode& inode) const;
  std::uint32_t ComputeNlink(const Inode& inode) const;

  // Full-state serialization (deep-copy snapshots, ExportState, and the
  // VM/CRIU snapshotters).
  Bytes SerializeState() const;
  void DeserializeState(ByteView state);
  // This file system's state and hooks, as the checkpointer sees them.
  CowCheckpointer<Inode>::Host CowHost();
  // Mutant restore_skips_one_inode: unlinks the highest-numbered
  // non-root inode from the just-restored image.
  void DropOneInodeAfterRestore();
  // Full path of an inode via the parent chain (for mutant logging).
  std::string PathOfIndex(std::uint32_t index) const;

  Verifs1Options options_;
  bool mounted_ = false;
  Table inodes_;  // the fixed-length array, in COW chunks
  std::unordered_map<fs::FileHandle, OpenFile> open_files_;
  fs::FileHandle next_handle_ = 1;
  std::uint64_t op_counter_ = 0;
  // Snapshot pool + invalidation log (O(dirty) restore).
  CowCheckpointer<Inode> cow_;
};

}  // namespace mcfs::verifs
