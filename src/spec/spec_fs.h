// SpecFs: an executable POSIX specification used as the absolute oracle.
//
// Every other file system in this library is an *implementation*: blocks,
// caches, COW chunks, capacity-managed buffers. SpecFs is the *intended
// semantics* written down as the smallest state that can express them —
// in the style of "A Formal Model of a Virtual Filesystem Switch" (Ernst
// et al.) and BilbyFs's "Specifying a Realistic File System": two maps
// and nothing else.
//
//   names_:  map<absolute path, ino>     — the namespace, one entry per
//                                          directory binding (hard links
//                                          are simply two paths mapping
//                                          to the same ino)
//   inodes_: map<ino, SpecInode>         — type, mode, owner, times,
//                                          logical bytes, xattrs
//
// There are no blocks, no buffers with stale capacity tails, no
// invalidation logs: derived quantities (children of a directory, nlink,
// directory sizes) are computed by scanning the namespace on demand.
// Error precedence transcribes the POSIX rules the MCFS conformance
// suite pins (component ENOTDIR before EACCES before ENOENT, rmdir
// EBUSY-on-root before everything, rename cycle checks before parent
// resolution, ...). Because the spec is block-free it can never return
// ENOSPC — the one deliberate divergence, made harmless by the bounded
// parameter pools and free-space equalization (§3.4).
//
// As a `CheckpointableFs`, snapshots are O(state) deep copies: the state
// is tiny by construction, so a full serialize beats any sharing scheme
// in clarity and is still cheap. Restores notify the kernel cache
// invalidation surface exactly like VeriFS — the §6 bug-#2 contract.
//
// Plugged into a `SyscallEngine` panel as the oracle member (see
// `EngineOptions::oracle_index`), SpecFs turns MCFS's *relative* checking
// into *absolute* checking: a bug ported to every real implementation
// still disagrees with the spec.
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "fs/checkpointable.h"
#include "fs/filesystem.h"
#include "fs/kernel_notifier.h"
#include "fs/perms.h"

namespace mcfs::spec {

struct SpecFsOptions {
  fs::Identity identity;
  // Virtual capacity reported by StatFs. Matches the VeriFS2 default
  // quota so free-space equalization across a spec/VeriFS pair is a
  // no-op. The spec never *enforces* it: no blocks, no ENOSPC.
  std::uint64_t virtual_total_bytes = 8ull * 1024 * 1024;
};

class SpecFs final : public fs::FileSystem, public fs::CheckpointableFs {
 public:
  explicit SpecFs(SpecFsOptions options = {});

  // Restore-time cache invalidations, same contract as VeriFS (§6 bug #2).
  void SetNotifier(fs::KernelNotifier* notifier) { notifier_ = notifier; }

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
  Status Rename(const std::string& from, const std::string& to) override;
  Status Link(const std::string& existing, const std::string& link) override;
  Status Symlink(const std::string& target, const std::string& link) override;
  Result<std::string> ReadLink(const std::string& path) override;
  Status Access(const std::string& path, std::uint32_t mode) override;
  Status SetXattr(const std::string& path, const std::string& name,
                  ByteView value) override;
  Result<Bytes> GetXattr(const std::string& path,
                         const std::string& name) override;
  Result<std::vector<std::string>> ListXattr(const std::string& path) override;
  Status RemoveXattr(const std::string& path, const std::string& name) override;

  std::string TypeName() const override { return "specfs"; }

  // CheckpointableFs: O(state) deep-copy snapshots.
  Result<fs::SnapshotId> Checkpoint() override;
  Status Restore(fs::SnapshotId id) override;
  Status Discard(fs::SnapshotId id) override;
  fs::SnapshotStats Stats() const override;

  // Raw state export/import for process/VM snapshotters (see Verifs2).
  Bytes ExportState() const { return SerializeState(); }
  void ImportState(ByteView state);

 private:
  struct SpecInode {
    fs::FileType type = fs::FileType::kRegular;
    fs::Mode mode = 0;
    std::uint32_t uid = 0;
    std::uint32_t gid = 0;
    std::uint64_t atime_ns = 0;
    std::uint64_t mtime_ns = 0;
    std::uint64_t ctime_ns = 0;
    Bytes data;  // logical bytes only: file content or symlink target
    std::map<std::string, Bytes> xattrs;
  };

  struct OpenFile {
    fs::InodeNum ino;
    std::uint32_t flags;
  };

  struct ParentRef {
    std::string parent_path;  // canonical
    std::string name;
  };

  static constexpr fs::InodeNum kRootIno = 1;

  // Walks `path` component by component, applying the POSIX precedence
  // rules per component: ENOTDIR (intermediate not a directory) before
  // EACCES (no search permission) before ENOENT (missing binding).
  // Returns the canonical path of the resolved node.
  Result<std::string> Resolve(const std::string& path) const;
  Result<ParentRef> ResolveParent(const std::string& path) const;

  const SpecInode& Node(fs::InodeNum ino) const { return inodes_.at(ino); }
  SpecInode& MutNode(fs::InodeNum ino) { return inodes_.at(ino); }
  fs::InodeNum InoAt(const std::string& canonical_path) const {
    return names_.at(canonical_path);
  }

  std::uint64_t NowNs() { return ++op_counter_ * 1000; }
  // Scans the namespace: number of bindings referencing `ino`.
  std::uint32_t CountLinks(fs::InodeNum ino) const;
  // Scans the namespace: direct children of the directory at
  // `canonical_path`, as (name, ino) pairs in name order.
  std::vector<std::pair<std::string, fs::InodeNum>> ChildrenOf(
      const std::string& canonical_path) const;
  fs::InodeAttr ToAttr(const std::string& canonical_path,
                       fs::InodeNum ino) const;
  // Drops the inode once its last binding is gone.
  void ReleaseIfUnlinked(fs::InodeNum ino);
  Result<fs::InodeNum> CreateChild(const ParentRef& ref, fs::FileType type,
                                   fs::Mode mode,
                                   const std::string& symlink_target);
  void TouchParentMtime(const std::string& parent_path);

  Bytes SerializeState() const;
  void DeserializeState(ByteView state);
  void InvalidateKernelCaches(std::vector<std::string> extra_paths,
                              std::vector<fs::InodeNum> extra_inos);

  SpecFsOptions options_;
  bool mounted_ = false;
  std::map<std::string, fs::InodeNum> names_;
  std::map<fs::InodeNum, SpecInode> inodes_;
  fs::InodeNum next_ino_ = kRootIno + 1;
  std::unordered_map<fs::FileHandle, OpenFile> open_files_;
  fs::FileHandle next_handle_ = 1;
  std::uint64_t op_counter_ = 0;
  std::map<fs::SnapshotId, Bytes> snapshots_;
  fs::SnapshotId next_snapshot_ = 1;
  fs::KernelNotifier* notifier_ = nullptr;
};

}  // namespace mcfs::spec
