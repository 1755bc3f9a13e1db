// jffs2f: a log-structured flash file system in the JFFS2 tradition.
//
// JFFS2 cannot use a block device: it requires an MTD character device
// with erase-block semantics (the paper loads mtdram + mtdblock to build
// one in RAM, §4). jffs2f writes append-only *nodes* to the flash log:
//   * inode nodes   — the complete current state of one inode (attributes,
//     full data / symlink target, xattrs), versioned; latest wins; a
//     tombstone flag marks deletion;
//   * dirent nodes  — (parent, name) -> child bindings, versioned; a
//     binding to inode 0 is a deletion record.
// Mount scans the log and rebuilds an in-memory index; that index is the
// mount-time cache that goes stale if the flash is restored underneath a
// live mount (the §3.2 hazard, in its flash form). The scan still reads
// and parses every node on every mount, but it skips the checksum of a
// node that is byte-identical to one an earlier mount verified at the
// same offset (the checksum memo, see ReplayLog). When the log head
// reaches the end of the flash, garbage collection erases everything and
// rewrites only live nodes.
//
// Traits relevant to the paper: entry-count directory sizes (not
// block-rounded), no special directories, usable capacity very different
// from the block file systems, and much slower per-op device cost (flash
// program/erase latencies) — jffs2f is the slow outlier of Figure 2.
#pragma once

#include <map>
#include <unordered_map>

#include "fs/filesystem.h"
#include "fs/mount_state.h"
#include "fs/perms.h"
#include "storage/mtd_device.h"

namespace mcfs::fs {

struct Jffs2Options {
  Identity identity;
  // Crash mutant: mount ignores the replayed log and presents a fresh
  // tree (the in-memory index is authoritative while mounted, so the bug
  // is invisible live and only a crash-recovery check can kill it).
  bool bug_skip_log_replay = false;
};

class Jffs2Fs final : public FileSystem, public MountStateCapture {
 public:
  Jffs2Fs(std::shared_ptr<storage::MtdDevice> mtd, Jffs2Options options = {});
  ~Jffs2Fs() override;

  Status Mkfs() override;
  Status Mount() override;
  Status Unmount() override;
  bool IsMounted() const override { return mounted_; }

  Result<InodeAttr> GetAttr(const std::string& path) override;
  Status Mkdir(const std::string& path, Mode mode) override;
  Status Rmdir(const std::string& path) override;
  Status Unlink(const std::string& path) override;
  Result<std::vector<DirEntry>> ReadDir(const std::string& path) override;

  Result<FileHandle> Open(const std::string& path, std::uint32_t flags,
                          Mode mode) override;
  Status Close(FileHandle fh) override;
  Result<Bytes> Read(FileHandle fh, std::uint64_t offset,
                     std::uint64_t size) override;
  Result<std::uint64_t> Write(FileHandle fh, std::uint64_t offset,
                              ByteView data) override;
  Status Truncate(const std::string& path, std::uint64_t size) override;
  Status Fsync(FileHandle fh) override;

  Status Chmod(const std::string& path, Mode mode) override;
  Status Chown(const std::string& path, std::uint32_t uid,
               std::uint32_t gid) override;
  Result<StatVfs> StatFs() override;

  bool Supports(FsFeature feature) const override;
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

  std::string TypeName() const override { return "jffs2f"; }

  // MountStateCapture: the full in-memory index (the log replay's
  // product), so rollbacks skip the replay entirely.
  Result<Bytes> ExportMountState() const override;
  Status ImportMountState(ByteView image) override;

  // Test/diagnostics.
  std::uint64_t gc_runs() const { return gc_runs_; }
  // Nodes whose checksum replay computed / took from the memo, summed
  // over every mount of this instance.
  std::uint64_t replay_nodes_hashed() const { return replay_nodes_hashed_; }
  std::uint64_t replay_nodes_reused() const { return replay_nodes_reused_; }
  std::uint64_t log_head() const { return log_head_; }
  storage::MtdDevice& mtd() { return *mtd_; }

 private:
  static constexpr std::uint32_t kNodeMagic = 0x4a324653;  // "J2FS"
  static constexpr InodeNum kRootIno = 1;

  // kRename is a single node carrying both halves of a rename (drop the
  // source binding, install the destination binding, optionally tombstone
  // a replaced victim). Emitting it as one node makes rename atomic under
  // crash: the log either contains the whole rename or none of it,
  // whereas a tombstone+insert pair could tear between the two nodes and
  // lose the file entirely.
  enum class NodeType : std::uint8_t { kInode = 1, kDirent = 2, kRename = 3 };

  struct InodeRec {
    FileType type = FileType::kRegular;
    Mode mode = 0;
    std::uint32_t uid = 0;
    std::uint32_t gid = 0;
    std::uint64_t atime_ns = 0;
    std::uint64_t mtime_ns = 0;
    std::uint64_t ctime_ns = 0;
    Bytes data;  // file content or symlink target
    std::map<std::string, Bytes> xattrs;
  };

  struct OpenFile {
    InodeNum ino = kInvalidInode;
    std::uint32_t flags = 0;
  };

  // ---- log append / replay ----
  Bytes SerializeInodeNode(InodeNum ino, const InodeRec& rec,
                           bool tombstone);
  Bytes SerializeDirentNode(InodeNum parent, const std::string& name,
                            InodeNum target, FileType type);
  Bytes SerializeRenameNode(InodeNum src_parent, const std::string& src_name,
                            InodeNum dst_parent, const std::string& dst_name,
                            InodeNum target, FileType type, InodeNum victim,
                            bool victim_unlinked);
  // Frames a payload as one on-flash node: header, payload, 4-byte pad.
  static Bytes FrameNode(NodeType type, std::uint64_t seq, ByteView payload);
  // Programs a framed node at the log head; ENOSPC when it does not fit.
  Status ProgramAtHead(ByteView node);
  Status AppendNode(ByteView payload, NodeType type);
  Status GarbageCollect();
  Status ReplayLog();
  std::uint64_t LiveBytes() const;

  // ---- persistent-op helpers (mutate index + append node) ----
  Status PersistInode(InodeNum ino, bool tombstone = false);
  Status PersistDirent(InodeNum parent, const std::string& name,
                       InodeNum target, FileType type);

  // ---- namespace helpers ----
  std::uint32_t ComputeNlink(InodeNum ino, const InodeRec& rec) const;
  Result<InodeNum> LookupChild(InodeNum parent, const std::string& name) const;
  std::vector<std::pair<std::string, InodeNum>> ChildrenOf(
      InodeNum parent) const;
  struct Resolved {
    InodeNum ino;
  };
  Result<InodeNum> ResolvePath(const std::string& path) const;
  struct ResolvedParent {
    InodeNum parent_ino;
    std::string name;
  };
  Result<ResolvedParent> ResolveParent(const std::string& path) const;

  std::uint64_t NowNs() { return ++op_counter_ * 1000; }
  InodeAttr ToAttr(InodeNum ino, const InodeRec& rec) const;
  Result<InodeNum> CreateNode(const std::string& path, FileType type,
                              Mode mode, const std::string& symlink_target);
  Status RemoveNode(const std::string& path, bool want_dir);
  Status CheckWritableParent(InodeNum parent_ino) const;

  std::shared_ptr<storage::MtdDevice> mtd_;
  Jffs2Options options_;
  bool mounted_ = false;

  // In-memory index (rebuilt at mount by replaying the log).
  std::map<InodeNum, InodeRec> inodes_;
  std::map<std::pair<InodeNum, std::string>, std::pair<InodeNum, FileType>>
      dirents_;
  std::uint64_t log_head_ = 0;
  std::uint64_t next_seq_ = 1;
  InodeNum next_ino_ = kRootIno + 1;

  std::unordered_map<FileHandle, OpenFile> open_files_;
  FileHandle next_handle_ = 1;
  std::uint64_t op_counter_ = 0;
  std::uint64_t gc_runs_ = 0;

  // Checksum memo: nodes that passed their checksum, each at its flash
  // offset, back to back from offset 0 (the 4-byte alignment pads between
  // them hold arbitrary bytes). A node replay verifies replaces the memo
  // from its offset on, which keeps that shape. At most the flash size.
  Bytes verified_log_;
  std::uint64_t replay_nodes_hashed_ = 0;
  std::uint64_t replay_nodes_reused_ = 0;
};

}  // namespace mcfs::fs
