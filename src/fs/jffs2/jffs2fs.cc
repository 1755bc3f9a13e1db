#include "fs/jffs2/jffs2fs.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "fs/path.h"
#include "util/md5.h"

namespace mcfs::fs {

Jffs2Fs::Jffs2Fs(std::shared_ptr<storage::MtdDevice> mtd,
                 Jffs2Options options)
    : mtd_(std::move(mtd)), options_(std::move(options)) {}

Jffs2Fs::~Jffs2Fs() {
  if (mounted_) (void)Unmount();
}

// ---------------------------------------------------------------------------
// Node serialization
//
// On-flash node: magic u32, type u8, seq u64, payload_len u32,
// crc u32 (low word of MD5 over payload), payload bytes; nodes are packed
// back-to-back, 4-byte aligned. The checksum stays MD5 rather than the
// table CRC32 real JFFS2 uses because, next to the unrolled MD5 kernel, a
// byte-wise CRC32 made remount-heavy ext4f-vs-jffs2f exploration slower.
// Erased flash (0xff...) fails the magic check, which is how the log scan
// finds its end.

Bytes Jffs2Fs::SerializeInodeNode(InodeNum ino, const InodeRec& rec,
                                  bool tombstone) {
  ByteWriter w;
  // File data dominates the node; the fixed fields, blob length and
  // xattr count take 56 bytes. A file rewritten by every write (the
  // free-space fill) would otherwise regrow and recopy its buffer on
  // each one.
  w.Reserve(56 + rec.data.size());
  w.PutU64(ino);
  w.PutU8(tombstone ? 1 : 0);
  w.PutU8(static_cast<std::uint8_t>(rec.type));
  w.PutU16(rec.mode);
  w.PutU32(rec.uid);
  w.PutU32(rec.gid);
  w.PutU64(rec.atime_ns);
  w.PutU64(rec.mtime_ns);
  w.PutU64(rec.ctime_ns);
  w.PutBlob(rec.data);
  w.PutU32(static_cast<std::uint32_t>(rec.xattrs.size()));
  for (const auto& [name, value] : rec.xattrs) {
    w.PutString(name);
    w.PutBlob(value);
  }
  return w.Take();
}

Bytes Jffs2Fs::SerializeDirentNode(InodeNum parent, const std::string& name,
                                   InodeNum target, FileType type) {
  ByteWriter w;
  w.PutU64(parent);
  w.PutString(name);
  w.PutU64(target);
  w.PutU8(static_cast<std::uint8_t>(type));
  return w.Take();
}

Bytes Jffs2Fs::SerializeRenameNode(InodeNum src_parent,
                                   const std::string& src_name,
                                   InodeNum dst_parent,
                                   const std::string& dst_name,
                                   InodeNum target, FileType type,
                                   InodeNum victim, bool victim_unlinked) {
  ByteWriter w;
  w.PutU64(src_parent);
  w.PutString(src_name);
  w.PutU64(dst_parent);
  w.PutString(dst_name);
  w.PutU64(target);
  w.PutU8(static_cast<std::uint8_t>(type));
  w.PutU64(victim);
  w.PutU8(victim_unlinked ? 1 : 0);
  return w.Take();
}

Bytes Jffs2Fs::FrameNode(NodeType type, std::uint64_t seq, ByteView payload) {
  ByteWriter w;
  w.Reserve((21 + payload.size() + 3) / 4 * 4);  // header + payload, padded
  w.PutU32(kNodeMagic);
  w.PutU8(static_cast<std::uint8_t>(type));
  w.PutU64(seq);
  w.PutU32(static_cast<std::uint32_t>(payload.size()));
  w.PutU32(static_cast<std::uint32_t>(Md5::Hash(payload).lo64()));
  w.PutBytes(payload);
  Bytes node = w.Take();
  while (node.size() % 4 != 0) node.push_back(0);
  return node;
}

Status Jffs2Fs::ProgramAtHead(ByteView node) {
  if (log_head_ + node.size() > mtd_->size_bytes()) return Errno::kENOSPC;
  if (Status s = mtd_->Program(log_head_, node); !s.ok()) return s;
  log_head_ += node.size();
  return Status::Ok();
}

Status Jffs2Fs::AppendNode(ByteView payload, NodeType type) {
  const Bytes node = FrameNode(type, next_seq_, payload);
  if (log_head_ + node.size() > mtd_->size_bytes()) {
    if (Status s = GarbageCollect(); !s.ok()) return s;
  }
  if (Status s = ProgramAtHead(node); !s.ok()) return s;
  ++next_seq_;
  return Status::Ok();
}

std::uint64_t Jffs2Fs::LiveBytes() const {
  // Serialized size of the live index (header overhead ~21B per node).
  std::uint64_t bytes = 0;
  for (const auto& [ino, rec] : inodes_) {
    bytes += 64 + rec.data.size();
    for (const auto& [name, value] : rec.xattrs) {
      bytes += 16 + name.size() + value.size();
    }
  }
  for (const auto& [key, val] : dirents_) {
    bytes += 40 + key.second.size();
  }
  return bytes;
}

Status Jffs2Fs::GarbageCollect() {
  ++gc_runs_;
  // Erase-everything GC: the live index is authoritative, so we wipe the
  // flash and rewrite only live nodes. (Real JFFS2 GCs block by block;
  // whole-log compaction has the same observable result.)
  for (std::uint32_t b = 0; b < mtd_->erase_block_count(); ++b) {
    if (Status s = mtd_->EraseBlock(b); !s.ok()) return s;
  }
  log_head_ = 0;
  for (const auto& [ino, rec] : inodes_) {
    const Bytes payload = SerializeInodeNode(ino, rec, /*tombstone=*/false);
    if (Status s = ProgramAtHead(
            FrameNode(NodeType::kInode, next_seq_++, payload));
        !s.ok()) {
      return s;
    }
  }
  for (const auto& [key, val] : dirents_) {
    const Bytes payload =
        SerializeDirentNode(key.first, key.second, val.first, val.second);
    if (Status s = ProgramAtHead(
            FrameNode(NodeType::kDirent, next_seq_++, payload));
        !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

Status Jffs2Fs::ReplayLog() {
  inodes_.clear();
  dirents_.clear();
  log_head_ = 0;
  next_seq_ = 1;
  next_ino_ = kRootIno + 1;

  // Track highest-seq winner per inode / dirent key.
  std::map<InodeNum, std::pair<std::uint64_t, InodeRec>> latest_inode;
  std::map<InodeNum, std::pair<std::uint64_t, bool>> inode_dead;
  std::map<std::pair<InodeNum, std::string>,
           std::pair<std::uint64_t, std::pair<InodeNum, FileType>>>
      latest_dirent;

  // Every node is read and parsed, so the device charges and the rebuilt
  // index are those of a cold replay; the checksum memo only spares the
  // MD5 of nodes an earlier replay verified.
  const std::uint64_t flash = mtd_->size_bytes();
  // One allocation of the whole flash per instance. Grown node by node,
  // the memo's large reallocations and frees moved malloc's dynamic mmap
  // threshold, which made building the next Mcfs (ext4f x jffs2f) 15%
  // slower.
  verified_log_.reserve(flash);
  std::uint64_t pos = 0;
  while (pos + 21 <= flash) {
    Bytes header(21);
    if (Status s = mtd_->Read(pos, header); !s.ok()) return s;
    ByteReader hr(header);
    if (hr.GetU32() != kNodeMagic) break;  // erased area: end of log
    const auto type = static_cast<NodeType>(hr.GetU8());
    const std::uint64_t seq = hr.GetU64();
    const std::uint32_t len = hr.GetU32();
    const std::uint32_t crc = hr.GetU32();
    if (pos + 21 + len > flash) break;  // truncated tail
    Bytes payload(len);
    if (Status s = mtd_->Read(pos + 21, payload); !s.ok()) return s;
    // Either every node so far equalled the memo's, so `pos` is a node
    // boundary of the memo too, or the memo was cut at the last node this
    // replay hashed and ends before `pos`. So a node equal to the memo
    // bytes at `pos` is one that passed its checksum, a pure function of
    // these bytes. Without the cut, a memo range could straddle two old
    // nodes and vouch for bytes that were never checked as a node.
    const bool verified =
        pos + 21 + len <= verified_log_.size() &&
        std::memcmp(verified_log_.data() + pos, header.data(), 21) == 0 &&
        (len == 0 || std::memcmp(verified_log_.data() + pos + 21,
                                 payload.data(), len) == 0);
    if (verified) {
      ++replay_nodes_reused_;
    } else {
      ++replay_nodes_hashed_;
      if (static_cast<std::uint32_t>(Md5::Hash(payload).lo64()) != crc) {
        break;  // torn node: end of valid log
      }
      verified_log_.resize(pos);
      verified_log_.insert(verified_log_.end(), header.begin(), header.end());
      verified_log_.insert(verified_log_.end(), payload.begin(),
                           payload.end());
    }

    try {
    ByteReader r(payload);
    if (type == NodeType::kInode) {
      const InodeNum ino = r.GetU64();
      const bool tombstone = r.GetU8() != 0;
      InodeRec rec;
      rec.type = static_cast<FileType>(r.GetU8());
      rec.mode = r.GetU16();
      rec.uid = r.GetU32();
      rec.gid = r.GetU32();
      rec.atime_ns = r.GetU64();
      rec.mtime_ns = r.GetU64();
      rec.ctime_ns = r.GetU64();
      rec.data = r.GetBlob();
      const std::uint32_t xattr_count = r.GetU32();
      for (std::uint32_t i = 0; i < xattr_count; ++i) {
        std::string name = r.GetString();
        rec.xattrs[std::move(name)] = r.GetBlob();
      }
      if (tombstone) {
        auto& dead = inode_dead[ino];
        if (seq >= dead.first) dead = {seq, true};
      } else {
        auto& slot = latest_inode[ino];
        if (seq >= slot.first) slot = {seq, std::move(rec)};
        auto& dead = inode_dead[ino];
        if (seq >= dead.first) dead = {seq, false};
      }
      if (ino >= next_ino_) next_ino_ = ino + 1;
    } else if (type == NodeType::kDirent) {
      const InodeNum parent = r.GetU64();
      std::string name = r.GetString();
      const InodeNum target = r.GetU64();
      const auto ftype = static_cast<FileType>(r.GetU8());
      auto& slot = latest_dirent[{parent, std::move(name)}];
      if (seq >= slot.first) slot = {seq, {target, ftype}};
    } else if (type == NodeType::kRename) {
      // Both halves of the rename share one seq: the node is applied
      // atomically or (torn tail) not at all.
      const InodeNum src_parent = r.GetU64();
      std::string src_name = r.GetString();
      const InodeNum dst_parent = r.GetU64();
      std::string dst_name = r.GetString();
      const InodeNum target = r.GetU64();
      const auto ftype = static_cast<FileType>(r.GetU8());
      const InodeNum victim = r.GetU64();
      const bool victim_unlinked = r.GetU8() != 0;
      auto& src_slot = latest_dirent[{src_parent, std::move(src_name)}];
      if (seq >= src_slot.first) src_slot = {seq, {kInvalidInode, ftype}};
      auto& dst_slot = latest_dirent[{dst_parent, std::move(dst_name)}];
      if (seq >= dst_slot.first) dst_slot = {seq, {target, ftype}};
      if (victim_unlinked) {
        auto& dead = inode_dead[victim];
        if (seq >= dead.first) dead = {seq, true};
      }
    }
    } catch (const std::out_of_range&) {
      break;  // garbage payload despite a CRC match: treat as log end
    }
    if (seq >= next_seq_) next_seq_ = seq + 1;

    std::uint64_t advance = 21 + len;
    while (advance % 4 != 0) ++advance;
    pos += advance;
  }
  log_head_ = pos;

  for (auto& [ino, slot] : latest_inode) {
    const auto dead = inode_dead.find(ino);
    if (dead != inode_dead.end() && dead->second.second) continue;
    inodes_[ino] = std::move(slot.second);
  }
  for (auto& [key, slot] : latest_dirent) {
    if (slot.second.first == kInvalidInode) continue;       // deletion
    if (!inodes_.contains(slot.second.first)) continue;     // dangling
    dirents_[key] = slot.second;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Persistence helpers

Status Jffs2Fs::PersistInode(InodeNum ino, bool tombstone) {
  static const InodeRec kEmpty{};
  const InodeRec& rec = tombstone ? kEmpty : inodes_.at(ino);
  return AppendNode(SerializeInodeNode(ino, rec, tombstone),
                    NodeType::kInode);
}

Status Jffs2Fs::PersistDirent(InodeNum parent, const std::string& name,
                              InodeNum target, FileType type) {
  return AppendNode(SerializeDirentNode(parent, name, target, type),
                    NodeType::kDirent);
}

// ---------------------------------------------------------------------------
// Lifecycle

Status Jffs2Fs::Mkfs() {
  if (mounted_) return Errno::kEBUSY;
  for (std::uint32_t b = 0; b < mtd_->erase_block_count(); ++b) {
    if (Status s = mtd_->EraseBlock(b); !s.ok()) return s;
  }
  inodes_.clear();
  dirents_.clear();
  log_head_ = 0;
  next_seq_ = 1;
  next_ino_ = kRootIno + 1;

  InodeRec root;
  root.type = FileType::kDirectory;
  root.mode = 0755;
  root.uid = options_.identity.uid;
  root.gid = options_.identity.gid;
  root.atime_ns = root.mtime_ns = root.ctime_ns = NowNs();
  inodes_[kRootIno] = root;
  Status s = PersistInode(kRootIno);
  inodes_.clear();
  log_head_ = 0;  // forget the in-memory view; mount rebuilds it
  if (s.ok()) s = mtd_->Flush();  // a fresh format is durable
  return s;
}

Status Jffs2Fs::Mount() {
  if (mounted_) return Errno::kEBUSY;
  if (Status s = ReplayLog(); !s.ok()) return s;
  if (options_.bug_skip_log_replay) {
    // MUTANT: discard the replayed index and present a fresh tree. The
    // replay still ran so log_head_/next_seq_/next_ino_ stay correct
    // (appends must land on erased flash); only the recovered namespace
    // is thrown away.
    inodes_.clear();
    dirents_.clear();
    InodeRec root;
    root.type = FileType::kDirectory;
    root.mode = 0755;
    root.uid = options_.identity.uid;
    root.gid = options_.identity.gid;
    root.atime_ns = root.mtime_ns = root.ctime_ns = NowNs();
    inodes_[kRootIno] = root;
    mounted_ = true;
    return Status::Ok();
  }
  if (!inodes_.contains(kRootIno)) return Errno::kEINVAL;  // not formatted
  mounted_ = true;
  return Status::Ok();
}

Status Jffs2Fs::Unmount() {
  if (!mounted_) return Errno::kEINVAL;
  // Unmount drains: everything programmed becomes durable.
  if (Status s = mtd_->Flush(); !s.ok()) return s;
  mounted_ = false;
  inodes_.clear();
  dirents_.clear();
  open_files_.clear();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Mount-state capture (paper §7 future work)

Result<Bytes> Jffs2Fs::ExportMountState() const {
  if (!mounted_) return Errno::kEINVAL;
  ByteWriter w;
  w.PutU32(static_cast<std::uint32_t>(inodes_.size()));
  for (const auto& [ino, rec] : inodes_) {
    w.PutU64(ino);
    w.PutU8(static_cast<std::uint8_t>(rec.type));
    w.PutU16(rec.mode);
    w.PutU32(rec.uid);
    w.PutU32(rec.gid);
    w.PutU64(rec.atime_ns);
    w.PutU64(rec.mtime_ns);
    w.PutU64(rec.ctime_ns);
    w.PutBlob(rec.data);
    w.PutU32(static_cast<std::uint32_t>(rec.xattrs.size()));
    for (const auto& [name, value] : rec.xattrs) {
      w.PutString(name);
      w.PutBlob(value);
    }
  }
  w.PutU32(static_cast<std::uint32_t>(dirents_.size()));
  for (const auto& [key, val] : dirents_) {
    w.PutU64(key.first);
    w.PutString(key.second);
    w.PutU64(val.first);
    w.PutU8(static_cast<std::uint8_t>(val.second));
  }
  w.PutU64(log_head_);
  w.PutU64(next_seq_);
  w.PutU64(next_ino_);
  w.PutU64(op_counter_);
  return w.Take();
}

Status Jffs2Fs::ImportMountState(ByteView image) {
  if (!mounted_) return Errno::kEINVAL;
  try {
    ByteReader r(image);
    std::map<InodeNum, InodeRec> inodes;
    const std::uint32_t inode_count = r.GetU32();
    for (std::uint32_t i = 0; i < inode_count; ++i) {
      const InodeNum ino = r.GetU64();
      InodeRec rec;
      rec.type = static_cast<FileType>(r.GetU8());
      rec.mode = r.GetU16();
      rec.uid = r.GetU32();
      rec.gid = r.GetU32();
      rec.atime_ns = r.GetU64();
      rec.mtime_ns = r.GetU64();
      rec.ctime_ns = r.GetU64();
      rec.data = r.GetBlob();
      const std::uint32_t xattr_count = r.GetU32();
      for (std::uint32_t x = 0; x < xattr_count; ++x) {
        std::string name = r.GetString();
        rec.xattrs[std::move(name)] = r.GetBlob();
      }
      inodes[ino] = std::move(rec);
    }
    std::map<std::pair<InodeNum, std::string>,
             std::pair<InodeNum, FileType>>
        dirents;
    const std::uint32_t dirent_count = r.GetU32();
    for (std::uint32_t i = 0; i < dirent_count; ++i) {
      const InodeNum parent = r.GetU64();
      std::string name = r.GetString();
      const InodeNum target = r.GetU64();
      const auto type = static_cast<FileType>(r.GetU8());
      dirents[{parent, std::move(name)}] = {target, type};
    }
    inodes_ = std::move(inodes);
    dirents_ = std::move(dirents);
    log_head_ = r.GetU64();
    next_seq_ = r.GetU64();
    next_ino_ = r.GetU64();
    op_counter_ = r.GetU64();
    open_files_.clear();
    return Status::Ok();
  } catch (const std::out_of_range&) {
    return Errno::kEINVAL;
  }
}

// ---------------------------------------------------------------------------
// Namespace helpers

std::uint32_t Jffs2Fs::ComputeNlink(InodeNum ino, const InodeRec& rec) const {
  if (rec.type == FileType::kDirectory) {
    std::uint32_t n = 2;
    for (const auto& [key, val] : dirents_) {
      if (key.first == ino && val.second == FileType::kDirectory) ++n;
    }
    return n;
  }
  std::uint32_t n = 0;
  for (const auto& [key, val] : dirents_) {
    if (val.first == ino) ++n;
  }
  return n == 0 ? 1 : n;  // freshly created, not yet linked during CreateNode
}

Result<InodeNum> Jffs2Fs::LookupChild(InodeNum parent,
                                      const std::string& name) const {
  auto it = dirents_.find({parent, name});
  if (it == dirents_.end()) return Errno::kENOENT;
  return it->second.first;
}

std::vector<std::pair<std::string, InodeNum>> Jffs2Fs::ChildrenOf(
    InodeNum parent) const {
  std::vector<std::pair<std::string, InodeNum>> out;
  for (const auto& [key, val] : dirents_) {
    if (key.first == parent) out.emplace_back(key.second, val.first);
  }
  return out;
}

Result<InodeNum> Jffs2Fs::ResolvePath(const std::string& path) const {
  if (!mounted_) return Errno::kEINVAL;
  auto split = SplitPath(path);
  if (!split.ok()) return split.error();
  InodeNum ino = kRootIno;
  for (const auto& comp : split.value()) {
    const auto it = inodes_.find(ino);
    if (it == inodes_.end()) return Errno::kEIO;  // index corruption
    if (it->second.type != FileType::kDirectory) return Errno::kENOTDIR;
    if (!PermissionGranted(ToAttr(ino, it->second), options_.identity,
                           kXOk)) {
      return Errno::kEACCES;
    }
    auto child = LookupChild(ino, comp);
    if (!child.ok()) return child.error();
    ino = child.value();
  }
  if (!inodes_.contains(ino)) return Errno::kEIO;
  return ino;
}

Result<Jffs2Fs::ResolvedParent> Jffs2Fs::ResolveParent(
    const std::string& path) const {
  auto split = SplitPath(path);
  if (!split.ok()) return split.error();
  if (split.value().empty()) return Errno::kEINVAL;
  auto parent = ResolvePath(ParentPath(path));
  if (!parent.ok()) return parent.error();
  if (inodes_.at(parent.value()).type != FileType::kDirectory) {
    return Errno::kENOTDIR;
  }
  return ResolvedParent{parent.value(), split.value().back()};
}

Status Jffs2Fs::CheckWritableParent(InodeNum parent_ino) const {
  const InodeRec& parent = inodes_.at(parent_ino);
  return PermissionGranted(ToAttr(parent_ino, parent), options_.identity,
                           kWOk)
             ? Status::Ok()
             : Status(Errno::kEACCES);
}

InodeAttr Jffs2Fs::ToAttr(InodeNum ino, const InodeRec& rec) const {
  InodeAttr attr;
  attr.ino = ino;
  attr.type = rec.type;
  attr.mode = rec.mode;
  attr.nlink = ComputeNlink(ino, rec);
  attr.uid = rec.uid;
  attr.gid = rec.gid;
  // jffs2f trait: directory size = live entry payload (paper §3.4).
  attr.size = rec.type == FileType::kDirectory
                  ? ChildrenOf(ino).size() * 32
                  : rec.data.size();
  attr.atime_ns = rec.atime_ns;
  attr.mtime_ns = rec.mtime_ns;
  attr.ctime_ns = rec.ctime_ns;
  attr.blocks = (rec.data.size() + 511) / 512;
  return attr;
}

// ---------------------------------------------------------------------------
// Namespace operations

Result<InodeAttr> Jffs2Fs::GetAttr(const std::string& path) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  return ToAttr(res.value(), inodes_.at(res.value()));
}

Result<InodeNum> Jffs2Fs::CreateNode(const std::string& path, FileType type,
                                     Mode mode,
                                     const std::string& symlink_target) {
  auto parent = ResolveParent(path);
  if (!parent.ok()) return parent.error();
  if (Status s = CheckWritableParent(parent.value().parent_ino); !s.ok()) {
    return s.error();
  }
  if (dirents_.contains({parent.value().parent_ino, parent.value().name})) {
    return Errno::kEEXIST;
  }

  const InodeNum ino = next_ino_++;
  InodeRec rec;
  rec.type = type;
  rec.mode = static_cast<Mode>(mode & kModeMask);
  rec.uid = options_.identity.uid;
  rec.gid = options_.identity.gid;
  rec.atime_ns = rec.mtime_ns = rec.ctime_ns = NowNs();
  if (type == FileType::kSymlink) {
    rec.data.assign(symlink_target.begin(), symlink_target.end());
  }
  inodes_[ino] = std::move(rec);
  if (Status s = PersistInode(ino); !s.ok()) {
    inodes_.erase(ino);
    return s.error();
  }
  dirents_[{parent.value().parent_ino, parent.value().name}] = {ino, type};
  if (Status s = PersistDirent(parent.value().parent_ino,
                               parent.value().name, ino, type);
      !s.ok()) {
    dirents_.erase({parent.value().parent_ino, parent.value().name});
    inodes_.erase(ino);
    return s.error();
  }
  // Touch the parent's mtime.
  InodeRec& parent_rec = inodes_.at(parent.value().parent_ino);
  parent_rec.mtime_ns = NowNs();
  if (Status s = PersistInode(parent.value().parent_ino); !s.ok()) {
    return s.error();
  }
  return ino;
}

Status Jffs2Fs::Mkdir(const std::string& path, Mode mode) {
  auto ino = CreateNode(path, FileType::kDirectory, mode, "");
  return ino.ok() ? Status::Ok() : Status(ino.error());
}

Status Jffs2Fs::RemoveNode(const std::string& path, bool want_dir) {
  auto parent = ResolveParent(path);
  if (!parent.ok()) return parent.error();
  if (Status s = CheckWritableParent(parent.value().parent_ino); !s.ok()) {
    return s;
  }
  const auto key =
      std::make_pair(parent.value().parent_ino, parent.value().name);
  auto it = dirents_.find(key);
  if (it == dirents_.end()) return Errno::kENOENT;
  const InodeNum victim = it->second.first;
  const InodeRec& rec = inodes_.at(victim);

  if (want_dir) {
    if (rec.type != FileType::kDirectory) return Errno::kENOTDIR;
    if (!ChildrenOf(victim).empty()) return Errno::kENOTEMPTY;
  } else if (rec.type == FileType::kDirectory) {
    return Errno::kEISDIR;
  }

  dirents_.erase(it);
  if (Status s = PersistDirent(key.first, key.second, kInvalidInode,
                               rec.type);
      !s.ok()) {
    return s;
  }
  // Drop the inode if that was the last link.
  bool still_linked = false;
  for (const auto& [k, v] : dirents_) {
    if (v.first == victim) {
      still_linked = true;
      break;
    }
  }
  if (!still_linked) {
    inodes_.erase(victim);
    if (Status s = PersistInode(victim, /*tombstone=*/true); !s.ok()) {
      return s;
    }
  }
  InodeRec& parent_rec = inodes_.at(parent.value().parent_ino);
  parent_rec.mtime_ns = NowNs();
  return PersistInode(parent.value().parent_ino);
}

Status Jffs2Fs::Rmdir(const std::string& path) {
  if (path == "/") return Errno::kEBUSY;
  return RemoveNode(path, /*want_dir=*/true);
}

Status Jffs2Fs::Unlink(const std::string& path) {
  return RemoveNode(path, /*want_dir=*/false);
}

Result<std::vector<DirEntry>> Jffs2Fs::ReadDir(const std::string& path) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  InodeRec& rec = inodes_.at(res.value());
  if (rec.type != FileType::kDirectory) return Errno::kENOTDIR;
  if (!PermissionGranted(ToAttr(res.value(), rec), options_.identity,
                         kROk)) {
    return Errno::kEACCES;
  }
  rec.atime_ns = NowNs();  // in-memory only, like relatime
  std::vector<DirEntry> out;
  for (const auto& [key, val] : dirents_) {
    if (key.first == res.value()) {
      out.push_back({key.second, val.first, val.second});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// File I/O

Result<FileHandle> Jffs2Fs::Open(const std::string& path,
                                 std::uint32_t flags, Mode mode) {
  if (!mounted_) return Errno::kEINVAL;
  auto res = ResolvePath(path);
  InodeNum ino;
  if (!res.ok()) {
    if (res.error() != Errno::kENOENT || !(flags & kCreate)) {
      return res.error();
    }
    auto created = CreateNode(path, FileType::kRegular, mode, "");
    if (!created.ok()) return created.error();
    ino = created.value();
  } else {
    if (flags & kCreate && flags & kExcl) return Errno::kEEXIST;
    ino = res.value();
    InodeRec& rec = inodes_.at(ino);
    const bool want_write = (flags & kAccessModeMask) != kRdOnly;
    if (rec.type == FileType::kDirectory && want_write) {
      return Errno::kEISDIR;
    }
    if (rec.type == FileType::kSymlink) return Errno::kELOOP;
    const std::uint32_t want =
        want_write
            ? ((flags & kAccessModeMask) == kRdWr ? (kROk | kWOk) : kWOk)
            : kROk;
    if (!PermissionGranted(ToAttr(ino, rec), options_.identity, want)) {
      return Errno::kEACCES;
    }
    if ((flags & kTrunc) && want_write && rec.type == FileType::kRegular &&
        !rec.data.empty()) {
      rec.data.clear();
      rec.mtime_ns = NowNs();
      if (Status s = PersistInode(ino); !s.ok()) return s.error();
    }
  }
  const FileHandle fh = next_handle_++;
  open_files_[fh] = OpenFile{ino, flags};
  return fh;
}

Status Jffs2Fs::Close(FileHandle fh) {
  if (!mounted_) return Errno::kEINVAL;
  return open_files_.erase(fh) == 1 ? Status::Ok() : Status(Errno::kEBADF);
}

Result<Bytes> Jffs2Fs::Read(FileHandle fh, std::uint64_t offset,
                            std::uint64_t size) {
  if (!mounted_) return Errno::kEINVAL;
  auto it = open_files_.find(fh);
  if (it == open_files_.end()) return Errno::kEBADF;
  if ((it->second.flags & kAccessModeMask) == kWrOnly) return Errno::kEBADF;
  InodeRec& rec = inodes_.at(it->second.ino);
  if (rec.type == FileType::kDirectory) return Errno::kEISDIR;
  rec.atime_ns = NowNs();
  if (offset >= rec.data.size()) return Bytes{};
  const std::uint64_t n = std::min(size, rec.data.size() - offset);
  return Bytes(rec.data.begin() + static_cast<std::ptrdiff_t>(offset),
               rec.data.begin() + static_cast<std::ptrdiff_t>(offset + n));
}

Result<std::uint64_t> Jffs2Fs::Write(FileHandle fh, std::uint64_t offset,
                                     ByteView data) {
  if (!mounted_) return Errno::kEINVAL;
  auto it = open_files_.find(fh);
  if (it == open_files_.end()) return Errno::kEBADF;
  if ((it->second.flags & kAccessModeMask) == kRdOnly) return Errno::kEBADF;
  InodeRec& rec = inodes_.at(it->second.ino);
  if (it->second.flags & kAppend) offset = rec.data.size();

  // Soft quota: refuse writes the log can never hold even after GC.
  if (LiveBytes() + data.size() + 128 > mtd_->size_bytes()) {
    return Errno::kENOSPC;
  }
  if (offset + data.size() > rec.data.size()) {
    rec.data.resize(offset + data.size(), 0);  // zero-fill any hole
  }
  std::copy(data.begin(), data.end(),
            rec.data.begin() + static_cast<std::ptrdiff_t>(offset));
  rec.mtime_ns = NowNs();
  rec.ctime_ns = rec.mtime_ns;
  if (Status s = PersistInode(it->second.ino); !s.ok()) return s.error();
  return data.size();
}

Status Jffs2Fs::Truncate(const std::string& path, std::uint64_t size) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  InodeRec& rec = inodes_.at(res.value());
  if (rec.type == FileType::kDirectory) return Errno::kEISDIR;
  if (!PermissionGranted(ToAttr(res.value(), rec), options_.identity,
                         kWOk)) {
    return Errno::kEACCES;
  }
  if (LiveBytes() + size + 128 > mtd_->size_bytes() &&
      size > rec.data.size()) {
    return Errno::kENOSPC;
  }
  rec.data.resize(size, 0);  // shrink discards; growth zero-fills
  rec.mtime_ns = NowNs();
  rec.ctime_ns = rec.mtime_ns;
  return PersistInode(res.value());
}

Status Jffs2Fs::Fsync(FileHandle fh) {
  if (!mounted_) return Errno::kEINVAL;
  if (!open_files_.contains(fh)) return Errno::kEBADF;
  // The log is write-through, but "programmed" is not "persistent":
  // fsync is the barrier that makes in-flight flash programs durable.
  return mtd_->Flush();
}

// ---------------------------------------------------------------------------
// Attributes

Status Jffs2Fs::Chmod(const std::string& path, Mode mode) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  InodeRec& rec = inodes_.at(res.value());
  if (!options_.identity.IsRoot() && options_.identity.uid != rec.uid) {
    return Errno::kEPERM;
  }
  rec.mode = static_cast<Mode>(mode & kModeMask);
  rec.ctime_ns = NowNs();
  return PersistInode(res.value());
}

Status Jffs2Fs::Chown(const std::string& path, std::uint32_t uid,
                      std::uint32_t gid) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  if (!options_.identity.IsRoot()) return Errno::kEPERM;
  InodeRec& rec = inodes_.at(res.value());
  rec.uid = uid;
  rec.gid = gid;
  rec.ctime_ns = NowNs();
  return PersistInode(res.value());
}

Result<StatVfs> Jffs2Fs::StatFs() {
  if (!mounted_) return Errno::kEINVAL;
  StatVfs out;
  out.block_size = mtd_->erase_block_size();
  out.total_bytes = mtd_->size_bytes();
  const std::uint64_t live = LiveBytes();
  out.free_bytes = live >= out.total_bytes ? 0 : out.total_bytes - live;
  // JFFS2 has no fixed inode table.
  out.total_inodes = 0xffffffff;
  out.free_inodes = 0xffffffff - inodes_.size();
  return out;
}

// ---------------------------------------------------------------------------
// Optional ops

bool Jffs2Fs::Supports(FsFeature feature) const {
  switch (feature) {
    case FsFeature::kRename:
    case FsFeature::kHardLink:
    case FsFeature::kSymlink:
    case FsFeature::kAccess:
    case FsFeature::kXattr:
      return true;
    case FsFeature::kCheckpointRestore:
      return false;
  }
  return false;
}

Status Jffs2Fs::Rename(const std::string& from, const std::string& to) {
  if (from == "/" || to == "/") return Errno::kEBUSY;
  if (IsPathPrefix(from, to) && from != to) return Errno::kEINVAL;

  auto src_parent = ResolveParent(from);
  if (!src_parent.ok()) return src_parent.error();
  const auto src_key = std::make_pair(src_parent.value().parent_ino,
                                      src_parent.value().name);
  auto src_it = dirents_.find(src_key);
  if (src_it == dirents_.end()) return Errno::kENOENT;

  auto dst_parent = ResolveParent(to);
  if (!dst_parent.ok()) return dst_parent.error();

  if (Status s = CheckWritableParent(src_parent.value().parent_ino); !s.ok()) {
    return s;
  }
  if (Status s = CheckWritableParent(dst_parent.value().parent_ino); !s.ok()) {
    return s;
  }
  if (from == to) return Status::Ok();

  const auto moving = src_it->second;
  const auto dst_key = std::make_pair(dst_parent.value().parent_ino,
                                      dst_parent.value().name);
  InodeNum victim = kInvalidInode;
  bool victim_unlinked = false;
  auto dst_it = dirents_.find(dst_key);
  if (dst_it != dirents_.end()) {
    victim = dst_it->second.first;
    const InodeRec& target = inodes_.at(victim);
    if (moving.second == FileType::kDirectory) {
      if (target.type != FileType::kDirectory) return Errno::kENOTDIR;
      if (!ChildrenOf(victim).empty()) return Errno::kENOTEMPTY;
    } else if (target.type == FileType::kDirectory) {
      return Errno::kEISDIR;
    }
    dirents_.erase(dst_it);
    bool still_linked = false;
    for (const auto& [k, v] : dirents_) {
      if (v.first == victim) {
        still_linked = true;
        break;
      }
    }
    if (!still_linked) {
      inodes_.erase(victim);
      victim_unlinked = true;
    }
  }

  dirents_.erase(src_key);
  dirents_[dst_key] = moving;
  // One atomic node for the whole rename (see NodeType::kRename): a
  // tombstone+insert pair could crash between the two halves and lose
  // the moving file from both names.
  return AppendNode(
      SerializeRenameNode(src_key.first, src_key.second, dst_key.first,
                          dst_key.second, moving.first, moving.second,
                          victim, victim_unlinked),
      NodeType::kRename);
}

Status Jffs2Fs::Link(const std::string& existing, const std::string& link) {
  auto src = ResolvePath(existing);
  if (!src.ok()) return src.error();
  if (inodes_.at(src.value()).type == FileType::kDirectory) {
    return Errno::kEPERM;
  }
  auto parent = ResolveParent(link);
  if (!parent.ok()) return parent.error();
  if (Status s = CheckWritableParent(parent.value().parent_ino); !s.ok()) {
    return s;
  }
  const auto key =
      std::make_pair(parent.value().parent_ino, parent.value().name);
  if (dirents_.contains(key)) return Errno::kEEXIST;
  const FileType type = inodes_.at(src.value()).type;
  dirents_[key] = {src.value(), type};
  return PersistDirent(key.first, key.second, src.value(), type);
}

Status Jffs2Fs::Symlink(const std::string& target, const std::string& link) {
  if (target.empty() || target.size() > kPathMax) return Errno::kEINVAL;
  auto ino = CreateNode(link, FileType::kSymlink, 0777, target);
  return ino.ok() ? Status::Ok() : Status(ino.error());
}

Result<std::string> Jffs2Fs::ReadLink(const std::string& path) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  const InodeRec& rec = inodes_.at(res.value());
  if (rec.type != FileType::kSymlink) return Errno::kEINVAL;
  return std::string(rec.data.begin(), rec.data.end());
}

Status Jffs2Fs::Access(const std::string& path, std::uint32_t mode) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  if (mode == kFOk) return Status::Ok();
  const InodeRec& rec = inodes_.at(res.value());
  return PermissionGranted(ToAttr(res.value(), rec), options_.identity, mode)
             ? Status::Ok()
             : Status(Errno::kEACCES);
}

Status Jffs2Fs::SetXattr(const std::string& path, const std::string& name,
                         ByteView value) {
  if (name.empty() || name.size() > kNameMax) return Errno::kEINVAL;
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  InodeRec& rec = inodes_.at(res.value());
  rec.xattrs[name] = Bytes(value.begin(), value.end());
  rec.ctime_ns = NowNs();
  return PersistInode(res.value());
}

Result<Bytes> Jffs2Fs::GetXattr(const std::string& path,
                                const std::string& name) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  const InodeRec& rec = inodes_.at(res.value());
  auto it = rec.xattrs.find(name);
  if (it == rec.xattrs.end()) return Errno::kENODATA;
  return it->second;
}

Result<std::vector<std::string>> Jffs2Fs::ListXattr(const std::string& path) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  const InodeRec& rec = inodes_.at(res.value());
  std::vector<std::string> names;
  names.reserve(rec.xattrs.size());
  for (const auto& [name, value] : rec.xattrs) names.push_back(name);
  return names;
}

Status Jffs2Fs::RemoveXattr(const std::string& path,
                            const std::string& name) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  InodeRec& rec = inodes_.at(res.value());
  if (rec.xattrs.erase(name) == 0) return Errno::kENODATA;
  rec.ctime_ns = NowNs();
  return PersistInode(res.value());
}

}  // namespace mcfs::fs
