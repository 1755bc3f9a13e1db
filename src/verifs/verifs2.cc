#include "verifs/verifs2.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "fs/path.h"

namespace mcfs::verifs {
namespace {

// Canonical form of an op path, matching what the legacy full
// invalidation walk emits (see verifs1.cc).
std::string CanonicalPath(const std::string& path) {
  auto split = fs::SplitPath(path);
  if (!split.ok()) return path;
  return fs::JoinPath(split.value());
}

}  // namespace

Verifs2::Verifs2(Verifs2Options options)
    : options_(std::move(options)), cow_(options_.cow_snapshots) {}

// ---------------------------------------------------------------------------
// Lifecycle

Status Verifs2::Mkfs() {
  if (mounted_) return Errno::kEBUSY;
  inodes_.Assign(1);
  Inode& root = inodes_.Mut(kRootIndex);
  root = Inode{};
  root.used = true;
  root.type = fs::FileType::kDirectory;
  root.mode = 0755;
  root.uid = options_.identity.uid;
  root.gid = options_.identity.gid;
  root.atime_ns = root.mtime_ns = root.ctime_ns = NowNs();
  // Snapshots taken before the reformat fall back to full invalidation.
  cow_.OverflowLog();
  return Status::Ok();
}

Status Verifs2::Mount() {
  if (mounted_) return Errno::kEBUSY;
  if (inodes_.size() == 0) return Errno::kEINVAL;
  mounted_ = true;
  return Status::Ok();
}

Status Verifs2::Unmount() {
  if (!mounted_) return Errno::kEINVAL;
  mounted_ = false;
  open_files_.clear();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Helpers

Result<std::uint32_t> Verifs2::ResolveIndex(const std::string& path) const {
  if (!mounted_) return Errno::kEINVAL;
  auto split = fs::SplitPath(path);
  if (!split.ok()) return split.error();
  std::uint32_t index = kRootIndex;
  for (const auto& comp : split.value()) {
    const Inode& inode = inodes_.Get(index);
    if (inode.type != fs::FileType::kDirectory) return Errno::kENOTDIR;
    if (!fs::PermissionGranted(ToAttr(index, inode), options_.identity,
                               fs::kXOk)) {
      return Errno::kEACCES;
    }
    auto it = inode.children.find(comp);
    if (it == inode.children.end()) return Errno::kENOENT;
    index = it->second;
  }
  return index;
}

Result<Verifs2::ParentRef> Verifs2::ResolveParentRef(
    const std::string& path) const {
  auto split = fs::SplitPath(path);
  if (!split.ok()) return split.error();
  if (split.value().empty()) return Errno::kEINVAL;
  auto parent = ResolveIndex(fs::ParentPath(path));
  if (!parent.ok()) return parent.error();
  if (inodes_.Get(parent.value()).type != fs::FileType::kDirectory) {
    return Errno::kENOTDIR;
  }
  return ParentRef{parent.value(), split.value().back()};
}

std::uint32_t Verifs2::AllocInode() {
  for (std::uint32_t i = 0; i < inodes_.size(); ++i) {
    if (!inodes_.Get(i).used) return i;
  }
  return inodes_.PushBack();  // no fixed array: the table grows on demand
}

std::uint32_t Verifs2::CountLinks(std::uint32_t index) const {
  std::uint32_t n = 0;
  for (std::uint32_t i = 0; i < inodes_.size(); ++i) {
    const Inode& inode = inodes_.Get(i);
    if (!inode.used || inode.type != fs::FileType::kDirectory) continue;
    for (const auto& [name, child] : inode.children) {
      if (child == index) ++n;
    }
  }
  return n;
}

void Verifs2::ReleaseInodeIfUnlinked(std::uint32_t index) {
  if (index == kRootIndex) return;
  if (CountLinks(index) == 0) inodes_.Mut(index) = Inode{};
}

fs::InodeAttr Verifs2::ToAttr(std::uint32_t index, const Inode& inode) const {
  fs::InodeAttr attr;
  attr.ino = index + 1;
  attr.type = inode.type;
  attr.mode = inode.mode;
  if (inode.type == fs::FileType::kDirectory) {
    std::uint32_t n = 2;
    for (const auto& [name, child] : inode.children) {
      if (inodes_.Get(child).type == fs::FileType::kDirectory) ++n;
    }
    attr.nlink = n;
    attr.size = inode.children.size() * 32;
  } else {
    const std::uint32_t links = CountLinks(index);
    attr.nlink = (links == 0 ? 1 : links) +
                 (options_.bugs.getattr_nlink_off_by_one ? 1 : 0);
    attr.size = inode.size;
  }
  attr.uid = inode.uid;
  attr.gid = inode.gid;
  attr.atime_ns = inode.atime_ns;
  attr.mtime_ns = inode.mtime_ns;
  attr.ctime_ns = inode.ctime_ns;
  attr.blocks = (inode.size + 511) / 512;
  return attr;
}

std::uint64_t Verifs2::TotalDataBytes() const {
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < inodes_.size(); ++i) {
    const Inode& inode = inodes_.Get(i);
    if (inode.used) total += inode.size;
  }
  return total;
}

Status Verifs2::CheckQuota(std::uint64_t additional) const {
  // Unlike VeriFS1, VeriFS2 bounds the total data it stores.
  if (TotalDataBytes() + additional > options_.max_total_bytes) {
    return Errno::kENOSPC;
  }
  return Status::Ok();
}

Result<std::uint32_t> Verifs2::CreateChild(const ParentRef& ref,
                                           fs::FileType type, fs::Mode mode,
                                           const std::string& symlink_target) {
  const Inode& pread = inodes_.Get(ref.parent_index);
  if (!fs::PermissionGranted(ToAttr(ref.parent_index, pread),
                             options_.identity, fs::kWOk)) {
    return Errno::kEACCES;
  }
  if (pread.children.contains(ref.name)) return Errno::kEEXIST;
  const std::uint32_t slot = AllocInode();
  // COW chunks never move on growth, so — unlike the flat vector this
  // replaces — these references survive the PushBack inside AllocInode.
  Inode& parent = inodes_.Mut(ref.parent_index);
  Inode& child = inodes_.Mut(slot);
  child = Inode{};
  child.used = true;
  child.type = type;
  child.mode = static_cast<fs::Mode>(mode & fs::kModeMask);
  child.uid = options_.identity.uid;
  child.gid = options_.identity.gid;
  child.atime_ns = child.mtime_ns = child.ctime_ns = NowNs();
  if (type == fs::FileType::kSymlink) {
    child.buf.Assign(AsBytes(symlink_target));
    child.size = child.buf.size();
  }
  parent.children[ref.name] = slot;
  parent.mtime_ns = NowNs();
  return slot;
}

// ---------------------------------------------------------------------------
// Namespace operations

Result<fs::InodeAttr> Verifs2::GetAttr(const std::string& path) {
  auto index = ResolveIndex(path);
  if (!index.ok()) return index.error();
  return ToAttr(index.value(), inodes_.Get(index.value()));
}

Status Verifs2::Mkdir(const std::string& path, fs::Mode mode) {
  auto parent = ResolveParentRef(path);
  if (!parent.ok()) return parent.error();
  auto child =
      CreateChild(parent.value(), fs::FileType::kDirectory, mode, "");
  if (!child.ok()) return child.error();
  cow_.LogEntry(CanonicalPath(path), child.value());
  cow_.LogInode(parent.value().parent_index);
  return Status::Ok();
}

Status Verifs2::Rmdir(const std::string& path) {
  if (path == "/") return Errno::kEBUSY;
  auto parent = ResolveParentRef(path);
  if (!parent.ok()) return parent.error();
  const std::uint32_t parent_index = parent.value().parent_index;
  if (!fs::PermissionGranted(
          ToAttr(parent_index, inodes_.Get(parent_index)), options_.identity,
          fs::kWOk)) {
    return Errno::kEACCES;
  }
  const Inode& pread = inodes_.Get(parent_index);
  auto it = pread.children.find(parent.value().name);
  if (it == pread.children.end()) {
    // Dual mutant: the missing-child case mapped to ENOTDIR in BOTH
    // families, so the relative axis agrees on the wrong errno.
    return options_.bugs.dual_rmdir_missing_as_enotdir ? Errno::kENOTDIR
                                                       : Errno::kENOENT;
  }
  const std::uint32_t victim = it->second;
  if (inodes_.Get(victim).type != fs::FileType::kDirectory) {
    return Errno::kENOTDIR;
  }
  if (!inodes_.Get(victim).children.empty()) return Errno::kENOTEMPTY;
  Inode& pnode = inodes_.Mut(parent_index);
  pnode.children.erase(parent.value().name);
  pnode.mtime_ns = NowNs();
  inodes_.Mut(victim) = Inode{};
  cow_.LogEntry(CanonicalPath(path), victim);
  cow_.LogInode(parent_index);
  return Status::Ok();
}

Status Verifs2::Unlink(const std::string& path) {
  auto parent = ResolveParentRef(path);
  if (!parent.ok()) return parent.error();
  const std::uint32_t parent_index = parent.value().parent_index;
  if (!fs::PermissionGranted(
          ToAttr(parent_index, inodes_.Get(parent_index)), options_.identity,
          fs::kWOk)) {
    return Errno::kEACCES;
  }
  const Inode& pread = inodes_.Get(parent_index);
  auto it = pread.children.find(parent.value().name);
  if (it == pread.children.end()) {
    // Mutant: the "no such file" case mapped to the wrong errno.
    return options_.bugs.unlink_enoent_as_eperm ? Errno::kEPERM
                                                : Errno::kENOENT;
  }
  const std::uint32_t victim = it->second;
  if (inodes_.Get(victim).type == fs::FileType::kDirectory) {
    return Errno::kEISDIR;
  }
  Inode& pnode = inodes_.Mut(parent_index);
  pnode.children.erase(parent.value().name);
  pnode.mtime_ns = NowNs();
  ReleaseInodeIfUnlinked(victim);  // hard links keep the inode alive
  cow_.LogEntry(CanonicalPath(path), victim);
  cow_.LogInode(parent_index);
  return Status::Ok();
}

Result<std::vector<fs::DirEntry>> Verifs2::ReadDir(const std::string& path) {
  auto index = ResolveIndex(path);
  if (!index.ok()) return index.error();
  if (inodes_.Get(index.value()).type != fs::FileType::kDirectory) {
    return Errno::kENOTDIR;
  }
  if (!fs::PermissionGranted(
          ToAttr(index.value(), inodes_.Get(index.value())),
          options_.identity, fs::kROk)) {
    return Errno::kEACCES;
  }
  Inode& inode = inodes_.Mut(index.value());
  inode.atime_ns = NowNs();
  cow_.LogInode(index.value());  // atime moved: the cached attr is stale
  std::vector<fs::DirEntry> out;
  out.reserve(inode.children.size());
  for (const auto& [name, child] : inode.children) {
    out.push_back({name, static_cast<fs::InodeNum>(child + 1),
                   inodes_.Get(child).type});
  }
  // Mutant: reversed listing order. The checker sorts dirents before
  // comparing (§3.4 workaround 2), so this one survives by design.
  if (options_.bugs.readdir_reverse_order) {
    std::reverse(out.begin(), out.end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// File I/O — where historical bugs #3 and #4 live

Result<fs::FileHandle> Verifs2::Open(const std::string& path,
                                     std::uint32_t flags, fs::Mode mode) {
  if (!mounted_) return Errno::kEINVAL;
  auto index = ResolveIndex(path);
  std::uint32_t ino_index;
  if (!index.ok()) {
    if (index.error() != Errno::kENOENT || !(flags & fs::kCreate)) {
      return index.error();
    }
    auto parent = ResolveParentRef(path);
    if (!parent.ok()) return parent.error();
    auto child =
        CreateChild(parent.value(), fs::FileType::kRegular, mode, "");
    if (!child.ok()) return child.error();
    ino_index = child.value();
    cow_.LogEntry(CanonicalPath(path), ino_index);
    cow_.LogInode(parent.value().parent_index);
  } else {
    if (flags & fs::kCreate && flags & fs::kExcl) return Errno::kEEXIST;
    ino_index = index.value();
    const Inode& inode = inodes_.Get(ino_index);
    const bool want_write = (flags & fs::kAccessModeMask) != fs::kRdOnly;
    if (inode.type == fs::FileType::kDirectory && want_write) {
      return Errno::kEISDIR;
    }
    if (inode.type == fs::FileType::kSymlink) return Errno::kELOOP;
    const std::uint32_t want =
        want_write ? ((flags & fs::kAccessModeMask) == fs::kRdWr
                          ? (fs::kROk | fs::kWOk)
                          : fs::kWOk)
                   : fs::kROk;
    if (!fs::PermissionGranted(ToAttr(ino_index, inode), options_.identity,
                               want)) {
      return Errno::kEACCES;
    }
    if ((flags & fs::kTrunc) && want_write &&
        inode.type == fs::FileType::kRegular) {
      Inode& winode = inodes_.Mut(ino_index);
      winode.size = 0;  // capacity (buf) is retained
      winode.mtime_ns = NowNs();
      cow_.LogInode(ino_index);
    }
  }
  const fs::FileHandle fh = next_handle_++;
  open_files_[fh] = OpenFile{ino_index, flags};
  return fh;
}

Status Verifs2::Close(fs::FileHandle fh) {
  if (!mounted_) return Errno::kEINVAL;
  return open_files_.erase(fh) == 1 ? Status::Ok() : Status(Errno::kEBADF);
}

Result<Bytes> Verifs2::Read(fs::FileHandle fh, std::uint64_t offset,
                            std::uint64_t size) {
  if (!mounted_) return Errno::kEINVAL;
  auto it = open_files_.find(fh);
  if (it == open_files_.end()) return Errno::kEBADF;
  if ((it->second.flags & fs::kAccessModeMask) == fs::kWrOnly) {
    return Errno::kEBADF;
  }
  Inode& inode = inodes_.Mut(it->second.ino_index);
  if (inode.type == fs::FileType::kDirectory) return Errno::kEISDIR;
  inode.atime_ns = NowNs();
  cow_.LogInode(it->second.ino_index);
  if (offset >= inode.size) return Bytes{};
  const std::uint64_t n = std::min(size, inode.size - offset);
  return inode.buf.ReadBytes(offset, n);
}

Result<std::uint64_t> Verifs2::Write(fs::FileHandle fh, std::uint64_t offset,
                                     ByteView data) {
  if (!mounted_) return Errno::kEINVAL;
  auto it = open_files_.find(fh);
  if (it == open_files_.end()) return Errno::kEBADF;
  if ((it->second.flags & fs::kAccessModeMask) == fs::kRdOnly) {
    return Errno::kEBADF;
  }
  Inode& inode = inodes_.Mut(it->second.ino_index);
  if (it->second.flags & fs::kAppend) offset = inode.size;

  const std::uint64_t required = offset + data.size();
  if (required > inode.size) {
    if (Status s = CheckQuota(required - inode.size); !s.ok()) return s.error();
  }

  if (offset > inode.size) {
    // The write creates a hole. The fixed implementation zeroes the gap
    // (including any stale capacity bytes from a previous, longer
    // incarnation); historical bug #3 left them in place (paper §6).
    if (!options_.bugs.write_hole_no_zero) {
      const std::uint64_t zero_end =
          std::min<std::uint64_t>(offset, inode.buf.size());
      if (zero_end > inode.size) {
        inode.buf.Zero(inode.size, zero_end - inode.size);
      }
    }
    if (offset > inode.buf.size()) {
      inode.buf.resize(offset);  // fresh COW blocks read zero
    }
  }

  if (required > inode.buf.size()) {
    // Grow capacity by doubling, as VeriFS2 did.
    const std::uint64_t new_capacity =
        std::max<std::uint64_t>(std::bit_ceil(required), 64);
    inode.buf.resize(new_capacity);
    // On the growth path even the buggy VeriFS2 updated the size...
    inode.size = required;
  } else if (!options_.bugs.size_update_only_on_capacity_growth) {
    // ...but historical bug #4 forgot to update it on the in-capacity
    // path, leaving appended files short (paper §6). The off-by-one
    // mutant records one byte too few on that same path.
    std::uint64_t new_size = required;
    if (options_.bugs.write_grow_size_off_by_one && required > inode.size) {
      new_size = required - 1;
    }
    inode.size = std::max(inode.size, new_size);
  }

  inode.buf.Write(offset, data);  // no-op for zero-length spans
  inode.mtime_ns = NowNs();
  inode.ctime_ns = inode.mtime_ns;
  cow_.LogInode(it->second.ino_index);
  return data.size();
}

Status Verifs2::Truncate(const std::string& path, std::uint64_t size) {
  auto index = ResolveIndex(path);
  if (!index.ok()) return index.error();
  if (inodes_.Get(index.value()).type == fs::FileType::kDirectory) {
    return Errno::kEISDIR;
  }
  if (!fs::PermissionGranted(
          ToAttr(index.value(), inodes_.Get(index.value())),
          options_.identity, fs::kWOk)) {
    return Errno::kEACCES;
  }
  if (size > inodes_.Get(index.value()).size) {
    if (Status s = CheckQuota(size - inodes_.Get(index.value()).size);
        !s.ok()) {
      return s;
    }
  }
  Inode& inode = inodes_.Mut(index.value());
  if (size > inode.size) {
    // VeriFS2 learned this zeroing from VeriFS1's bug #1: the whole
    // reclaimed region must be cleared, including stale capacity bytes
    // below the old buffer end when the buffer also grows. The
    // truncate_expand_stale mutant re-introduces exactly that bug.
    const std::uint64_t zero_end =
        std::min<std::uint64_t>(size, inode.buf.size());
    if (zero_end > inode.size && !options_.bugs.truncate_expand_stale) {
      inode.buf.Zero(inode.size, zero_end - inode.size);
    }
    if (size > inode.buf.size()) {
      inode.buf.resize(size);  // fresh COW blocks read zero
    }
  }
  inode.size = size;
  inode.mtime_ns = NowNs();
  inode.ctime_ns = inode.mtime_ns;
  cow_.LogInode(index.value());
  return Status::Ok();
}

Status Verifs2::Fsync(fs::FileHandle fh) {
  if (!mounted_) return Errno::kEINVAL;
  return open_files_.contains(fh) ? Status::Ok() : Status(Errno::kEBADF);
}

// ---------------------------------------------------------------------------
// Attributes

Status Verifs2::Chmod(const std::string& path, fs::Mode mode) {
  auto index = ResolveIndex(path);
  if (!index.ok()) return index.error();
  if (!options_.identity.IsRoot() &&
      options_.identity.uid != inodes_.Get(index.value()).uid) {
    return Errno::kEPERM;
  }
  Inode& inode = inodes_.Mut(index.value());
  // Dual mutant: the old group bits survive the chmod in BOTH families.
  inode.mode = options_.bugs.dual_chmod_keeps_group_bits
                   ? static_cast<fs::Mode>((mode & 0707) |
                                           (inode.mode & 0070))
                   : static_cast<fs::Mode>(mode & fs::kModeMask);
  inode.ctime_ns = NowNs();
  cow_.LogInode(index.value());
  return Status::Ok();
}

Status Verifs2::Chown(const std::string& path, std::uint32_t uid,
                      std::uint32_t gid) {
  auto index = ResolveIndex(path);
  if (!index.ok()) return index.error();
  if (!options_.identity.IsRoot()) return Errno::kEPERM;
  Inode& inode = inodes_.Mut(index.value());
  inode.uid = uid;
  inode.gid = gid;
  inode.ctime_ns = NowNs();
  cow_.LogInode(index.value());
  return Status::Ok();
}

Result<fs::StatVfs> Verifs2::StatFs() {
  if (!mounted_) return Errno::kEINVAL;
  fs::StatVfs out;
  out.block_size = 4096;
  out.total_bytes = options_.max_total_bytes;
  const std::uint64_t used = TotalDataBytes();
  out.free_bytes = used >= out.total_bytes ? 0 : out.total_bytes - used;
  out.total_inodes = 0xffffffff;
  std::uint64_t used_inodes = 0;
  for (std::uint32_t i = 0; i < inodes_.size(); ++i) {
    if (inodes_.Get(i).used) ++used_inodes;
  }
  out.free_inodes = 0xffffffff - used_inodes;
  return out;
}

bool Verifs2::Supports(fs::FsFeature feature) const {
  switch (feature) {
    case fs::FsFeature::kCheckpointRestore:
    case fs::FsFeature::kRename:
    case fs::FsFeature::kHardLink:
    case fs::FsFeature::kSymlink:
    case fs::FsFeature::kAccess:
    case fs::FsFeature::kXattr:
      return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// The VeriFS2 feature additions

Status Verifs2::Rename(const std::string& from, const std::string& to) {
  if (from == "/" || to == "/") return Errno::kEBUSY;
  if (fs::IsPathPrefix(from, to) && from != to) return Errno::kEINVAL;

  auto src = ResolveParentRef(from);
  if (!src.ok()) return src.error();
  auto dst = ResolveParentRef(to);
  if (!dst.ok()) return dst.error();
  const std::uint32_t src_index = src.value().parent_index;
  const std::uint32_t dst_index = dst.value().parent_index;

  if (!fs::PermissionGranted(ToAttr(src_index, inodes_.Get(src_index)),
                             options_.identity, fs::kWOk) ||
      !fs::PermissionGranted(ToAttr(dst_index, inodes_.Get(dst_index)),
                             options_.identity, fs::kWOk)) {
    return Errno::kEACCES;
  }

  const Inode& src_read = inodes_.Get(src_index);
  auto src_it = src_read.children.find(src.value().name);
  if (src_it == src_read.children.end()) return Errno::kENOENT;
  const std::uint32_t moving = src_it->second;
  if (from == to) return Status::Ok();

  const Inode& dst_read = inodes_.Get(dst_index);
  auto dst_it = dst_read.children.find(dst.value().name);
  bool have_victim = false;
  std::uint32_t victim = 0;
  if (dst_it != dst_read.children.end()) {
    victim = dst_it->second;
    have_victim = true;
    if (inodes_.Get(moving).type == fs::FileType::kDirectory) {
      if (inodes_.Get(victim).type != fs::FileType::kDirectory) {
        return Errno::kENOTDIR;
      }
      if (!inodes_.Get(victim).children.empty()) return Errno::kENOTEMPTY;
    } else if (inodes_.Get(victim).type == fs::FileType::kDirectory) {
      return Errno::kEISDIR;
    }
  }

  const std::string canonical_from = CanonicalPath(from);
  const std::string canonical_to = CanonicalPath(to);
  // A directory move changes every descendant's path: the old paths go
  // stale and negative entries may be cached for the new ones, so both
  // prefixes enter the log. The subtree's shape does not change, so it
  // can be walked before the move.
  if (inodes_.Get(moving).type == fs::FileType::kDirectory) {
    cow_.LogSubtree(inodes_, moving, canonical_from);
    cow_.LogSubtree(inodes_, moving, canonical_to);
  }

  if (have_victim) {
    inodes_.Mut(dst_index).children.erase(dst.value().name);
    ReleaseInodeIfUnlinked(victim);
    cow_.LogInode(victim);  // nlink dropped (or the inode vanished)
  }

  Inode& src_parent = inodes_.Mut(src_index);
  Inode& dst_parent = inodes_.Mut(dst_index);
  src_parent.children.erase(src.value().name);
  dst_parent.children[dst.value().name] = moving;
  // Mutant: the move loses the inode's extended attributes.
  if (options_.bugs.rename_drops_xattrs) inodes_.Mut(moving).xattrs.clear();
  const std::uint64_t t = NowNs();
  src_parent.mtime_ns = t;
  dst_parent.mtime_ns = t;
  cow_.LogEntry(canonical_from, moving);
  cow_.LogEntry(canonical_to, moving);
  cow_.LogInode(src_index);
  cow_.LogInode(dst_index);
  return Status::Ok();
}

Status Verifs2::Link(const std::string& existing, const std::string& link) {
  auto src = ResolveIndex(existing);
  if (!src.ok()) return src.error();
  if (inodes_.Get(src.value()).type == fs::FileType::kDirectory) {
    return Errno::kEPERM;
  }
  auto dst = ResolveParentRef(link);
  if (!dst.ok()) return dst.error();
  const std::uint32_t parent_index = dst.value().parent_index;
  if (!fs::PermissionGranted(
          ToAttr(parent_index, inodes_.Get(parent_index)), options_.identity,
          fs::kWOk)) {
    return Errno::kEACCES;
  }
  // Mutant: silently overwrite an existing destination (the displaced
  // inode leaks) instead of failing EEXIST.
  if (inodes_.Get(parent_index).children.contains(dst.value().name) &&
      !options_.bugs.link_allows_overwrite) {
    return Errno::kEEXIST;
  }
  Inode& parent = inodes_.Mut(parent_index);
  parent.children[dst.value().name] = src.value();
  parent.mtime_ns = NowNs();
  inodes_.Mut(src.value()).ctime_ns = NowNs();
  cow_.LogEntry(CanonicalPath(link), src.value());
  cow_.LogInode(parent_index);
  return Status::Ok();
}

Status Verifs2::Symlink(const std::string& target, const std::string& link) {
  if (target.empty() || target.size() > fs::kPathMax) return Errno::kEINVAL;
  auto parent = ResolveParentRef(link);
  if (!parent.ok()) return parent.error();
  // Mutant: the stored target loses its last character.
  const std::string stored =
      options_.bugs.symlink_truncates_target
          ? target.substr(0, target.size() - 1)
          : target;
  auto child =
      CreateChild(parent.value(), fs::FileType::kSymlink, 0777, stored);
  if (!child.ok()) return child.error();
  cow_.LogEntry(CanonicalPath(link), child.value());
  cow_.LogInode(parent.value().parent_index);
  return Status::Ok();
}

Result<std::string> Verifs2::ReadLink(const std::string& path) {
  auto index = ResolveIndex(path);
  if (!index.ok()) return index.error();
  const Inode& inode = inodes_.Get(index.value());
  if (inode.type != fs::FileType::kSymlink) return Errno::kEINVAL;
  const Bytes target = inode.buf.ReadBytes(0, inode.size);
  return std::string(target.begin(), target.end());
}

Status Verifs2::Access(const std::string& path, std::uint32_t mode) {
  auto index = ResolveIndex(path);
  if (!index.ok()) return index.error();
  if (mode == fs::kFOk) return Status::Ok();
  return fs::PermissionGranted(
             ToAttr(index.value(), inodes_.Get(index.value())),
             options_.identity, mode)
             ? Status::Ok()
             : Status(Errno::kEACCES);
}

Status Verifs2::SetXattr(const std::string& path, const std::string& name,
                         ByteView value) {
  if (name.empty() || name.size() > fs::kNameMax) return Errno::kEINVAL;
  auto index = ResolveIndex(path);
  if (!index.ok()) return index.error();
  Inode& inode = inodes_.Mut(index.value());
  inode.xattrs[name] = Bytes(value.begin(), value.end());
  inode.ctime_ns = NowNs();
  cow_.LogInode(index.value());
  return Status::Ok();
}

Result<Bytes> Verifs2::GetXattr(const std::string& path,
                                const std::string& name) {
  auto index = ResolveIndex(path);
  if (!index.ok()) return index.error();
  const Inode& inode = inodes_.Get(index.value());
  auto it = inode.xattrs.find(name);
  if (it == inode.xattrs.end()) return Errno::kENODATA;
  return it->second;
}

Result<std::vector<std::string>> Verifs2::ListXattr(const std::string& path) {
  auto index = ResolveIndex(path);
  if (!index.ok()) return index.error();
  const Inode& inode = inodes_.Get(index.value());
  std::vector<std::string> names;
  names.reserve(inode.xattrs.size());
  for (const auto& [name, value] : inode.xattrs) names.push_back(name);
  return names;
}

Status Verifs2::RemoveXattr(const std::string& path,
                            const std::string& name) {
  auto index = ResolveIndex(path);
  if (!index.ok()) return index.error();
  if (!inodes_.Get(index.value()).xattrs.contains(name)) {
    // Mutant: removing an absent attribute claims success.
    return options_.bugs.removexattr_ok_when_missing
               ? Status::Ok()
               : Status(Errno::kENODATA);
  }
  Inode& inode = inodes_.Mut(index.value());
  inode.xattrs.erase(name);
  inode.ctime_ns = NowNs();
  cow_.LogInode(index.value());
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Checkpoint / restore

Bytes Verifs2::SerializeState() const {
  ByteWriter w;
  w.PutU32(inodes_.size());
  for (std::uint32_t i = 0; i < inodes_.size(); ++i) {
    const Inode& inode = inodes_.Get(i);
    w.PutU8(inode.used ? 1 : 0);
    if (!inode.used) continue;
    w.PutU8(static_cast<std::uint8_t>(inode.type));
    w.PutU16(inode.mode);
    w.PutU32(inode.uid);
    w.PutU32(inode.gid);
    w.PutU64(inode.atime_ns);
    w.PutU64(inode.mtime_ns);
    w.PutU64(inode.ctime_ns);
    w.PutU64(inode.size);
    // Full physical buffer, as VeriFS1 does (see verifs1.cc): capacity
    // contents are part of the daemon's state.
    w.PutBlob(inode.buf.ToBytes());
    w.PutU32(static_cast<std::uint32_t>(inode.children.size()));
    for (const auto& [name, child] : inode.children) {
      w.PutString(name);
      w.PutU32(child);
    }
    w.PutU32(static_cast<std::uint32_t>(inode.xattrs.size()));
    for (const auto& [name, value] : inode.xattrs) {
      w.PutString(name);
      w.PutBlob(value);
    }
  }
  w.PutU64(op_counter_);
  return w.Take();
}

void Verifs2::DeserializeState(ByteView state) {
  ByteReader r(state);
  const std::uint32_t count = r.GetU32();
  inodes_.Assign(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (r.GetU8() == 0) continue;
    Inode& inode = inodes_.Mut(i);
    inode.used = true;
    inode.type = static_cast<fs::FileType>(r.GetU8());
    inode.mode = r.GetU16();
    inode.uid = r.GetU32();
    inode.gid = r.GetU32();
    inode.atime_ns = r.GetU64();
    inode.mtime_ns = r.GetU64();
    inode.ctime_ns = r.GetU64();
    inode.size = r.GetU64();
    inode.buf.Assign(r.GetBlob());  // full physical buffer, stale tail too
    const std::uint32_t nchildren = r.GetU32();
    for (std::uint32_t c = 0; c < nchildren; ++c) {
      std::string name = r.GetString();
      inode.children[std::move(name)] = r.GetU32();
    }
    const std::uint32_t nxattrs = r.GetU32();
    for (std::uint32_t x = 0; x < nxattrs; ++x) {
      std::string name = r.GetString();
      inode.xattrs[std::move(name)] = r.GetBlob();
    }
  }
  op_counter_ = r.GetU64();
}

CowCheckpointer<Verifs2::Inode>::Host Verifs2::CowHost() {
  return {inodes_,
          op_counter_,
          mounted_,
          options_.bugs.skip_cache_invalidation_on_restore,
          [this] { return SerializeState(); },
          [this](ByteView state) { DeserializeState(state); },
          [this] { open_files_.clear(); },
          nullptr};
}

fs::SnapshotStats Verifs2::Stats() const {
  return cow_.Stats(inodes_, [](const Inode& inode) {
    std::uint64_t extra = 0;
    for (const auto& [name, value] : inode.xattrs) {
      extra += name.size() + value.size() + 32;
    }
    return extra;
  });
}

}  // namespace mcfs::verifs
