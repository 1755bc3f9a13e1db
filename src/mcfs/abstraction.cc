#include "mcfs/abstraction.h"

#include <algorithm>
#include <cstring>

#include "fs/path.h"
#include "mcfs/ops.h"

namespace mcfs::core {

namespace {

bool OnExceptionList(const std::string& path,
                     const AbstractionOptions& options) {
  for (const auto& exception : options.exception_list) {
    if (path == exception || fs::IsPathPrefix(exception, path)) return true;
  }
  return false;
}

// A regular file's content enters its node digest as the sequence of
// MD5s of its kContentBlock-byte blocks, cut at file offsets
// [kContentBlock * i, kContentBlock * (i + 1)) however the reads happen
// to be chunked. A block whose bytes equal the previous block's (exact
// memcmp) reuses that block's digest instead of hashing it again, so a
// file of repeated fill costs one block hash plus memcmps. The reuse is
// exact: a block's digest is a function of its bytes alone, so reusing it
// for equal bytes yields the digest hashing would have produced.
constexpr std::size_t kContentBlock = 4096;

class BlockDigester {
 public:
  BlockDigester(Md5& out, ContentHashStats* stats)
      : out_(out), stats_(stats) {}

  // Feeds the next bytes of the file, in offset order.
  void Append(ByteView data) {
    if (!pending_.empty()) {
      const std::size_t take =
          std::min(data.size(), kContentBlock - pending_.size());
      pending_.insert(pending_.end(), data.begin(), data.begin() + take);
      data = data.subspan(take);
      if (pending_.size() < kContentBlock) return;
      EmitBlock(pending_);
      pending_.clear();
    }
    while (data.size() >= kContentBlock) {
      EmitBlock(data.first(kContentBlock));
      data = data.subspan(kContentBlock);
    }
    pending_.assign(data.begin(), data.end());
  }

  // Emits the trailing partial block, if any.
  void Finish() {
    if (!pending_.empty()) EmitBlock(pending_);
  }

 private:
  void EmitBlock(ByteView block) {
    const bool same_as_previous =
        have_previous_ && block.size() == previous_.size() &&
        std::memcmp(block.data(), previous_.data(), block.size()) == 0;
    if (same_as_previous) {
      if (stats_ != nullptr) ++stats_->blocks_reused;
    } else {
      previous_digest_ = Md5::Hash(block);
      previous_.assign(block.begin(), block.end());
      have_previous_ = true;
      if (stats_ != nullptr) ++stats_->blocks_hashed;
    }
    out_.Update(ByteView(previous_digest_.bytes.data(),
                         previous_digest_.bytes.size()));
  }

  Md5& out_;
  ContentHashStats* stats_;
  Bytes pending_;   // the current block's bytes while it is incomplete
  Bytes previous_;  // the last emitted block's bytes, and its digest
  Md5Digest previous_digest_;
  bool have_previous_ = false;
};

// Feeds one node's content + important attributes + xattrs into `md5ctx`
// — the byte scheme shared by the rolling Algorithm 1 digest and the
// per-node digests of the incremental cache. Deliberately excludes the
// pathname (the callers fold it in themselves) so a renamed subtree's
// node digests stay reusable.
Status AppendNodeBytes(Md5& md5ctx, vfs::Vfs& v, const std::string& path,
                       const fs::InodeAttr& a,
                       const AbstractionOptions& options,
                       ContentHashStats* stats) {
  // File content first (Algorithm 1 reads before stat'ing).
  if (a.type == fs::FileType::kRegular) {
    auto fd = v.Open(path, fs::kRdOnly, 0);
    if (!fd.ok()) return fd.error();
    BlockDigester blocks(md5ctx, stats);
    std::uint64_t offset = 0;
    for (;;) {
      auto chunk = v.Read(fd.value(), offset, 64 * 1024);
      if (!chunk.ok()) {
        (void)v.Close(fd.value());
        return chunk.error();
      }
      if (chunk.value().empty()) break;
      blocks.Append(chunk.value());
      offset += chunk.value().size();
    }
    blocks.Finish();
    if (Status s = v.Close(fd.value()); !s.ok()) return s.error();
  } else if (a.type == fs::FileType::kSymlink) {
    auto target = v.ReadLink(path);
    if (!target.ok()) return target.error();
    md5ctx.Update(target.value());
  }

  // important_attributes (Algorithm 1, line 12): type, mode, nlink,
  // uid, gid, and size — except directory sizes, which differ across
  // file systems for identical contents (§3.4).
  md5ctx.UpdateU64(static_cast<std::uint64_t>(a.type));
  md5ctx.UpdateU64(a.mode);
  md5ctx.UpdateU64(a.nlink);
  md5ctx.UpdateU64(a.uid);
  md5ctx.UpdateU64(a.gid);
  const bool hash_size = a.type != fs::FileType::kDirectory ||
                         !options.ignore_directory_sizes;
  md5ctx.UpdateU64(hash_size ? a.size : 0);
  if (options.include_timestamps) {
    // Deliberately wrong (ablation): timestamps are noise.
    md5ctx.UpdateU64(a.atime_ns);
    md5ctx.UpdateU64(a.mtime_ns);
    md5ctx.UpdateU64(a.ctime_ns);
  }

  if (options.include_xattrs) {
    auto names = v.ListXattr(path);
    if (names.ok()) {
      std::vector<std::string> sorted = names.value();
      std::sort(sorted.begin(), sorted.end());
      for (const auto& name : sorted) {
        auto value = v.GetXattr(path, name);
        if (!value.ok()) return value.error();
        md5ctx.Update(name);
        md5ctx.Update(value.value());
      }
    } else if (names.error() != Errno::kENOTSUP) {
      // ENOTSUP (VeriFS1-class systems) means "no xattrs", which is a
      // normal state: skip quietly. Anything else is a real I/O failure
      // during the walk — swallowing it would silently drop xattrs from
      // the digest, turning an infrastructure error into a false match.
      return names.error();
    }
  }
  return Status::Ok();
}

}  // namespace

Result<std::vector<std::string>> ListTreePaths(
    vfs::Vfs& v, const AbstractionOptions& options) {
  // Explicit-stack iterative walk: depth is bounded only by kPathMax, so
  // pathological mkdir chains must not be able to blow the call stack.
  std::vector<std::string> paths;
  std::vector<std::string> pending = {"/"};
  while (!pending.empty()) {
    const std::string dir = std::move(pending.back());
    pending.pop_back();
    auto entries = v.GetDents(dir);
    if (!entries.ok()) return entries.error();
    for (const auto& entry : entries.value()) {
      std::string path =
          dir == "/" ? "/" + entry.name : dir + "/" + entry.name;
      if (OnExceptionList(path, options)) continue;
      if (entry.type == fs::FileType::kDirectory) {
        pending.push_back(path);
      }
      paths.push_back(std::move(path));
    }
  }
  // Sort by pathname so every file system presents the same order
  // (Algorithm 1, line 5).
  std::sort(paths.begin(), paths.end());
  return paths;
}

Result<Md5Digest> ComputeAbstractState(vfs::Vfs& v,
                                       const AbstractionOptions& options) {
  auto paths = ListTreePaths(v, options);
  if (!paths.ok()) return paths.error();

  Md5 md5ctx;  // md5_init (Algorithm 1, line 2)
  for (const auto& path : paths.value()) {
    auto attr = v.Stat(path);
    if (!attr.ok()) return attr.error();
    if (Status s = AppendNodeBytes(md5ctx, v, path, attr.value(), options,
                                   /*stats=*/nullptr);
        !s.ok()) {
      return s.error();
    }
    md5ctx.Update(path);  // Algorithm 1, line 14
  }
  return md5ctx.Final();
}

Result<NodeDigest> HashNode(vfs::Vfs& v, const std::string& path,
                            const AbstractionOptions& options,
                            ContentHashStats* stats) {
  auto attr = v.Stat(path);
  if (!attr.ok()) return attr.error();
  Md5 md5ctx;
  if (Status s =
          AppendNodeBytes(md5ctx, v, path, attr.value(), options, stats);
      !s.ok()) {
    return s.error();
  }
  NodeDigest node;
  node.digest = md5ctx.Final();
  node.ino = attr.value().ino;
  return node;
}

// ---------------------------------------------------------------------------
// IncrementalAbstraction

void IncrementalAbstraction::Invalidate() {
  valid_ = false;
  nodes_.clear();
}

std::uint64_t IncrementalAbstraction::Fingerprint(
    const AbstractionOptions& options) {
  Md5 md5ctx;
  for (const auto& exception : options.exception_list) {
    md5ctx.UpdateU64(exception.size());
    md5ctx.Update(exception);
  }
  md5ctx.UpdateU64((options.ignore_directory_sizes ? 1u : 0u) |
                   (options.include_xattrs ? 2u : 0u) |
                   (options.include_timestamps ? 4u : 0u));
  return md5ctx.Final().lo64();
}

Md5Digest IncrementalAbstraction::Fold() const {
  // MD5 over (path length, path, node digest) in path order: canonical
  // across file systems because std::map keeps paths sorted and node
  // digests depend only on logical state. The length prefix keeps path
  // and digest bytes from running into each other.
  Md5 md5ctx;
  for (const auto& [path, node] : nodes_) {
    md5ctx.UpdateU64(path.size());
    md5ctx.Update(path);
    md5ctx.Update(ByteView(node.digest.bytes.data(), node.digest.bytes.size()));
  }
  return md5ctx.Final();
}

Result<Md5Digest> IncrementalAbstraction::FullRecompute(
    vfs::Vfs& v, const AbstractionOptions& options) {
  Invalidate();
  auto paths = ListTreePaths(v, options);
  if (!paths.ok()) return paths.error();
  for (const auto& path : paths.value()) {
    auto node = HashNode(v, path, options, &content_stats_);
    if (!node.ok()) {
      Invalidate();
      return node.error();
    }
    nodes_.emplace(path, node.value());
  }
  valid_ = true;
  options_fingerprint_ = Fingerprint(options);
  ++full_recomputes_;
  nodes_rehashed_ += paths.value().size();
  return Fold();
}

Result<Md5Digest> IncrementalAbstraction::Current(
    vfs::Vfs& v, const AbstractionOptions& options) {
  if (!valid_ || options_fingerprint_ != Fingerprint(options)) {
    return FullRecompute(v, options);
  }
  return Fold();
}

Status IncrementalAbstraction::RehashPath(vfs::Vfs& v,
                                          const std::string& path,
                                          const AbstractionOptions& options) {
  auto node = HashNode(v, path, options, &content_stats_);
  if (node.ok()) {
    nodes_[path] = node.value();
    ++nodes_rehashed_;
    return Status::Ok();
  }
  if (node.error() == Errno::kENOENT) {
    // The dirty path does not exist (failed creation, successful
    // removal, the far side of a rename): simply not part of the state.
    nodes_.erase(path);
    return Status::Ok();
  }
  return node.error();
}

Result<Md5Digest> IncrementalAbstraction::Refresh(
    vfs::Vfs& v, const AbstractionOptions& options,
    const TouchedPathSet& touched) {
  divergence_.reset();
  if (!valid_ || touched.full ||
      options_fingerprint_ != Fingerprint(options)) {
    return FullRecompute(v, options);
  }
  ++incremental_refreshes_;

  // 1. Collect the inodes behind every touched cache entry, so changes
  //    propagate to hard-link aliases (nlink and content are per-inode,
  //    but the cache is keyed per-path).
  std::vector<fs::InodeNum> touched_inos;
  auto note_ino = [&touched_inos](fs::InodeNum ino) {
    if (ino != fs::kInvalidInode) touched_inos.push_back(ino);
  };
  for (const auto& path : touched.dirty) {
    auto it = nodes_.find(path);
    if (it != nodes_.end()) note_ino(it->second.ino);
  }
  for (const auto& root : touched.evicted_subtrees) {
    for (auto it = nodes_.lower_bound(root);
         it != nodes_.end() &&
         (it->first == root || fs::IsPathPrefix(root, it->first));
         ++it) {
      note_ino(it->second.ino);
    }
  }

  // 2. Structural changes: evictions first, then the rename re-key (the
  //    overwritten destination must be gone before the source subtree
  //    claims its keys; node digests carry no path, so they transfer).
  for (const auto& root : touched.evicted_subtrees) {
    auto it = nodes_.lower_bound(root);
    while (it != nodes_.end() &&
           (it->first == root || fs::IsPathPrefix(root, it->first))) {
      it = nodes_.erase(it);
    }
  }
  if (touched.relabel) {
    std::map<std::string, NodeDigest> moved;
    auto it = nodes_.lower_bound(touched.relabel_from);
    while (it != nodes_.end() &&
           (it->first == touched.relabel_from ||
            fs::IsPathPrefix(touched.relabel_from, it->first))) {
      moved.emplace(touched.relabel_to +
                        it->first.substr(touched.relabel_from.size()),
                    it->second);
      it = nodes_.erase(it);
    }
    nodes_.merge(moved);
  }

  // 3. Re-stat + re-hash the dirty paths and every cached alias of a
  //    touched inode. O(touched), the whole point.
  std::vector<std::string> worklist = touched.dirty;
  if (!touched_inos.empty()) {
    std::sort(touched_inos.begin(), touched_inos.end());
    touched_inos.erase(
        std::unique(touched_inos.begin(), touched_inos.end()),
        touched_inos.end());
    for (const auto& [path, node] : nodes_) {
      if (std::binary_search(touched_inos.begin(), touched_inos.end(),
                             node.ino)) {
        worklist.push_back(path);
      }
    }
  }
  std::sort(worklist.begin(), worklist.end());
  worklist.erase(std::unique(worklist.begin(), worklist.end()),
                 worklist.end());
  for (const auto& path : worklist) {
    if (path == "/" || OnExceptionList(path, options)) continue;
    if (Status s = RehashPath(v, path, options); !s.ok()) {
      Invalidate();
      return s.error();
    }
  }

  // 4. Paranoid cross-check: recompute from scratch on a side instance
  //    and compare. Repairs the cache on divergence so one bug report
  //    does not snowball.
  ++steps_;
  if (options.verify_every_n != 0 && steps_ % options.verify_every_n == 0) {
    IncrementalAbstraction oracle;
    auto full = oracle.FullRecompute(v, options);
    if (!full.ok()) {
      Invalidate();
      return full.error();
    }
    const Md5Digest incremental = Fold();
    if (incremental != full.value()) {
      std::string first = "<path set differs>";
      for (auto a = nodes_.begin(), b = oracle.nodes_.begin();
           a != nodes_.end() || b != oracle.nodes_.end();) {
        if (b == oracle.nodes_.end() ||
            (a != nodes_.end() && a->first < b->first)) {
          first = a->first + " (cached but absent)";
          break;
        }
        if (a == nodes_.end() || b->first < a->first) {
          first = b->first + " (present but not cached)";
          break;
        }
        if (a->second.digest != b->second.digest) {
          first = a->first + " (stale node digest)";
          break;
        }
        ++a;
        ++b;
      }
      divergence_ = "incremental digest " + incremental.ToHex() +
                    " != full " + full.value().ToHex() +
                    ", first divergent path: " + first;
      nodes_ = std::move(oracle.nodes_);
      ++full_recomputes_;
      return full.value();
    }
  }
  return Fold();
}

void IncrementalAbstraction::SaveEpoch(std::uint64_t key) {
  Epoch epoch;
  epoch.valid = valid_;
  if (valid_) epoch.nodes = nodes_;
  epochs_[key] = std::move(epoch);
}

bool IncrementalAbstraction::RestoreEpoch(std::uint64_t key) {
  auto it = epochs_.find(key);
  if (it == epochs_.end() || !it->second.valid) {
    Invalidate();
    return false;
  }
  nodes_ = it->second.nodes;  // non-consuming, like RestoreConcrete
  valid_ = true;
  return true;
}

void IncrementalAbstraction::DiscardEpoch(std::uint64_t key) {
  epochs_.erase(key);
}

}  // namespace mcfs::core
