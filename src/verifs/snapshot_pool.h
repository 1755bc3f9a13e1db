// Handle-allocating snapshot pool shared by VeriFS1/VeriFS2, the
// deduplicating byte accounting over its structurally-shared entries, and
// the checkpoint/restore/invalidation machinery built on both
// (CowCheckpointer).
//
// Before the COW refactor this pool stored one serialized full-state
// image per caller-chosen key and ioctl_RESTORE *took* (consumed) the
// entry. Entries are now owned by fs::SnapshotId handles, restore is
// non-consuming, and a COW entry is just a root pointer — the bytes it
// "holds" are whatever chunks/blocks the live state has since diverged
// from, which is what CowCheckpointer::Stats measures.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fs/checkpointable.h"
#include "fs/kernel_notifier.h"
#include "fs/path.h"
#include "util/bytes.h"
#include "verifs/cow_state.h"

namespace mcfs::verifs {

// One pool entry. COW snapshots hold a root + counters; deep-copy mode
// (cow_snapshots = false, kept as the paper's original copy-the-world
// baseline and for the differential suite) holds a serialized image.
template <typename Inode>
struct CowSnapshot {
  typename CowTable<Inode>::Root root;
  std::uint64_t op_counter = 0;
  // Invalidation-log position at checkpoint time.
  std::uint64_t inval_pos = 0;
  Bytes deep_image;
  bool deep = false;
};

template <typename Snapshot>
class SnapshotPool {
 public:
  fs::SnapshotId Add(Snapshot snapshot) {
    fs::SnapshotId id = next_++;
    snapshots_.emplace(id, std::move(snapshot));
    return id;
  }

  const Snapshot* Find(fs::SnapshotId id) const {
    auto it = snapshots_.find(id);
    return it == snapshots_.end() ? nullptr : &it->second;
  }

  Status Discard(fs::SnapshotId id) {
    return snapshots_.erase(id) != 0 ? Status::Ok() : Errno::kENOENT;
  }

  std::uint64_t count() const { return snapshots_.size(); }

  const std::map<fs::SnapshotId, Snapshot>& entries() const {
    return snapshots_;
  }

 private:
  std::map<fs::SnapshotId, Snapshot> snapshots_;
  fs::SnapshotId next_ = 1;
};

// The checkpoint/restore machinery both VeriFS generations share: the
// snapshot pool, the kernel-cache invalidation log, and the two restore
// paths. Every mutation appends the (path, inode) it touched to the log,
// so a COW restore invalidates only the records written since its
// snapshot (O(dirty)); deep-copy snapshots and snapshots whose log prefix
// was trimmed take the full-state path, which invalidates the whole
// namespace before and after the rollback.
//
// The owning file system hands its state in per call (Host) rather than
// at construction, so the checkpointer holds no pointer into its owner
// and the file system stays copyable and movable. Inode needs the
// fields both generations share: `used`, `type` and `children`
// (name -> inode index, the root at index 0).
template <typename Inode>
class CowCheckpointer {
 public:
  using Table = CowTable<Inode>;
  using Snapshot = CowSnapshot<Inode>;

  struct Host {
    Table& table;
    std::uint64_t& op_counter;
    bool mounted;
    // Mutant (historical bug #2): restores leave the kernel caches alone.
    bool skip_cache_invalidation;
    // Full-state image of the table and op counter (deep-copy snapshots,
    // ImportState).
    std::function<Bytes()> serialize;
    std::function<void(ByteView)> deserialize;
    // Drops the open-file table: handles do not survive a rollback.
    std::function<void()> reset_open_files;
    // Mutant hook run right after a restore reinstates the snapshot
    // state, on both paths; empty for none.
    std::function<void()> after_restore;
  };

  // `cow_snapshots` = false keeps the original deep-copy serialization
  // per snapshot (the paper's copy-the-world baseline, and the reference
  // side of the COW differential tests).
  explicit CowCheckpointer(bool cow_snapshots) : cow_(cow_snapshots) {}

  void set_notifier(fs::KernelNotifier* notifier) { notifier_ = notifier; }

  Result<fs::SnapshotId> Checkpoint(const Host& host) {
    if (!host.mounted) return Errno::kEINVAL;
    CompactInvalLog();
    // Lock, capture, unlock (paper §5). Single-threaded here, so "lock"
    // is implicit. COW capture is O(#chunks) pointer copies.
    Snapshot snap;
    if (cow_) {
      snap.root = host.table.Snapshot();
      snap.op_counter = host.op_counter;
      snap.inval_pos = log_.End();
    } else {
      snap.deep = true;
      snap.deep_image = host.serialize();
    }
    return pool_.Add(std::move(snap));
  }

  Status Restore(const Host& host, fs::SnapshotId id) {
    if (!host.mounted) return Errno::kEINVAL;
    const Snapshot* snap = pool_.Find(id);
    if (snap == nullptr) return Errno::kENOENT;

    if (snap->deep || !log_.Covers(snap->inval_pos)) {
      // Full-state path: deep-copy snapshots, or COW snapshots whose log
      // prefix was trimmed/overflowed. Remember the namespace that is
      // about to disappear: its entries and inodes must be invalidated
      // in the kernel too.
      std::vector<std::string> pre_paths = CollectAllPaths(host.table);
      std::vector<fs::InodeNum> pre_inos = CollectUsedInos(host.table);
      if (snap->deep) {
        host.deserialize(snap->deep_image);
      } else {
        host.table.Restore(snap->root);
        host.op_counter = snap->op_counter;
      }
      host.reset_open_files();
      if (host.after_restore) host.after_restore();
      // This rollback is untracked, so positions before it can no longer
      // bound their dirty set; every older snapshot falls back here too.
      log_.Overflow();
      if (!host.skip_cache_invalidation) {
        // The fix for historical bug #2: notify the kernel so its dentry
        // and inode caches drop entries from the abandoned timeline.
        InvalidateKernelCaches(host.table, pre_paths, pre_inos);
      }
      return Status::Ok();
    }

    // O(dirty) path: the records written since the snapshot was taken
    // are exactly where the abandoned timeline and the restored one
    // differ.
    std::vector<InvalRecord> tail = log_.Since(snap->inval_pos);
    DedupInvalRecords(tail);
    host.table.Restore(snap->root);
    host.op_counter = snap->op_counter;
    host.reset_open_files();
    if (host.after_restore) host.after_restore();
    // Re-log the undone mutations: a later restore FORWARD to a snapshot
    // taken on the abandoned branch must still invalidate them. With no
    // live snapshot positioned after this one, no such forward restore
    // can happen, and skipping the re-append keeps the log flat across
    // a backtracking walk's op/restore/op/restore bouncing.
    if (AnySnapshotAfter(snap->inval_pos)) {
      log_.ReAppend(tail);
      CompactInvalLog();
    } else {
      // No one can restore forward past this position: rewind the log to
      // it so repeated bounces off one snapshot stay O(dirty).
      log_.TruncateTo(snap->inval_pos);
    }
    if (!host.skip_cache_invalidation) EmitInvalRecords(tail);
    return Status::Ok();
  }

  Status Discard(fs::SnapshotId id) {
    Status s = pool_.Discard(id);
    if (s.ok()) CompactInvalLog();
    return s;
  }

  // Deduplicating byte accounting over every snapshot root plus the live
  // root. Each distinct chunk/block node is counted once; a node is
  // "shared" if more than one snapshot holds it or the live state still
  // uses it (discarding a single snapshot cannot free it), "exclusive"
  // if exactly one snapshot holds it and the live state does not. A
  // chunk is charged its sizeof plus the per-inode heap state that
  // sizeof cannot see: directory entries, and `extra_bytes(inode)` (e.g.
  // VeriFS2's xattrs). Data blocks are charged separately at
  // kCowBlockSize each.
  template <typename ExtraFn>
  fs::SnapshotStats Stats(const Table& table, ExtraFn&& extra_bytes) const {
    auto inode_extra_bytes = [&extra_bytes](const Inode& inode) {
      std::uint64_t extra = extra_bytes(inode);
      for (const auto& [name, child] : inode.children) {
        extra += name.size() + 32;  // map-node overhead estimate
      }
      return extra;
    };
    using Chunk = typename Table::Chunk;
    struct NodeInfo {
      std::uint64_t bytes = 0;
      std::uint32_t snap_refs = 0;
      bool live = false;
      std::uint64_t last_visit = 0;
    };
    std::unordered_map<const void*, NodeInfo> nodes;
    std::uint64_t visit = 0;

    auto touch = [&](const void* p, std::uint64_t bytes, bool is_live) {
      NodeInfo& info = nodes[p];
      if (info.last_visit == visit) return;  // count once per root
      info.last_visit = visit;
      info.bytes = bytes;
      if (is_live) {
        info.live = true;
      } else {
        ++info.snap_refs;
      }
    };

    auto visit_root = [&](const typename Table::Root& root, bool is_live) {
      ++visit;
      for (const auto& chunk : root.chunks) {
        if (chunk == nullptr) continue;
        std::uint64_t chunk_bytes = sizeof(Chunk);
        for (const Inode& inode : chunk->slots) {
          chunk_bytes += inode_extra_bytes(inode);
        }
        touch(chunk.get(), chunk_bytes, is_live);
        for (const Inode& inode : chunk->slots) {
          for (const CowBlockPtr& block : inode.buf.blocks()) {
            if (block != nullptr) touch(block.get(), kCowBlockSize, is_live);
          }
        }
      }
    };

    fs::SnapshotStats stats;
    stats.count = pool_.count();
    for (const auto& [id, snap] : pool_.entries()) {
      if (snap.deep) {
        stats.total_bytes += snap.deep_image.size();
        stats.exclusive_bytes += snap.deep_image.size();
      } else {
        visit_root(snap.root, /*is_live=*/false);
      }
    }
    visit_root(table.Snapshot(), /*is_live=*/true);

    for (const auto& [p, info] : nodes) {
      if (info.snap_refs == 0) continue;  // live-only node: not pool state
      stats.total_bytes += info.bytes;
      if (info.snap_refs == 1 && !info.live) {
        stats.exclusive_bytes += info.bytes;
      } else {
        stats.shared_bytes += info.bytes;
      }
    }
    return stats;
  }

  // Raw state import (a process- or VM-level snapshotter's restore):
  // behaves like a full-state restore, kernel-cache invalidation
  // included.
  void ImportState(const Host& host, ByteView state) {
    std::vector<std::string> pre_paths = CollectAllPaths(host.table);
    std::vector<fs::InodeNum> pre_inos = CollectUsedInos(host.table);
    host.deserialize(state);
    host.reset_open_files();
    log_.Overflow();  // untracked rollback, same as a deep restore
    if (!host.skip_cache_invalidation) {
      InvalidateKernelCaches(host.table, pre_paths, pre_inos);
    }
  }

  // --- invalidation log ---
  // Records a namespace mutation: `path` for the dentry cache plus the
  // inode (1-based) for the attr cache.
  void LogEntry(const std::string& path, std::uint32_t ino_index) {
    log_.Append(path, static_cast<fs::InodeNum>(ino_index) + 1);
  }
  // Records an attribute/data-only mutation.
  void LogInode(std::uint32_t ino_index) {
    log_.Append({}, static_cast<fs::InodeNum>(ino_index) + 1);
  }
  // Records every path below directory `index`, named under `prefix`
  // (a subtree that vanishes or moves).
  void LogSubtree(const Table& table, std::uint32_t index,
                  const std::string& prefix) {
    std::vector<std::string> sub;
    CollectPathsRec(table, index, prefix, &sub);
    for (auto& path : sub) log_.Append(std::move(path), fs::kInvalidInode);
  }
  // Sends every existing snapshot down the full-invalidation path (a
  // reformat leaves the log nothing to bound).
  void OverflowLog() { log_.Overflow(); }

 private:
  static void CollectPathsRec(const Table& table, std::uint32_t index,
                              const std::string& prefix,
                              std::vector<std::string>* out) {
    for (const auto& [name, child] : table.Get(index).children) {
      const std::string path =
          prefix == "/" ? "/" + name : prefix + "/" + name;
      out->push_back(path);
      if (table.Get(child).type == fs::FileType::kDirectory) {
        CollectPathsRec(table, child, path, out);
      }
    }
  }

  static std::vector<std::string> CollectAllPaths(const Table& table) {
    std::vector<std::string> out;
    if (table.size() != 0) CollectPathsRec(table, 0, "/", &out);
    return out;
  }

  static std::vector<fs::InodeNum> CollectUsedInos(const Table& table) {
    std::vector<fs::InodeNum> inos;
    for (std::uint32_t i = 0; i < table.size(); ++i) {
      if (table.Get(i).used) inos.push_back(static_cast<fs::InodeNum>(i + 1));
    }
    return inos;
  }

  // Invalidates the given paths and inodes, each once, in sorted order.
  void Invalidate(std::vector<std::string> paths,
                  std::vector<fs::InodeNum> inos) {
    std::sort(paths.begin(), paths.end());
    paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
    for (const auto& path : paths) {
      notifier_->InvalEntry(fs::ParentPath(path), fs::Basename(path));
    }
    std::sort(inos.begin(), inos.end());
    inos.erase(std::unique(inos.begin(), inos.end()), inos.end());
    for (fs::InodeNum ino : inos) notifier_->InvalInode(ino);
  }

  // Emits InvalEntry/InvalInode for everything in the current namespace
  // plus the pre-restore paths/inodes handed in (entries from the
  // abandoned timeline must be dropped too, or slot reuse resurrects
  // them as stale cache hits). The full-state path; COW restores use
  // the log suffix instead (EmitInvalRecords).
  void InvalidateKernelCaches(const Table& table,
                              const std::vector<std::string>& extra_paths,
                              const std::vector<fs::InodeNum>& extra_inos) {
    if (notifier_ == nullptr) return;
    std::vector<std::string> paths = CollectAllPaths(table);
    paths.insert(paths.end(), extra_paths.begin(), extra_paths.end());
    std::vector<fs::InodeNum> inos = CollectUsedInos(table);
    inos.insert(inos.end(), extra_inos.begin(), extra_inos.end());
    Invalidate(std::move(paths), std::move(inos));
  }

  void EmitInvalRecords(const std::vector<InvalRecord>& records) {
    if (notifier_ == nullptr) return;
    std::vector<std::string> paths;
    std::vector<fs::InodeNum> inos;
    for (const InvalRecord& rec : records) {
      if (!rec.path.empty()) paths.push_back(rec.path);
      if (rec.ino != fs::kInvalidInode) inos.push_back(rec.ino);
    }
    Invalidate(std::move(paths), std::move(inos));
  }

  // True iff any live COW snapshot's log position lies strictly after
  // `pos`. Only such a snapshot — taken on a branch that a restore to
  // `pos` abandons — needs the undone suffix re-logged; when none
  // exists, the restore can skip the re-append entirely and the log
  // stays flat across backtrack-heavy walks.
  bool AnySnapshotAfter(std::uint64_t pos) const {
    for (const auto& [id, snap] : pool_.entries()) {
      if (!snap.deep && snap.inval_pos > pos) return true;
    }
    return false;
  }

  // Trims the log to the oldest live snapshot, or overflows it.
  void CompactInvalLog() {
    if (log_.record_count() <= kMaxInvalRecords) return;
    std::uint64_t min_pos = log_.End();
    for (const auto& [id, snap] : pool_.entries()) {
      if (!snap.deep) min_pos = std::min(min_pos, snap.inval_pos);
    }
    log_.TrimBelow(min_pos);
    // Still over the cap: some snapshot is ancient. Overflow and let its
    // eventual restore take the full-invalidation path.
    if (log_.record_count() > kMaxInvalRecords) log_.Overflow();
  }

  SnapshotPool<Snapshot> pool_;
  InvalLog log_;
  fs::KernelNotifier* notifier_ = nullptr;
  bool cow_;
};

}  // namespace mcfs::verifs
