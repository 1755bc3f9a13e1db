// The abstraction function — paper Algorithm 1 and §3.3.
//
// Converts a file system's concrete state into a 128-bit MD5 digest used
// for visited-state matching and for cross-file-system state comparison.
// It walks the tree from the mount point, sorts paths for a canonical
// order, and hashes each node's pathname, content, and *important*
// attributes only: type, mode, nlink, uid, gid, and (for regular files
// and symlinks) size. Noisy attributes — atime/mtime/ctime, inode
// numbers, block counts, physical placement — are excluded: hashing them
// "would fail" (paper §3.3) because every harmless difference would look
// like a new state.
//
// The same function implements two of the §3.4 false-positive
// workarounds: directory sizes are ignored, and paths on the exception
// list (special folders like ext4's lost+found) are skipped entirely.
//
// A regular file's content enters the digest as the sequence of MD5s of
// its 4 KB blocks; a block equal to the previous one reuses its digest.
//
// Two implementations share the per-node byte scheme:
//   * ComputeAbstractState — the literal Algorithm 1: one rolling MD5
//     over every node, O(tree + data) per call. Kept as the reference
//     oracle and as the engine default.
//   * IncrementalAbstraction — a per-path digest cache plus a dirty-set
//     protocol (DESIGN.md §7.4): after each operation only the touched
//     nodes are re-read and re-hashed, and the abstract digest is a fold
//     of the cached per-node digests in path order. O(touched) per step.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/md5.h"
#include "util/result.h"
#include "vfs/vfs.h"

namespace mcfs::core {

struct TouchedPathSet;  // ops.h

struct AbstractionOptions {
  // Paths (and their subtrees) to ignore — the special-folder exception
  // list of §3.4. The free-space fill file (equalize.h) is added here too.
  std::vector<std::string> exception_list;
  // §3.4 workaround: ignore directory sizes (on = paper behaviour).
  bool ignore_directory_sizes = true;
  // Include xattr names/values (both VeriFS2-class systems support them).
  bool include_xattrs = true;
  // Ablation knob (bench T-statespace): hash timestamps too, showing the
  // state explosion the paper describes when noise enters the state.
  bool include_timestamps = false;
  // Use the IncrementalAbstraction cache in the engines instead of a full
  // recompute per step. On by default: the differential suite (ctest -L
  // abstraction) proves incremental == full per step, and the engines
  // refuse the cache for the deliberately-broken kMountOnce strategy
  // (§3.2), whose incoherent restores are the one assumption the cache
  // cannot survive — so kMountOnce corruption stays observable. Set to
  // false for a full recompute per step (the reference oracle; the
  // mutation campaign does this so restore bugs cannot hide behind the
  // cache's rolled-back digests).
  bool incremental = true;
  // Paranoid mode: every n-th incremental refresh is cross-checked
  // against a from-scratch recompute; a mismatch reports the first
  // divergent path and repairs the cache. 0 = off.
  std::uint32_t verify_every_n = 0;
};

// Computes the abstract state of the file system behind `v`, which must
// be mounted. Infrastructure failures (I/O errors during the walk)
// surface as errors; they are not part of normal exploration.
Result<Md5Digest> ComputeAbstractState(vfs::Vfs& v,
                                       const AbstractionOptions& options);

// Lists every path under "/" (sorted, exception list applied) — shared
// by the abstraction walk and VeriFS-restore invalidation tests.
Result<std::vector<std::string>> ListTreePaths(
    vfs::Vfs& v, const AbstractionOptions& options);

// One cached node: the MD5 of the node's content + important attributes
// + xattrs (the path is deliberately NOT folded into the node digest, so
// a renamed subtree's entries can be re-keyed without re-reading data),
// plus the inode number used to propagate nlink/content changes across
// hard-link aliases. The inode number is bookkeeping only — it is never
// hashed (it is exactly the kind of noise §3.3 excludes).
struct NodeDigest {
  Md5Digest digest;
  fs::InodeNum ino = fs::kInvalidInode;

  friend bool operator==(const NodeDigest&, const NodeDigest&) = default;
};

// Content-hashing accounting: regular-file content is digested per 4 KB
// block (DESIGN.md §7.4), and a block equal to the one before it reuses
// that block's digest instead of being hashed again.
struct ContentHashStats {
  std::uint64_t blocks_hashed = 0;
  std::uint64_t blocks_reused = 0;
};

// Stats + hashes one node under the shared per-node byte scheme; adds
// the content blocks it digested to `stats` when that is non-null.
Result<NodeDigest> HashNode(vfs::Vfs& v, const std::string& path,
                            const AbstractionOptions& options,
                            ContentHashStats* stats = nullptr);

// The incremental abstraction engine (DESIGN.md §7.4).
//
// Holds path → NodeDigest in canonical (sorted) order. The abstract
// digest is a fold: MD5 over (path length, path, node digest) for every
// cached node in path order — identical for identical logical states
// across file systems, independent of how the cache got there.
//
// Lifecycle:
//   * FullRecompute() rebuilds the cache with one walk (also the
//     recovery path whenever the cache is invalid).
//   * Refresh() applies one operation's TouchedPathSet: evicts removed
//     subtrees, re-keys renamed ones, re-stats/re-hashes dirty paths and
//     every cached hard-link alias of a touched inode, then folds.
//   * SaveEpoch()/RestoreEpoch()/DiscardEpoch() mirror the engines'
//     concrete snapshots: restoring a snapshot rolls the cache back to
//     the state it had when the snapshot was taken (a restore to an
//     unknown epoch just invalidates, which is always safe).
//
// Not thread-safe; the engines keep one instance per file system per
// worker (swarm workers share only the AbstractionOptions value, which
// is copied at config time).
class IncrementalAbstraction {
 public:
  bool valid() const { return valid_; }
  // Drops the cache; the next digest request does a full recompute.
  void Invalidate();

  // Rebuilds the cache from scratch and returns the fold.
  Result<Md5Digest> FullRecompute(vfs::Vfs& v,
                                  const AbstractionOptions& options);

  // Applies one operation's touched set and returns the fold. Falls back
  // to FullRecompute() when the cache is invalid, when the options
  // changed since the cache was built, or when `touched.full` is set.
  // Every verify_every_n-th call cross-checks against a from-scratch
  // recompute: a mismatch records divergence() (first divergent path)
  // and returns the correct (recomputed) digest.
  Result<Md5Digest> Refresh(vfs::Vfs& v, const AbstractionOptions& options,
                            const TouchedPathSet& touched);

  // Digest of the current cache with no file-system access; falls back
  // to FullRecompute() when the cache is invalid. Used right after an
  // epoch restore, when the tree is known byte-for-byte.
  Result<Md5Digest> Current(vfs::Vfs& v, const AbstractionOptions& options);

  // Epoch tags, keyed by the engines' snapshot ids.
  void SaveEpoch(std::uint64_t key);
  // Returns false (and invalidates) when the epoch is unknown or was
  // saved while the cache was invalid.
  bool RestoreEpoch(std::uint64_t key);
  void DiscardEpoch(std::uint64_t key);

  // Paranoid-mode report from the most recent Refresh(): set iff the
  // cross-check found the incremental and full digests differing.
  const std::optional<std::string>& divergence() const { return divergence_; }

  // Instrumentation.
  std::uint64_t full_recomputes() const { return full_recomputes_; }
  std::uint64_t incremental_refreshes() const {
    return incremental_refreshes_;
  }
  std::uint64_t nodes_rehashed() const { return nodes_rehashed_; }
  std::uint64_t blocks_hashed() const { return content_stats_.blocks_hashed; }
  std::uint64_t blocks_reused() const { return content_stats_.blocks_reused; }

  // The cache itself (tests; canonical order is the map's order).
  const std::map<std::string, NodeDigest>& nodes() const { return nodes_; }

 private:
  Md5Digest Fold() const;
  // Re-stat + re-hash one path: updates or erases its cache entry.
  Status RehashPath(vfs::Vfs& v, const std::string& path,
                    const AbstractionOptions& options);
  static std::uint64_t Fingerprint(const AbstractionOptions& options);

  bool valid_ = false;
  std::map<std::string, NodeDigest> nodes_;
  std::uint64_t options_fingerprint_ = 0;

  struct Epoch {
    bool valid = false;
    std::map<std::string, NodeDigest> nodes;
  };
  std::map<std::uint64_t, Epoch> epochs_;

  std::uint64_t steps_ = 0;
  std::uint64_t full_recomputes_ = 0;
  std::uint64_t incremental_refreshes_ = 0;
  std::uint64_t nodes_rehashed_ = 0;
  ContentHashStats content_stats_;
  std::optional<std::string> divergence_;
};

}  // namespace mcfs::core
