// PersistenceOracle + CrashConsistencyChecker: the recovered-state half
// of the crash-exploration mode (DESIGN.md §7.7).
//
// The oracle follows the BilbyFs-style persistence contract (PAPERS.md):
//   * everything durable at the last successful sync point must survive a
//     crash *exactly* (same type, attributes, content);
//   * effects newer than the sync point may be atomically absent — the
//     recovered path may match any state it passed through since the
//     durable one — but must never be half-applied (a content matching no
//     observed version is a torn write);
//   * rename is atomic: the file lives at the old name or the new name,
//     never both and never neither;
//   * no phantom paths: recovery must not invent files.
//
// It learns what "durable" and "passed through" mean by observing the
// executed operations: TouchedPaths() (the incremental-abstraction
// machinery) says which paths an op may have changed, and a successful
// fsync promotes every path's latest observed version to the durable
// floor (both jffs2f and ext2f/ext4f implement fsync as a whole-device
// barrier, so one sync point covers the tree).
//
// CrashConsistencyChecker glues the oracle to a CrashableDisk and a
// FsUnderTest: enumerate crash states, mount each distinct image once on
// a fresh recovery probe (exercising jffs2f log replay / ext4f journal
// recovery), and validate the recovered tree against the oracle.
#pragma once

#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fs/filesystem.h"
#include "mcfs/fs_under_test.h"
#include "mcfs/ops.h"
#include "storage/crashable_disk.h"
#include "util/md5.h"

namespace mcfs::core {

struct PersistenceOracleOptions {
  // Enforce that un-synced effects are all-or-nothing per path (the
  // recovered state must match *some* observed version). Off relaxes the
  // post-sync window to existence/type only — for file systems whose
  // persistence granularity is finer than whole operations.
  bool unsynced_atomicity = true;
  // Paths excluded from tracking and from the phantom check (the
  // free-space fill file, lost+found, ...). Exact matches only.
  std::vector<std::string> exempt_paths;
  // Re-walk the whole live tree on every observed op instead of the op's
  // touched region: the reference the touched-region observe is tested
  // against.
  bool observe_full_walk = false;
};

class PersistenceOracle {
 public:
  explicit PersistenceOracle(PersistenceOracleOptions options = {});

  // One observed state of a path. Timestamps are deliberately absent
  // (the abstraction excludes them too, paper §3.3) and directory sizes
  // are not compared (entry-count vs block-rounded, §3.4).
  struct PathVersion {
    bool exists = false;
    fs::FileType type = fs::FileType::kRegular;
    fs::Mode mode = 0;
    std::uint32_t uid = 0;
    std::uint32_t gid = 0;
    std::uint64_t size = 0;
    std::uint64_t payload = 0;  // content / symlink-target digest
  };

  // One captured tree: every non-exempt path, in path order.
  using Tree = std::map<std::string, PathVersion>;

  // Baseline: every path in the live tree is durable (the harness
  // commits the post-mkfs/equalization image before exploration starts).
  Status SeedFromTree(fs::FileSystem& live);

  // Record the effect of one executed operation by re-reading the paths
  // its TouchedPaths region covers, plus the hard-link aliases of every
  // re-read file; the whole tree when the region is unbounded or an
  // earlier op went unobserved. A successful fsync advances the durable
  // floor instead.
  Status ObserveOp(fs::FileSystem& live, const Operation& op,
                   const OpOutcome& outcome);

  // The live tree changed without an ObserveOp (the engine does not feed
  // an op that raised a violation): the next observe walks the whole tree.
  void Invalidate() { state_.full_walk_due = true; }

  // Walk every non-exempt path of a mounted file system.
  Status CaptureTree(fs::FileSystem& fs, Tree& out) const;

  // Check a captured recovered tree against the contract as it stands
  // now. Returns an empty string when legal, else a description of the
  // first violation.
  std::string ValidateTree(const Tree& recovered) const;

  // CaptureTree + ValidateTree; a walk failure (unreadable recovered
  // file) is itself a violation.
  std::string ValidateRecovered(fs::FileSystem& recovered) const;

  // The text ValidateRecovered reports for a walk that failed with `e`.
  static std::string WalkFailure(Errno e);

  // Everything the oracle tracks (histories, durable floors, rename
  // events, inodes) as text: equal strings mean equal oracles.
  std::string DebugString() const;

  // Snapshot bookkeeping so explorer rollbacks rewind the oracle too.
  void Save(std::uint64_t key);
  Status Restore(std::uint64_t key);
  void Discard(std::uint64_t key);

 private:
  struct History {
    std::vector<PathVersion> versions;
    // Index of the version that was current at the last sync point.
    std::size_t durable_floor = 0;
    bool has_durable = false;
  };
  struct RenameEvent {
    std::string from;
    std::string to;
    PathVersion from_before;   // `from`'s last version before the rename
    // The destination existed at rename time or since its sync point.
    bool to_existed = false;
    bool from_was_durable = false;
    // Version counts before the rename's own captures were appended —
    // "no versions past these" means no later op touched the path.
    std::size_t from_versions = 0;
    std::size_t to_versions = 0;
  };
  using InoMap = std::map<std::string, fs::InodeNum>;
  struct State {
    std::map<std::string, History> paths;
    std::vector<RenameEvent> renames;  // since the last sync point
    // Inode of every present non-directory: an in-place update changes
    // every name of its inode, so the observe re-reads those aliases.
    InoMap inos;
    // The live tree changed unobserved; the next observe walks it all.
    bool full_walk_due = false;
  };

  bool Exempt(const std::string& path) const;
  // `path` or one of its ancestors is exempt (the full walk never gets
  // there).
  bool Hidden(const std::string& path) const;
  // Captures one node into `out` (and a non-directory's inode into
  // `inos` when non-null), appending a directory's children to
  // `children` when non-null.
  Status CaptureNode(fs::FileSystem& fs, const std::string& path, Tree& out,
                     InoMap* inos, std::vector<std::string>* children) const;
  // Captures the paths on `stack` and everything below them.
  Status Walk(fs::FileSystem& fs, std::vector<std::string> stack, Tree& out,
              InoMap* inos) const;
  Status RecaptureAndDiff(fs::FileSystem& live);
  Status RecaptureTouched(fs::FileSystem& live, const TouchedPathSet& touched);
  // Diffs a re-read region into the histories: `now` holds what the
  // region's walk found, `roots` the subtrees it covered whole. A path
  // gains a version only when its new state differs from its last one.
  void DiffRegion(const Tree& now, const std::vector<std::string>& roots);
  void MarkAllDurable();

  PersistenceOracleOptions options_;
  State state_;
  std::map<std::uint64_t, State> snapshots_;
};

struct CrashCheckOptions {
  bool enabled = false;
  storage::CrashStateOptions states;
  PersistenceOracleOptions oracle;
};

class CrashConsistencyChecker {
 public:
  // `fut` must outlive the checker and have a crash-recording device.
  CrashConsistencyChecker(FsUnderTest* fut, CrashCheckOptions options);

  // Commits the current device image as the durable baseline and seeds
  // the oracle from the live tree. Call once, before exploration.
  Status SeedInitial();

  Status ObserveOp(const Operation& op, const OpOutcome& outcome);

  // The live tree changed without an ObserveOp.
  void Invalidate() { oracle_.Invalidate(); }

  // Enumerate crash states, recover each image (mount it on a fresh
  // probe and walk it, once per distinct image), validate every state
  // against the oracle as it stands now. error = infrastructure failure;
  // "" = every crash state recovered legally; otherwise the violation
  // description.
  Result<std::string> Check();

  void Save(std::uint64_t key) { oracle_.Save(key); }
  Status Restore(std::uint64_t key) { return oracle_.Restore(key); }
  void Discard(std::uint64_t key) { oracle_.Discard(key); }

  std::uint64_t states_checked() const { return states_checked_; }
  // Probe mounts: crash states whose image was not in the memo.
  std::uint64_t states_mounted() const { return states_mounted_; }

  // Distinct recovered images the memo holds; the least recently used
  // is evicted first. Several times the default
  // CrashStateOptions::max_states, so the states of one check do not
  // evict each other.
  static constexpr std::size_t kMemoEntries = 256;

 private:
  // What mounting and walking one image produced. A probe has no clock
  // and the probe options are fixed per checker, so recovery is a
  // function of the image bytes: one entry serves every state with that
  // image. The verdict is not part of it — it depends on the oracle.
  struct Recovered {
    Errno mount_error = Errno::kOk;
    Errno walk_error = Errno::kOk;
    PersistenceOracle::Tree tree;
  };
  struct ImageKey {
    Md5Digest digest;
    std::uint64_t size = 0;
    friend bool operator==(const ImageKey&, const ImageKey&) = default;
  };
  struct ImageKeyHash {
    std::size_t operator()(const ImageKey& key) const {
      return key.digest.lo64() ^ key.size;
    }
  };
  using MemoList = std::list<std::pair<ImageKey, Recovered>>;

  // The memo entry for `image`, mounting and walking it on a miss.
  Result<const Recovered*> Recover(const storage::DeviceImage& image);

  FsUnderTest* fut_;
  CrashCheckOptions options_;
  PersistenceOracle oracle_;
  MemoList lru_;  // most recently used first
  std::unordered_map<ImageKey, MemoList::iterator, ImageKeyHash> memo_;
  std::uint64_t states_checked_ = 0;
  std::uint64_t states_mounted_ = 0;
};

}  // namespace mcfs::core
