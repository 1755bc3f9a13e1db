#include "mcfs/persistence_oracle.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/md5.h"

namespace mcfs::core {
namespace {

using PathVersion = PersistenceOracle::PathVersion;

bool SameVersion(const PathVersion& a, const PathVersion& b) {
  if (a.exists != b.exists) return false;
  if (!a.exists) return true;
  if (a.type != b.type || a.mode != b.mode || a.uid != b.uid ||
      a.gid != b.gid) {
    return false;
  }
  // Directory sizes are representation noise (entry-count vs
  // block-rounded, paper §3.4) and directory content is covered by the
  // children's own paths plus the phantom check.
  if (a.type == fs::FileType::kDirectory) return true;
  return a.size == b.size && a.payload == b.payload;
}

std::string JoinPath(const std::string& parent, const std::string& name) {
  if (parent == "/") return "/" + name;
  return parent + "/" + name;
}

// `path` is `root` or lies below it: fs::IsPathPrefix without splitting
// both paths into components, since the observe asks this per touched
// path.
bool Covers(const std::string& root, const std::string& path) {
  if (root == "/") return true;
  return path.size() >= root.size() &&
         path.compare(0, root.size(), root) == 0 &&
         (path.size() == root.size() || path[root.size()] == '/');
}

// The keys of `m` strictly below `root`, as one iterator range. The
// root itself is not in it: siblings such as "/a.b" sort between "/a"
// and "/a/".
template <typename Map>
std::pair<typename Map::iterator, typename Map::iterator> Below(
    Map& m, const std::string& root) {
  const std::string prefix = root == "/" ? root : root + "/";
  std::string past = prefix;
  past.back() = '/' + 1;
  auto first = m.lower_bound(prefix);
  if (first != m.end() && first->first == root) ++first;
  return {first, m.lower_bound(past)};
}

// The path is not there (a lookup through a non-directory fails with
// ENOTDIR rather than ENOENT).
bool Absent(Errno e) { return e == Errno::kENOENT || e == Errno::kENOTDIR; }

bool IsDir(const PathVersion& v) {
  return v.exists && v.type == fs::FileType::kDirectory;
}

}  // namespace

PersistenceOracle::PersistenceOracle(PersistenceOracleOptions options)
    : options_(std::move(options)) {}

bool PersistenceOracle::Exempt(const std::string& path) const {
  return std::find(options_.exempt_paths.begin(), options_.exempt_paths.end(),
                   path) != options_.exempt_paths.end();
}

bool PersistenceOracle::Hidden(const std::string& path) const {
  return std::any_of(options_.exempt_paths.begin(),
                     options_.exempt_paths.end(),
                     [&path](const std::string& e) { return Covers(e, path); });
}

Status PersistenceOracle::CaptureNode(
    fs::FileSystem& fs, const std::string& path, Tree& out, InoMap* inos,
    std::vector<std::string>* children) const {
  auto attr = fs.GetAttr(path);
  if (!attr.ok()) return attr.error();
  PathVersion v;
  v.exists = true;
  v.type = attr.value().type;
  v.mode = attr.value().mode;
  v.uid = attr.value().uid;
  v.gid = attr.value().gid;
  v.size = attr.value().size;

  if (v.type == fs::FileType::kRegular) {
    auto fh = fs.Open(path, fs::kRdOnly, 0);
    if (!fh.ok()) return fh.error();
    auto data = fs.Read(fh.value(), 0, attr.value().size);
    (void)fs.Close(fh.value());
    if (!data.ok()) return data.error();
    // A recovered file whose readable bytes disagree with its stat
    // size is torn; fold both into the version so it matches nothing.
    v.size = data.value().size();
    v.payload =
        Md5::Hash(ByteView(data.value().data(), data.value().size())).lo64();
  } else if (v.type == fs::FileType::kSymlink) {
    auto target = fs.ReadLink(path);
    if (!target.ok()) return target.error();
    v.payload = Md5::Hash(std::string_view(target.value())).lo64();
    v.size = target.value().size();
  } else {
    v.size = 0;  // directory sizes are not compared
    if (children != nullptr) {
      auto entries = fs.ReadDir(path);
      if (!entries.ok()) return entries.error();
      for (const fs::DirEntry& e : entries.value()) {
        children->push_back(JoinPath(path, e.name));
      }
    }
  }
  if (inos != nullptr && v.type != fs::FileType::kDirectory) {
    (*inos)[path] = attr.value().ino;
  }
  out[path] = v;
  return Status::Ok();
}

Status PersistenceOracle::Walk(fs::FileSystem& fs,
                               std::vector<std::string> stack, Tree& out,
                               InoMap* inos) const {
  while (!stack.empty()) {
    const std::string path = std::move(stack.back());
    stack.pop_back();
    if (Exempt(path)) continue;  // exempt subtrees are invisible
    if (Status s = CaptureNode(fs, path, out, inos, &stack); !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

Status PersistenceOracle::CaptureTree(fs::FileSystem& fs, Tree& out) const {
  return Walk(fs, {"/"}, out, nullptr);
}

Status PersistenceOracle::SeedFromTree(fs::FileSystem& live) {
  state_ = State{};
  Tree now;
  if (Status s = Walk(live, {"/"}, now, &state_.inos); !s.ok()) return s;
  for (auto& [path, v] : now) {
    History hist;
    hist.versions.push_back(v);
    hist.durable_floor = 0;
    hist.has_durable = true;
    state_.paths[path] = std::move(hist);
  }
  return Status::Ok();
}

void PersistenceOracle::DiffRegion(const Tree& now,
                                   const std::vector<std::string>& roots) {
  // A recorded path under a covered root that the walk did not find is
  // gone. Paths the walk found are diffed below, once each: a rename
  // over an existing target goes straight from the target's old version
  // to the moved one, with no absent version between.
  auto gone = [&now](const std::string& path, History& hist) {
    if (!hist.versions.empty() && hist.versions.back().exists &&
        !now.contains(path)) {
      hist.versions.push_back(PathVersion{});  // exists = false
    }
  };
  for (const std::string& root : roots) {
    if (auto it = state_.paths.find(root); it != state_.paths.end()) {
      gone(root, it->second);
    }
    auto [first, last] = Below(state_.paths, root);
    for (auto it = first; it != last; ++it) gone(it->first, it->second);
  }
  for (const auto& [path, v] : now) {
    History& hist = state_.paths[path];
    if (hist.versions.empty() || !SameVersion(hist.versions.back(), v)) {
      hist.versions.push_back(v);
    }
  }
}

Status PersistenceOracle::RecaptureAndDiff(fs::FileSystem& live) {
  Tree now;
  InoMap inos;
  if (Status s = Walk(live, {"/"}, now, &inos); !s.ok()) {
    state_.full_walk_due = true;
    return s;
  }
  DiffRegion(now, {"/"});
  state_.inos = std::move(inos);
  state_.full_walk_due = false;
  return Status::Ok();
}

Status PersistenceOracle::RecaptureTouched(fs::FileSystem& live,
                                           const TouchedPathSet& touched) {
  Tree now;
  InoMap inos;
  // Subtrees re-walked whole: everything the op may have removed or
  // moved, plus dirty nodes that vanished or changed between directory
  // and non-directory.
  std::vector<std::string> roots;
  auto covered = [&roots](const std::string& path) {
    return std::any_of(roots.begin(), roots.end(), [&path](const auto& r) {
      return Covers(r, path);
    });
  };
  auto walk_subtree = [&](const std::string& root) -> Status {
    if (Hidden(root) || covered(root)) return Status::Ok();
    roots.push_back(root);
    std::vector<std::string> children;
    Status s = CaptureNode(live, root, now, &inos, &children);
    if (!s.ok()) return Absent(s.error()) ? Status::Ok() : s;
    return Walk(live, std::move(children), now, &inos);
  };
  // A dirty node is re-read in place; its children only matter when it
  // just became a directory.
  auto touch_node = [&](const std::string& path) -> Status {
    if (Hidden(path) || covered(path) || now.contains(path)) {
      return Status::Ok();
    }
    auto hit = state_.paths.find(path);
    const bool was_dir = hit != state_.paths.end() &&
                         !hit->second.versions.empty() &&
                         IsDir(hit->second.versions.back());
    std::vector<std::string> children;
    Status s =
        CaptureNode(live, path, now, &inos, was_dir ? nullptr : &children);
    if (!s.ok()) {
      if (!Absent(s.error())) return s;
      roots.push_back(path);  // removed: its recorded subtree is gone
      return Status::Ok();
    }
    if (was_dir == IsDir(now.at(path))) return Status::Ok();
    roots.push_back(path);
    return Walk(live, std::move(children), now, &inos);
  };

  Status s = Status::Ok();
  for (const std::string& root : touched.evicted_subtrees) {
    if (s.ok()) s = walk_subtree(root);
  }
  if (touched.relabel) {
    if (s.ok()) s = walk_subtree(touched.relabel_from);
    if (s.ok()) s = walk_subtree(touched.relabel_to);
  }
  for (const std::string& path : touched.dirty) {
    if (s.ok()) s = touch_node(path);
  }
  // Hard-link aliases of every re-read non-directory: content, mode and
  // owner belong to the inode, not the name.
  if (s.ok() && !inos.empty()) {
    std::vector<fs::InodeNum> reread;
    for (const auto& [path, ino] : inos) reread.push_back(ino);
    std::sort(reread.begin(), reread.end());
    std::vector<std::string> aliases;
    for (const auto& [path, ino] : state_.inos) {
      if (std::binary_search(reread.begin(), reread.end(), ino)) {
        aliases.push_back(path);
      }
    }
    for (const std::string& path : aliases) {
      if (s.ok()) s = touch_node(path);
    }
  }
  if (!s.ok()) {
    state_.full_walk_due = true;
    return s;
  }

  DiffRegion(now, roots);
  for (const std::string& root : roots) {
    state_.inos.erase(root);
    auto [first, last] = Below(state_.inos, root);
    state_.inos.erase(first, last);
  }
  for (const auto& [path, v] : now) state_.inos.erase(path);
  state_.inos.merge(inos);
  return Status::Ok();
}

void PersistenceOracle::MarkAllDurable() {
  for (auto& [path, hist] : state_.paths) {
    if (hist.versions.empty()) continue;
    hist.durable_floor = hist.versions.size() - 1;
    hist.has_durable = true;
  }
  state_.renames.clear();
}

Status PersistenceOracle::ObserveOp(fs::FileSystem& live, const Operation& op,
                                    const OpOutcome& outcome) {
  if (op.kind == OpKind::kCheckpoint || op.kind == OpKind::kRestore) {
    return Status::Ok();
  }
  if (op.kind == OpKind::kFsync) {
    // Both kernel families implement fsync as a whole-device barrier
    // (ext2f/ext4f flush the global cache, jffs2f drains the flash), so
    // one successful fsync promotes the entire tree.
    if (outcome.error == Errno::kOk) MarkAllDurable();
    return Status::Ok();
  }
  const TouchedPathSet touched = TouchedPaths(op, outcome);
  if (touched.dirty.empty() && touched.evicted_subtrees.empty() &&
      !touched.relabel && !touched.full) {
    return Status::Ok();  // read-only op: nothing can have changed
  }
  if (op.kind == OpKind::kRename && outcome.error == Errno::kOk &&
      !Exempt(op.path) && !Exempt(op.path2)) {
    RenameEvent ev;
    ev.from = op.path;
    ev.to = op.path2;
    auto fit = state_.paths.find(op.path);
    if (fit != state_.paths.end() && !fit->second.versions.empty()) {
      ev.from_before = fit->second.versions.back();
      ev.from_was_durable =
          fit->second.has_durable &&
          fit->second.versions[fit->second.durable_floor].exists;
      ev.from_versions = fit->second.versions.size();
    }
    // A target that existed at rename time, or at any point since its
    // sync point, may be what a crash state recovers under that name.
    // E.g. after `fsync; rmdir /f0; rename /d0 /f0`, the durable image
    // holds both /d0 and /f0: a legal crash state, not a half-applied
    // rename.
    auto tit = state_.paths.find(op.path2);
    if (tit != state_.paths.end()) {
      const History& to = tit->second;
      const std::size_t lo = to.has_durable ? to.durable_floor : 0;
      for (std::size_t i = lo; i < to.versions.size(); ++i) {
        if (to.versions[i].exists) ev.to_existed = true;
      }
    }
    ev.to_versions =
        tit == state_.paths.end() ? 0 : tit->second.versions.size();
    if (ev.from_before.exists) state_.renames.push_back(std::move(ev));
  }
  if (touched.full || state_.full_walk_due || options_.observe_full_walk) {
    return RecaptureAndDiff(live);
  }
  return RecaptureTouched(live, touched);
}

std::string PersistenceOracle::WalkFailure(Errno e) {
  return "recovered tree walk failed: " + std::string(ErrnoName(e));
}

std::string PersistenceOracle::ValidateRecovered(
    fs::FileSystem& recovered) const {
  Tree rec;
  if (Status s = CaptureTree(recovered, rec); !s.ok()) {
    return WalkFailure(s.error());
  }
  return ValidateTree(rec);
}

std::string PersistenceOracle::ValidateTree(const Tree& rec) const {
  for (const auto& [path, hist] : state_.paths) {
    if (hist.versions.empty()) continue;
    const std::size_t lo = hist.has_durable ? hist.durable_floor : 0;
    auto it = rec.find(path);
    if (it == rec.end()) {
      // Absent: legal when the path has no durable incarnation (its
      // whole life is un-synced and may vanish atomically) or some
      // version at/after the sync point was already absent.
      bool legal = !hist.has_durable;
      for (std::size_t i = lo; !legal && i < hist.versions.size(); ++i) {
        if (!hist.versions[i].exists) legal = true;
      }
      if (!legal) {
        return "durable path " + path + " missing after recovery";
      }
      continue;
    }
    // Present: must match one of the states the path passed through
    // since the sync point — anything else is a half-applied update.
    const PathVersion& got = it->second;
    bool legal = false;
    for (std::size_t i = lo; !legal && i < hist.versions.size(); ++i) {
      const PathVersion& v = hist.versions[i];
      if (!v.exists) continue;
      if (options_.unsynced_atomicity || i == lo) {
        legal = SameVersion(v, got);
      } else {
        legal = v.type == got.type;
      }
    }
    if (!legal) {
      return "path " + path +
             " recovered in a state matching no observed version "
             "(torn update)";
    }
  }

  for (const auto& [path, got] : rec) {
    if (path == "/") continue;
    auto it = state_.paths.find(path);
    if (it == state_.paths.end() || it->second.versions.empty()) {
      return "phantom path " + path + " appeared after recovery";
    }
  }

  // Rename atomicity: for a rename into a fresh name with no later ops
  // on either side, the file must be at exactly one of the two names.
  for (const RenameEvent& ev : state_.renames) {
    if (ev.to_existed) continue;
    auto fit = state_.paths.find(ev.from);
    auto tit = state_.paths.find(ev.to);
    const bool from_quiet = fit == state_.paths.end() ||
                            fit->second.versions.size() <= ev.from_versions + 1;
    const bool to_quiet = tit == state_.paths.end() ||
                          tit->second.versions.size() <= ev.to_versions + 1;
    if (!from_quiet || !to_quiet) continue;
    auto rf = rec.find(ev.from);
    auto rt = rec.find(ev.to);
    const bool at_from =
        rf != rec.end() && SameVersion(rf->second, ev.from_before);
    const bool at_to =
        rt != rec.end() && SameVersion(rt->second, ev.from_before);
    if (at_from && at_to) {
      return "rename " + ev.from + " -> " + ev.to +
             " recovered half-applied: both names present";
    }
    if (ev.from_was_durable && rf == rec.end() && rt == rec.end()) {
      return "rename " + ev.from + " -> " + ev.to +
             " lost a durable file: neither name present";
    }
  }
  return {};
}

void PersistenceOracle::Save(std::uint64_t key) { snapshots_[key] = state_; }

Status PersistenceOracle::Restore(std::uint64_t key) {
  auto it = snapshots_.find(key);
  if (it == snapshots_.end()) return Errno::kENOENT;
  state_ = it->second;  // non-consuming, like mc::System restores
  return Status::Ok();
}

void PersistenceOracle::Discard(std::uint64_t key) { snapshots_.erase(key); }

std::string PersistenceOracle::DebugString() const {
  std::ostringstream out;
  auto version = [&out](const PathVersion& v) {
    if (!v.exists) {
      out << " -";
      return;
    }
    out << " " << static_cast<int>(v.type) << ":" << std::oct << v.mode
        << std::dec << ":" << v.uid << ":" << v.gid << ":" << v.size << ":"
        << std::hex << v.payload << std::dec;
  };
  for (const auto& [path, hist] : state_.paths) {
    out << path << " floor=" << hist.durable_floor
        << " durable=" << hist.has_durable << ":";
    for (const PathVersion& v : hist.versions) version(v);
    out << "\n";
  }
  for (const RenameEvent& ev : state_.renames) {
    out << "rename " << ev.from << " -> " << ev.to
        << " to_existed=" << ev.to_existed
        << " from_was_durable=" << ev.from_was_durable
        << " versions=" << ev.from_versions << "/" << ev.to_versions << ":";
    version(ev.from_before);
    out << "\n";
  }
  for (const auto& [path, ino] : state_.inos) {
    out << "ino " << path << " " << ino << "\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// CrashConsistencyChecker

CrashConsistencyChecker::CrashConsistencyChecker(FsUnderTest* fut,
                                                 CrashCheckOptions options)
    : fut_(fut), options_(std::move(options)), oracle_(options_.oracle) {}

Status CrashConsistencyChecker::SeedInitial() {
  storage::CrashableDisk* disk = fut_->crash_disk();
  if (disk == nullptr) return Errno::kEINVAL;
  // Everything written so far (mkfs, free-space equalization) is the
  // durable baseline; crash states never reach back before it.
  disk->MarkClean();
  return oracle_.SeedFromTree(fut_->inner());
}

Status CrashConsistencyChecker::ObserveOp(const Operation& op,
                                          const OpOutcome& outcome) {
  return oracle_.ObserveOp(fut_->inner(), op, outcome);
}

Result<const CrashConsistencyChecker::Recovered*>
CrashConsistencyChecker::Recover(const storage::DeviceImage& image) {
  const ImageKey key{image.Digest(), image.size_bytes()};
  if (auto hit = memo_.find(key); hit != memo_.end()) {
    lru_.splice(lru_.begin(), lru_, hit->second);
    return &hit->second->second;
  }
  // A miss is the one place a distinct recovered image passes through:
  // anything that should run once per image (a mount, a walk) goes here.
  ++states_mounted_;
  auto probe = fut_->BuildRecoveryProbe(image);
  if (!probe.ok()) return probe.error();
  fs::FileSystem& fs = *probe.value();
  Recovered rec;
  if (Status s = fs.Mount(); !s.ok()) {
    rec.mount_error = s.error();
  } else if (Status w = oracle_.CaptureTree(fs, rec.tree); !w.ok()) {
    rec.walk_error = w.error();
    rec.tree.clear();
  }
  if (lru_.size() == kMemoEntries) {
    memo_.erase(lru_.back().first);
    lru_.pop_back();
  }
  lru_.emplace_front(key, std::move(rec));
  memo_.emplace(key, lru_.begin());
  return &lru_.front().second;
}

Result<std::string> CrashConsistencyChecker::Check() {
  storage::CrashableDisk* disk = fut_->crash_disk();
  if (disk == nullptr) return Errno::kEINVAL;
  const std::vector<storage::CrashState> states =
      disk->EnumerateCrashStates(options_.states);
  for (const storage::CrashState& st : states) {
    ++states_checked_;
    auto recovered = Recover(st.image);
    if (!recovered.ok()) return recovered.error();
    const Recovered& rec = *recovered.value();
    if (rec.mount_error != Errno::kOk) {
      return std::string("crash: recovered mount failed on ") +
             fut_->name() + " [" + st.Describe() +
             "]: " + std::string(ErrnoName(rec.mount_error));
    }
    // The verdict is never remembered: the same image is checked
    // against the oracle's current histories every time.
    std::string detail = rec.walk_error != Errno::kOk
                             ? PersistenceOracle::WalkFailure(rec.walk_error)
                             : oracle_.ValidateTree(rec.tree);
    if (!detail.empty()) {
      return "crash: persistence violation on " + fut_->name() + " [" +
             st.Describe() + "]: " + detail;
    }
  }
  return std::string();
}

}  // namespace mcfs::core
