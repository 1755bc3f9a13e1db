#include "mcfs/fs_under_test.h"

#include <utility>

#include "fs/ext2/ext2fs.h"
#include "fs/ext4/ext4fs.h"
#include "fs/jffs2/jffs2fs.h"
#include "fs/xfs/xfsfs.h"
#include "spec/spec_fs.h"
#include "storage/latency_disk.h"
#include "storage/ram_disk.h"
#include "verifs/verifs1.h"
#include "verifs/verifs2.h"

namespace mcfs::core {

namespace {

// The paper's device sizes (§6): 256 KB RAM disks for ext2/ext4, 16 MB
// for XFS; we use a 1 MB mtdram for JFFS2.
std::uint64_t DefaultDeviceBytes(FsKind kind) {
  switch (kind) {
    case FsKind::kExt2:
    case FsKind::kExt4:
      return 256 * 1024;
    case FsKind::kXfs:
      return 16ull * 1024 * 1024;
    case FsKind::kJffs2:
      return 1024 * 1024;
    case FsKind::kVerifs1:
    case FsKind::kVerifs2:
    case FsKind::kSpec:
      return 0;  // in-memory, no block device (paper §6)
  }
  return 0;
}

std::string_view BackendName(Backend backend) {
  switch (backend) {
    case Backend::kRam: return "ram";
    case Backend::kHdd: return "hdd";
    case Backend::kSsd: return "ssd";
  }
  return "?";
}

// Option builders shared by Create and BuildRecoveryProbe: a recovery
// probe must run the SAME file-system configuration as the live stack
// (including seeded crash bugs) or it would recover with code the test
// subject does not have.
fs::Ext2Options Ext2OptionsFor(const FsUnderTestConfig& config) {
  fs::Ext2Options opts;
  opts.identity = config.identity;
  opts.cache_capacity_blocks = config.block_cache_capacity;
  return opts;
}

fs::Ext4Options Ext4OptionsFor(const FsUnderTestConfig& config) {
  fs::Ext4Options opts;
  opts.identity = config.identity;
  opts.cache_capacity_blocks = config.block_cache_capacity;
  opts.bug_ack_before_journal_commit =
      config.bugs.ext4_ack_before_journal_commit;
  return opts;
}

fs::XfsOptions XfsOptionsFor(const FsUnderTestConfig& config) {
  fs::XfsOptions opts;
  opts.identity = config.identity;
  return opts;
}

fs::Jffs2Options Jffs2OptionsFor(const FsUnderTestConfig& config) {
  fs::Jffs2Options opts;
  opts.identity = config.identity;
  opts.bug_skip_log_replay = config.bugs.jffs2_skip_log_replay;
  return opts;
}

// In-process transport: the daemon's fuse_lowlevel_notify_inval_* calls
// land directly on the VFS, with no message channel in between.
class DirectVfsNotifier : public fs::KernelNotifier {
 public:
  explicit DirectVfsNotifier(vfs::Vfs* v) : vfs_(v) {}
  void InvalEntry(const std::string& parent_path,
                  const std::string& name) override {
    vfs_->NotifyInvalEntry(parent_path, name);
  }
  void InvalInode(fs::InodeNum ino) override { vfs_->NotifyInvalInode(ino); }

 private:
  vfs::Vfs* vfs_;
};

}  // namespace

std::string_view FsKindName(FsKind kind) {
  switch (kind) {
    case FsKind::kExt2: return "ext2f";
    case FsKind::kExt4: return "ext4f";
    case FsKind::kXfs: return "xfsf";
    case FsKind::kJffs2: return "jffs2f";
    case FsKind::kVerifs1: return "verifs1";
    case FsKind::kVerifs2: return "verifs2";
    case FsKind::kSpec: return "specfs";
  }
  return "?";
}

Result<std::unique_ptr<FsUnderTest>> FsUnderTest::Create(
    const FsUnderTestConfig& config, SimClock* clock) {
  auto fut = std::unique_ptr<FsUnderTest>(new FsUnderTest());
  fut->config_ = config;
  fut->clock_ = clock;
  const std::uint64_t device_bytes = config.device_bytes != 0
                                         ? config.device_bytes
                                         : DefaultDeviceBytes(config.kind);
  if (config.crashable_device &&
      (config.kind == FsKind::kVerifs1 || config.kind == FsKind::kVerifs2 ||
       config.kind == FsKind::kSpec)) {
    return Errno::kENOTSUP;  // no block device to crash (paper §6)
  }
  if (config.crashable_device &&
      config.strategy == StateStrategy::kVmSnapshot) {
    // The VM image stores the disk as raw bytes, which cannot carry the
    // recorder's durable image and in-flight journal across a restore.
    return Errno::kENOTSUP;
  }

  // ---- storage + file system ------------------------------------------
  switch (config.kind) {
    case FsKind::kExt2:
    case FsKind::kExt4:
    case FsKind::kXfs: {
      // brd2-style RAM disk (per-device sizes), optionally wrapped in an
      // HDD/SSD latency model for the Figure 2 backend comparison.
      auto ram = std::make_shared<storage::RamDisk>(
          std::string(FsKindName(config.kind)) + "-disk", device_bytes,
          clock);
      storage::BlockDevicePtr dev = ram;
      if (config.backend == Backend::kHdd) {
        dev = std::make_shared<storage::LatencyDisk>(
            ram, storage::LatencyProfile::Hdd(), clock);
      } else if (config.backend == Backend::kSsd) {
        dev = std::make_shared<storage::LatencyDisk>(
            ram, storage::LatencyProfile::Ssd(), clock);
      }
      if (config.crashable_device) {
        auto crash = std::make_shared<storage::CrashableDisk>(dev);
        fut->crash_disk_ = crash.get();
        dev = crash;
      }
      fut->device_ = dev;
      if (config.kind == FsKind::kExt2) {
        fut->hosted_fs_ =
            std::make_shared<fs::Ext2Fs>(dev, Ext2OptionsFor(config));
      } else if (config.kind == FsKind::kExt4) {
        fut->hosted_fs_ =
            std::make_shared<fs::Ext4Fs>(dev, Ext4OptionsFor(config));
      } else {
        fut->hosted_fs_ =
            std::make_shared<fs::XfsFs>(dev, XfsOptionsFor(config));
      }
      fut->inner_fs_ = fut->hosted_fs_;
      break;
    }
    case FsKind::kJffs2: {
      // mtdram + mtdblock: the MTD is the real storage; the block shim
      // exists so state snapshots can use the block interface, exactly
      // like the paper's mmap-via-mtdblock trick (§4).
      fut->mtd_ = std::make_shared<storage::MtdDevice>("mtdram0",
                                                       device_bytes, clock);
      storage::BlockDevicePtr dev =
          std::make_shared<storage::MtdBlockShim>(fut->mtd_);
      if (config.crashable_device) {
        // jffs2f programs the MTD directly, so the recorder observes the
        // raw flash rather than the block shim.
        auto crash = std::make_shared<storage::CrashableDisk>(dev);
        crash->AttachMtd(fut->mtd_);
        fut->crash_disk_ = crash.get();
        dev = crash;
      }
      fut->device_ = dev;
      fut->hosted_fs_ =
          std::make_shared<fs::Jffs2Fs>(fut->mtd_, Jffs2OptionsFor(config));
      fut->inner_fs_ = fut->hosted_fs_;
      break;
    }
    case FsKind::kVerifs1: {
      verifs::Verifs1Options opts;
      opts.identity = config.identity;
      opts.bugs = config.bugs;
      opts.cow_snapshots = config.cow_snapshots;
      fut->hosted_fs_ = std::make_shared<verifs::Verifs1>(opts);
      break;
    }
    case FsKind::kVerifs2: {
      verifs::Verifs2Options opts;
      opts.identity = config.identity;
      opts.bugs = config.bugs;
      opts.cow_snapshots = config.cow_snapshots;
      fut->hosted_fs_ = std::make_shared<verifs::Verifs2>(opts);
      break;
    }
    case FsKind::kSpec: {
      // The oracle has no knobs beyond identity: no bugs to seed, no
      // snapshot-representation choice (deep copies of a tiny state).
      spec::SpecFsOptions opts;
      opts.identity = config.identity;
      fut->hosted_fs_ = std::make_shared<spec::SpecFs>(opts);
      break;
    }
  }

  // ---- FUSE / NFS plumbing for user-space file systems ------------------
  const bool is_verifs =
      config.kind == FsKind::kVerifs1 || config.kind == FsKind::kVerifs2;
  const bool is_spec = config.kind == FsKind::kSpec;
  if (is_spec) {
    // The spec is always in-process: it models intended semantics, not a
    // deployment, so there is no daemon to put behind FUSE or NFS.
    fut->inner_fs_ = fut->hosted_fs_;
    fut->checkpointable_ =
        dynamic_cast<fs::CheckpointableFs*>(fut->hosted_fs_.get());
    fut->accounting_ = fut->checkpointable_;
  }
  if (is_verifs && config.nfs_transport) {
    // Ganesha-style deployment: socket transport, CRIU-checkpointable.
    fut->ganesha_ =
        std::make_unique<nfs::GaneshaServer>(fut->hosted_fs_, clock);
    fut->client_ = fut->ganesha_->client();
    fut->inner_fs_ = fut->client_;
    fut->checkpointable_ = fut->client_.get();
  } else if (is_verifs && config.fuse_transport) {
    fut->channel_ = std::make_unique<fuse::FuseChannel>(clock);
    fut->host_ =
        std::make_unique<fuse::FuseHost>(fut->hosted_fs_, fut->channel_.get());
    fut->client_ = std::make_shared<fuse::FuseClientFs>(fut->channel_.get());
    fut->inner_fs_ = fut->client_;
    fut->checkpointable_ = fut->client_.get();
    // Wire the restore-time invalidations from the daemon to the host.
    if (auto* v1 = dynamic_cast<verifs::Verifs1*>(fut->hosted_fs_.get())) {
      v1->SetNotifier(fut->host_.get());
    }
    if (auto* v2 = dynamic_cast<verifs::Verifs2*>(fut->hosted_fs_.get())) {
      v2->SetNotifier(fut->host_.get());
    }
  } else if (is_verifs) {
    fut->inner_fs_ = fut->hosted_fs_;
    fut->checkpointable_ =
        dynamic_cast<fs::CheckpointableFs*>(fut->hosted_fs_.get());
  }
  if (is_verifs) {
    fut->accounting_ =
        dynamic_cast<fs::CheckpointableFs*>(fut->hosted_fs_.get());
  }

  if (config.strategy == StateStrategy::kIoctl &&
      fut->checkpointable_ == nullptr) {
    return Errno::kENOTSUP;  // kernel FSes lack the APIs — the paper's point
  }
  if ((config.strategy == StateStrategy::kRemountPerOp ||
       config.strategy == StateStrategy::kMountOnce ||
       config.strategy == StateStrategy::kVfsApi) &&
      fut->device_ == nullptr) {
    // Device-snapshot strategies need a device; VeriFS has none (it is
    // an in-memory file system, paper §6).
    return Errno::kEINVAL;
  }
  if (config.strategy == StateStrategy::kVfsApi) {
    fut->mount_capture_ =
        dynamic_cast<fs::MountStateCapture*>(fut->hosted_fs_.get());
    if (fut->mount_capture_ == nullptr) return Errno::kENOTSUP;
  }
  if (config.strategy == StateStrategy::kCriu) {
    if (fut->ganesha_ == nullptr) {
      // A FUSE daemon holds /dev/fuse open — CRIU refuses it (paper §5);
      // kernel file systems have no user-space process to dump at all.
      return Errno::kEBUSY;
    }
    fut->criu_ = std::make_unique<snapshot::CriuSnapshotter>(clock);
  }

  // ---- VFS ---------------------------------------------------------------
  fut->vfs_ = std::make_unique<vfs::Vfs>(fut->inner_fs_, clock);
  if (fut->client_ != nullptr) {
    vfs::Vfs* v = fut->vfs_.get();
    fut->client_->SetInvalEntryHandler(
        [v](const std::string& parent, const std::string& name) {
          v->NotifyInvalEntry(parent, name);
        });
    fut->client_->SetInvalInodeHandler(
        [v](fs::InodeNum ino) { v->NotifyInvalInode(ino); });
  }
  if ((is_verifs || is_spec) && fut->client_ == nullptr) {
    // In-process deployment: there is no transport to carry the restore-
    // time invalidation notifications, so hand the daemon a notifier
    // that calls straight into the VFS. Without this the dcache/icache
    // keep serving the abandoned timeline after every ioctl restore —
    // the §3.2 incoherency the bug-#2 fix exists to eliminate — and the
    // abstract-state walk reads stale attributes through them.
    fut->direct_notifier_ =
        std::make_unique<DirectVfsNotifier>(fut->vfs_.get());
    if (auto* v1 = dynamic_cast<verifs::Verifs1*>(fut->hosted_fs_.get())) {
      v1->SetNotifier(fut->direct_notifier_.get());
    }
    if (auto* v2 = dynamic_cast<verifs::Verifs2*>(fut->hosted_fs_.get())) {
      v2->SetNotifier(fut->direct_notifier_.get());
    }
    if (auto* sp = dynamic_cast<spec::SpecFs*>(fut->hosted_fs_.get())) {
      sp->SetNotifier(fut->direct_notifier_.get());
    }
  }

  // ---- VM snapshotter ------------------------------------------------------
  if (config.strategy == StateStrategy::kVmSnapshot) {
    fut->vm_ = std::make_unique<snapshot::VmSnapshotter>(clock);
    if (is_spec) {
      auto* sp = dynamic_cast<spec::SpecFs*>(fut->hosted_fs_.get());
      fut->vm_->RegisterComponent(
          "spec-oracle", [sp]() { return sp->ExportState(); },
          [sp](ByteView image) { sp->ImportState(image); });
    } else if (is_verifs) {
      fs::FileSystem* hosted = fut->hosted_fs_.get();
      fut->vm_->RegisterComponent(
          "verifs-daemon",
          [hosted]() {
            if (auto* v1 = dynamic_cast<verifs::Verifs1*>(hosted)) {
              return v1->ExportState();
            }
            return dynamic_cast<verifs::Verifs2*>(hosted)->ExportState();
          },
          [hosted](ByteView image) {
            if (auto* v1 = dynamic_cast<verifs::Verifs1*>(hosted)) {
              v1->ImportState(image);
              return;
            }
            dynamic_cast<verifs::Verifs2*>(hosted)->ImportState(image);
          });
    } else {
      storage::BlockDevice* dev = fut->device_.get();
      fut->vm_->RegisterComponent(
          "disk", [dev]() { return dev->Capture().ToBytes(); },
          [dev](ByteView image) {
            (void)dev->Restore(storage::DeviceImage::FromBytes(image));
          });
    }
  }

  // ---- format + initial mount ------------------------------------------------
  if (Status s = fut->hosted_fs_->Mkfs(); !s.ok()) return s.error();
  if (Status s = fut->vfs_->Mount(); !s.ok()) return s.error();

  fut->name_ = std::string(FsKindName(config.kind));
  if (!is_verifs && !is_spec) {
    fut->name_ += "(" + std::string(BackendName(config.backend)) + ")";
  } else if (is_verifs && config.nfs_transport) {
    fut->name_ += "(nfs)";
  }
  return fut;
}

bool FsUnderTest::UsesDeviceSnapshots() const {
  return config_.strategy == StateStrategy::kRemountPerOp ||
         config_.strategy == StateStrategy::kMountOnce;
}

Status FsUnderTest::EnsureMounted() {
  if (inner_fs_->IsMounted()) return Status::Ok();
  ++remounts_;
  return vfs_->Mount();
}

Status FsUnderTest::BeginOp() { return EnsureMounted(); }

Status FsUnderTest::EndOp() {
  if (!RemountsPerOp()) return Status::Ok();
  if (!inner_fs_->IsMounted()) return Status::Ok();
  ++remounts_;
  return vfs_->Unmount();
}

Status FsUnderTest::SaveViaDevice(std::uint64_t key) {
  const storage::DeviceImage& image =
      device_snapshots_[key] = device_->Capture();
  last_state_bytes_ = image.size_bytes();
  return Status::Ok();
}

Status FsUnderTest::RestoreViaDevice(std::uint64_t key) {
  auto it = device_snapshots_.find(key);
  if (it == device_snapshots_.end()) return Errno::kENOENT;
  return device_->Restore(it->second);
}

Status FsUnderTest::SaveState(std::uint64_t key) {
  switch (config_.strategy) {
    case StateStrategy::kRemountPerOp: {
      // Unmounting first guarantees the disk image IS the full state —
      // "an unmount is the only way to fully guarantee that no state
      // remains in kernel memory" (paper §3.2).
      if (inner_fs_->IsMounted()) {
        ++remounts_;
        if (Status s = vfs_->Unmount(); !s.ok()) return s;
      }
      return SaveViaDevice(key);
    }
    case StateStrategy::kMountOnce:
      // Snapshot the device under a live mount: dirty cache contents are
      // missing from the image. Deliberately unsafe (§3.2 reproduction).
      return SaveViaDevice(key);
    case StateStrategy::kIoctl: {
      auto id = checkpointable_->Checkpoint();
      if (!id.ok()) return id.error();
      auto [it, inserted] = ioctl_handles_.emplace(key, id.value());
      if (!inserted) {
        // Re-used key: the old snapshot under it is unreachable now.
        (void)checkpointable_->Discard(it->second);
        it->second = id.value();
      }
      // The deep-copy baseline prices its capture off measured image
      // bytes on every save; a COW checkpoint must not pay an O(state)
      // accounting walk on its own O(1) fast path, so it measures once
      // (first save) and keeps that estimate for StateBytes().
      if (!config_.cow_snapshots || last_state_bytes_ == 0) {
        const fs::SnapshotStats stats = StateStats();
        if (stats.count > 0) {
          last_state_bytes_ = stats.total_bytes / stats.count;
        }
      }
      // Capture-cost model: a COW checkpoint copies one root pointer
      // vector (near-constant); a deep-copy checkpoint walks and
      // serializes the whole state — map traversal plus per-entry
      // allocation runs at roughly 250 MB/s, i.e. ~4 ns/byte.
      if (clock_ != nullptr) {
        clock_->Advance(config_.cow_snapshots
                            ? 2'000
                            : 2'000 + 4 * last_state_bytes_);
      }
      return Status::Ok();
    }
    case StateStrategy::kCriu: {
      Status s = criu_->Checkpoint(key, ganesha_->process());
      if (s.ok()) {
        last_state_bytes_ = criu_->ImageSize(key).value_or(64 * 1024);
      }
      return s;
    }
    case StateStrategy::kVfsApi: {
      // The §7 future-work path: in-memory mount state + device image,
      // captured under the live mount. No remount, no incoherency.
      if (Status s = EnsureMounted(); !s.ok()) return s;
      auto mount_state = mount_capture_->ExportMountState();
      if (!mount_state.ok()) return mount_state.error();
      device_snapshots_[key] = device_->Capture();
      mount_snapshots_[key] = std::move(mount_state).value();
      last_state_bytes_ = device_snapshots_[key].size_bytes() +
                          mount_snapshots_[key].size();
      return Status::Ok();
    }
    case StateStrategy::kVmSnapshot: {
      if (!inner_fs_->IsMounted() || device_ == nullptr) {
        // VeriFS path: the daemon image carries everything.
        Status s = vm_->Checkpoint(key);
        last_state_bytes_ = vm_->snapshot_count() > 0
                                ? vm_->total_bytes() / vm_->snapshot_count()
                                : 0;
        return s;
      }
      // Kernel-FS path: a real hypervisor would capture RAM too; we get
      // an equivalent coherent image by flushing through an unmount
      // bracketed around the capture, then charge VM-snapshot latency.
      if (Status s = vfs_->Unmount(); !s.ok()) return s;
      Status s = vm_->Checkpoint(key);
      last_state_bytes_ = vm_->snapshot_count() > 0
                              ? vm_->total_bytes() / vm_->snapshot_count()
                              : 0;
      if (Status m = vfs_->Mount(); !m.ok()) return m;
      return s;
    }
  }
  return Errno::kEINVAL;
}

Status FsUnderTest::RestoreState(std::uint64_t key) {
  switch (config_.strategy) {
    case StateStrategy::kRemountPerOp: {
      if (inner_fs_->IsMounted()) {
        ++remounts_;
        if (Status s = vfs_->Unmount(); !s.ok()) return s;
      }
      return RestoreViaDevice(key);  // next BeginOp remounts fresh
    }
    case StateStrategy::kMountOnce:
      // Rewrite the disk underneath the live mount: the dcache/icache and
      // the file system's own write-back cache now describe a state that
      // no longer exists — the §3.2 corruption mechanism.
      return RestoreViaDevice(key);
    case StateStrategy::kIoctl: {
      // Restore by handle is non-consuming: no post-restore re-checkpoint
      // (the old keyed API's biggest per-backtrack cost) is needed.
      auto it = ioctl_handles_.find(key);
      if (it == ioctl_handles_.end()) return Errno::kENOENT;
      Status s = checkpointable_->Restore(it->second);
      // Mirror of the capture-cost model in SaveState: a COW restore is
      // a root swap plus the O(dirty) invalidation replay (the
      // notifications charge the channel on their own); a deep-copy
      // restore re-parses the full image and rebuilds every map.
      if (s.ok() && clock_ != nullptr) {
        clock_->Advance(config_.cow_snapshots
                            ? 2'000
                            : 2'000 + 4 * last_state_bytes_);
      }
      return s;
    }
    case StateStrategy::kCriu: {
      // CRIU restore consumes the image; re-dump to satisfy the
      // explorer's non-consuming contract (same as the ioctl path).
      if (Status s = criu_->Restore(key, ganesha_->process()); !s.ok()) {
        return s;
      }
      return criu_->Checkpoint(key, ganesha_->process());
    }
    case StateStrategy::kVfsApi: {
      auto mount_it = mount_snapshots_.find(key);
      if (mount_it == mount_snapshots_.end()) return Errno::kENOENT;
      if (Status s = EnsureMounted(); !s.ok()) return s;
      if (Status s = RestoreViaDevice(key); !s.ok()) return s;
      if (Status s = mount_capture_->ImportMountState(mount_it->second);
          !s.ok()) {
        return s;
      }
      // The VFS-level API invalidates the kernel's namespace caches, as
      // VeriFS's restore notifications do.
      vfs_->DropCaches();
      return Status::Ok();
    }
    case StateStrategy::kVmSnapshot: {
      if (!inner_fs_->IsMounted() || device_ == nullptr) {
        return vm_->Restore(key);
      }
      if (Status s = vfs_->Unmount(); !s.ok()) return s;
      if (Status s = vm_->Restore(key); !s.ok()) return s;
      return vfs_->Mount();
    }
  }
  return Errno::kEINVAL;
}

Status FsUnderTest::DiscardState(std::uint64_t key) {
  switch (config_.strategy) {
    case StateStrategy::kRemountPerOp:
    case StateStrategy::kMountOnce:
      return device_snapshots_.erase(key) == 1 ? Status::Ok()
                                               : Status(Errno::kENOENT);
    case StateStrategy::kVfsApi:
      mount_snapshots_.erase(key);
      return device_snapshots_.erase(key) == 1 ? Status::Ok()
                                               : Status(Errno::kENOENT);
    case StateStrategy::kIoctl: {
      auto it = ioctl_handles_.find(key);
      if (it == ioctl_handles_.end()) return Errno::kENOENT;
      Status s = checkpointable_->Discard(it->second);
      ioctl_handles_.erase(it);
      return s;
    }
    case StateStrategy::kVmSnapshot:
      return vm_->Discard(key);
    case StateStrategy::kCriu:
      return criu_->Discard(key);
  }
  return Errno::kEINVAL;
}

std::uint64_t FsUnderTest::StateBytes() const {
  if (last_state_bytes_ != 0) return last_state_bytes_;
  return device_ != nullptr ? device_->size_bytes() : 64 * 1024;
}

fs::SnapshotStats FsUnderTest::StateStats() const {
  const fs::CheckpointableFs* pool =
      accounting_ != nullptr ? accounting_ : checkpointable_;
  return pool != nullptr ? pool->Stats() : fs::SnapshotStats{};
}

std::vector<fs::FsFeature> FsUnderTest::SupportedFeatures() const {
  std::vector<fs::FsFeature> features;
  for (fs::FsFeature f :
       {fs::FsFeature::kRename, fs::FsFeature::kHardLink,
        fs::FsFeature::kSymlink, fs::FsFeature::kAccess,
        fs::FsFeature::kXattr, fs::FsFeature::kCheckpointRestore}) {
    if (inner_fs_->Supports(f)) features.push_back(f);
  }
  return features;
}

std::vector<std::string> FsUnderTest::SpecialPaths() const {
  if (config_.kind == FsKind::kExt4) return {"/lost+found"};
  return {};
}

Result<fs::FileSystemPtr> FsUnderTest::BuildRecoveryProbe(
    const storage::DeviceImage& image) const {
  // No simulated clock: probe mounts are checking logic, not charged time.
  switch (config_.kind) {
    case FsKind::kExt2:
      return fs::FileSystemPtr(std::make_shared<fs::Ext2Fs>(
          std::make_shared<storage::RamDisk>("ext2f-probe", image, nullptr),
          Ext2OptionsFor(config_)));
    case FsKind::kExt4:
      return fs::FileSystemPtr(std::make_shared<fs::Ext4Fs>(
          std::make_shared<storage::RamDisk>("ext4f-probe", image, nullptr),
          Ext4OptionsFor(config_)));
    case FsKind::kXfs:
      return fs::FileSystemPtr(std::make_shared<fs::XfsFs>(
          std::make_shared<storage::RamDisk>("xfsf-probe", image, nullptr),
          XfsOptionsFor(config_)));
    case FsKind::kJffs2:
      return fs::FileSystemPtr(std::make_shared<fs::Jffs2Fs>(
          std::make_shared<storage::MtdDevice>("mtdram-probe", image,
                                               nullptr),
          Jffs2OptionsFor(config_)));
    case FsKind::kVerifs1:
    case FsKind::kVerifs2:
    case FsKind::kSpec:
      return Errno::kENOTSUP;
  }
  return Errno::kEINVAL;
}

}  // namespace mcfs::core
