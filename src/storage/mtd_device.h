// MTD (Memory Technology Device) simulation for JFFS2.
//
// JFFS2 cannot mount a regular block device; it needs an MTD character
// device with erase-block semantics (erase before rewrite, whole erase
// blocks at a time). The paper loads `mtdram` to create a virtual MTD in
// RAM and `mtdblock` to expose a block interface that Spin can mmap. We
// reproduce both: MtdDevice is the flash-semantics device; MtdBlockShim
// adapts it to the BlockDevice interface (read-modify-erase-write).
#pragma once

#include <cstdint>
#include <vector>

#include "storage/block_device.h"

namespace mcfs::storage {

// Observer for raw flash mutations. JFFS2 bypasses the block shim and
// programs the MTD directly, so a crash-state recorder (CrashableDisk)
// cannot see those writes through the BlockDevice interface; it attaches
// here instead. Notifications carry the post-image of the touched range.
class MtdWriteObserver {
 public:
  virtual ~MtdWriteObserver() = default;
  virtual void OnMtdWrite(std::uint64_t offset, ByteView after) = 0;
  // A write barrier (fsync reaching the flash). Returning non-OK models
  // an injected barrier failure: nothing is committed.
  virtual Status OnMtdBarrier() = 0;
};

struct MtdOptions {
  std::uint32_t erase_block_size = 16 * 1024;
  std::uint32_t write_granularity = 4;   // NOR-style word writes
  SimClock::Nanos read_latency_per_kb = 2'000;
  SimClock::Nanos write_latency_per_kb = 50'000;    // flash program
  SimClock::Nanos erase_latency_per_block = 2'000'000;  // block erase
};

// Raw flash with erase-block discipline: bits can only be cleared by
// writes (1 -> 0); setting them back requires erasing a whole block to 0xff.
class MtdDevice {
 public:
  MtdDevice(std::string name, std::uint64_t size_bytes, SimClock* clock,
            MtdOptions options = {});
  // Flash whose contents start as `image`, sharing its blocks (recovery
  // probes): programs and erases clone blocks, never changing the image.
  MtdDevice(std::string name, const DeviceImage& image, SimClock* clock,
            MtdOptions options = {});

  std::uint64_t size_bytes() const { return data_.size_bytes(); }
  std::uint32_t erase_block_size() const { return options_.erase_block_size; }
  std::uint32_t erase_block_count() const {
    return static_cast<std::uint32_t>(data_.size_bytes() /
                                      options_.erase_block_size);
  }

  Status Read(std::uint64_t offset, std::span<std::uint8_t> out);

  // Programs bytes; returns EIO if the write would need to flip any 0 -> 1
  // (i.e., the region was not erased first).
  Status Program(std::uint64_t offset, ByteView data);

  // Erases the erase-block containing `offset` back to 0xff.
  Status EraseBlock(std::uint32_t block_index);

  // Write barrier. With no observer attached this is a no-op (RAM-backed
  // flash has nothing to drain); with one, the observer decides — a
  // crash-state recorder commits its in-flight journal here.
  Status Flush();

  // At most one observer; pass nullptr to detach.
  void set_write_observer(MtdWriteObserver* observer) {
    observer_ = observer;
  }

  // State capture passes read/rewrite the whole flash through the
  // mtdblock view (the paper mmaps it, §4); charged at read rate. Restore
  // fails with EINVAL on an image of another size.
  DeviceImage Capture() const;
  Status Restore(const DeviceImage& image);

  std::uint64_t erase_count(std::uint32_t block_index) const {
    return erase_counts_.at(block_index);
  }

  std::string name() const { return name_; }

 private:
  void Charge(SimClock::Nanos ns) const {
    if (clock_ != nullptr) clock_->Advance(ns);
  }

  std::string name_;
  MtdOptions options_;
  SimClock* clock_;
  DeviceImage data_;
  std::vector<std::uint64_t> erase_counts_;
  MtdWriteObserver* observer_ = nullptr;
  // Contiguous post-image of the last program, handed to the observer.
  Bytes observed_;
  Bytes erased_;  // one erase block of 0xff, the post-image of an erase
};

// mtdblock-style adapter: exposes the MTD as a BlockDevice so the model
// checker can snapshot/restore it like any block device. Writes perform
// erase-modify-program on the containing erase block.
class MtdBlockShim final : public BlockDevice {
 public:
  explicit MtdBlockShim(std::shared_ptr<MtdDevice> mtd);

  std::uint64_t size_bytes() const override { return mtd_->size_bytes(); }
  std::uint32_t block_size() const override {
    return mtd_->erase_block_size();
  }

  Status Read(std::uint64_t offset, std::span<std::uint8_t> out) override;
  Status Write(std::uint64_t offset, ByteView data) override;
  // A real barrier: forwards to the MTD so an attached crash-state
  // recorder sees fsync-driven flushes (a silent OK here would make
  // every un-flushed write look durable and crash enumeration unsound).
  Status Flush() override {
    ++stats_.flushes;
    return mtd_->Flush();
  }

  DeviceImage Capture() const override { return mtd_->Capture(); }
  Status Restore(const DeviceImage& image) override {
    return mtd_->Restore(image);
  }

  const DeviceStats& stats() const override { return stats_; }
  std::string name() const override { return mtd_->name() + "-block"; }

  MtdDevice& mtd() { return *mtd_; }

 private:
  std::shared_ptr<MtdDevice> mtd_;
  DeviceStats stats_;
};

}  // namespace mcfs::storage
