#include "storage/ram_disk.h"

#include <utility>

namespace mcfs::storage {

RamDisk::RamDisk(std::string name, std::uint64_t size_bytes, SimClock* clock,
                 RamDiskOptions options)
    : name_(std::move(name)),
      options_(options),
      clock_(clock),
      data_(size_bytes, 0) {}

RamDisk::RamDisk(std::string name, const DeviceImage& image, SimClock* clock,
                 RamDiskOptions options)
    : name_(std::move(name)), options_(options), clock_(clock), data_(image) {
  data_.set_annex(nullptr);
}

bool RamDisk::ConsumeInjectedError() {
  if (injected_errors_ == 0) return false;
  --injected_errors_;
  return true;
}

void RamDisk::Charge(std::uint64_t bytes) {
  if (clock_ == nullptr) return;
  SimClock::Nanos cost = options_.request_latency;
  if (options_.bandwidth_bytes_per_s > 0) {
    cost += bytes * 1'000'000'000ULL / options_.bandwidth_bytes_per_s;
  }
  clock_->Advance(cost);
}

void RamDisk::ChargeSnapshotPass(std::uint64_t bytes) const {
  if (clock_ == nullptr) return;
  SimClock::Nanos cost = options_.snapshot_base_latency;
  if (options_.snapshot_bandwidth_bytes_per_s > 0) {
    cost += bytes * 1'000'000'000ULL /
            options_.snapshot_bandwidth_bytes_per_s;
  }
  clock_->Advance(cost);
}

Status RamDisk::Read(std::uint64_t offset, std::span<std::uint8_t> out) {
  if (ConsumeInjectedError()) return Errno::kEIO;
  if (offset + out.size() > data_.size_bytes()) return Errno::kEIO;
  data_.Read(offset, out);
  ++stats_.reads;
  stats_.bytes_read += out.size();
  Charge(out.size());
  return Status::Ok();
}

Status RamDisk::Write(std::uint64_t offset, ByteView data) {
  if (ConsumeInjectedError()) return Errno::kEIO;
  if (offset + data.size() > data_.size_bytes()) return Errno::kEIO;
  data_.Write(offset, data);
  ++stats_.writes;
  stats_.bytes_written += data.size();
  Charge(data.size());
  return Status::Ok();
}

Status RamDisk::Flush() {
  ++stats_.flushes;
  return Status::Ok();
}

// Capture and restore are charged as full-device passes: the sim clock
// models Spin copying the mmapped device, whatever the host copies.
DeviceImage RamDisk::Capture() const {
  ChargeSnapshotPass(data_.size_bytes());
  return data_;
}

Status RamDisk::Restore(const DeviceImage& image) {
  if (image.size_bytes() != data_.size_bytes()) return Errno::kEINVAL;
  ChargeSnapshotPass(image.size_bytes());
  data_ = image;
  data_.set_annex(nullptr);
  return Status::Ok();
}

RamDiskFactory RamDiskFactory::Brd(std::uint64_t uniform_size,
                                   SimClock* clock) {
  return RamDiskFactory(/*uniform=*/true, uniform_size, clock);
}

RamDiskFactory RamDiskFactory::Brd2(SimClock* clock) {
  return RamDiskFactory(/*uniform=*/false, 0, clock);
}

Result<BlockDevicePtr> RamDiskFactory::Create(const std::string& name,
                                              std::uint64_t size_bytes) {
  if (uniform_ && size_bytes != uniform_size_) return Errno::kEINVAL;
  return BlockDevicePtr(std::make_shared<RamDisk>(name, size_bytes, clock_));
}

}  // namespace mcfs::storage
