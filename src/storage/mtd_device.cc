#include "storage/mtd_device.h"

#include <cstring>
#include <utility>

namespace mcfs::storage {

MtdDevice::MtdDevice(std::string name, std::uint64_t size_bytes,
                     SimClock* clock, MtdOptions options)
    : name_(std::move(name)),
      options_(options),
      clock_(clock),
      data_(size_bytes, 0xff),
      erase_counts_(size_bytes / options.erase_block_size, 0),
      erased_(options.erase_block_size, 0xff) {}

MtdDevice::MtdDevice(std::string name, const DeviceImage& image,
                     SimClock* clock, MtdOptions options)
    : name_(std::move(name)),
      options_(options),
      clock_(clock),
      data_(image),
      erase_counts_(image.size_bytes() / options.erase_block_size, 0),
      erased_(options.erase_block_size, 0xff) {
  data_.set_annex(nullptr);
}

Status MtdDevice::Read(std::uint64_t offset, std::span<std::uint8_t> out) {
  if (offset + out.size() > data_.size_bytes()) return Errno::kEIO;
  data_.Read(offset, out);
  Charge((out.size() + 1023) / 1024 * options_.read_latency_per_kb);
  return Status::Ok();
}

Status MtdDevice::Program(std::uint64_t offset, ByteView data) {
  if (offset + data.size() > data_.size_bytes()) return Errno::kEIO;
  // Flash programming can only clear bits; flipping 0 -> 1 needs an erase.
  bool sets_bits = false;
  data_.Visit(offset, data.size(), [&](ByteView old, std::uint64_t done) {
    for (std::size_t i = 0; i < old.size() && !sets_bits; ++i) {
      sets_bits = (data[done + i] & ~old[i]) != 0;
    }
  });
  if (sets_bits) return Errno::kEIO;
  if (observer_ != nullptr) observed_.resize(data.size());
  data_.Modify(offset, data.size(),
               [&](std::span<std::uint8_t> cell, std::uint64_t done) {
                 for (std::size_t i = 0; i < cell.size(); ++i) {
                   cell[i] &= data[done + i];
                 }
                 if (observer_ != nullptr) {
                   std::memcpy(observed_.data() + done, cell.data(),
                               cell.size());
                 }
               });
  Charge((data.size() + 1023) / 1024 * options_.write_latency_per_kb);
  if (observer_ != nullptr) observer_->OnMtdWrite(offset, observed_);
  return Status::Ok();
}

Status MtdDevice::EraseBlock(std::uint32_t block_index) {
  if (block_index >= erase_counts_.size()) return Errno::kEINVAL;
  const std::uint64_t start =
      static_cast<std::uint64_t>(block_index) * options_.erase_block_size;
  data_.Fill(start, options_.erase_block_size, 0xff);
  ++erase_counts_[block_index];
  Charge(options_.erase_latency_per_block);
  if (observer_ != nullptr) observer_->OnMtdWrite(start, erased_);
  return Status::Ok();
}

Status MtdDevice::Flush() {
  if (observer_ != nullptr) return observer_->OnMtdBarrier();
  return Status::Ok();
}

DeviceImage MtdDevice::Capture() const {
  Charge((data_.size_bytes() + 1023) / 1024 * options_.read_latency_per_kb);
  return data_;
}

Status MtdDevice::Restore(const DeviceImage& image) {
  if (image.size_bytes() != data_.size_bytes()) return Errno::kEINVAL;
  Charge((image.size_bytes() + 1023) / 1024 * options_.read_latency_per_kb);
  data_ = image;
  data_.set_annex(nullptr);
  return Status::Ok();
}

MtdBlockShim::MtdBlockShim(std::shared_ptr<MtdDevice> mtd)
    : mtd_(std::move(mtd)) {}

Status MtdBlockShim::Read(std::uint64_t offset, std::span<std::uint8_t> out) {
  Status s = mtd_->Read(offset, out);
  if (s.ok()) {
    ++stats_.reads;
    stats_.bytes_read += out.size();
  }
  return s;
}

Status MtdBlockShim::Write(std::uint64_t offset, ByteView data) {
  // Erase-modify-program each touched erase block.
  const std::uint32_t ebs = mtd_->erase_block_size();
  std::uint64_t pos = offset;
  std::size_t consumed = 0;
  while (consumed < data.size()) {
    const std::uint32_t block = static_cast<std::uint32_t>(pos / ebs);
    const std::uint64_t block_start = static_cast<std::uint64_t>(block) * ebs;
    const std::uint64_t in_block = pos - block_start;
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(ebs - in_block, data.size() - consumed));

    Bytes whole(ebs);
    if (Status s = mtd_->Read(block_start, whole); !s.ok()) return s;
    std::memcpy(whole.data() + in_block, data.data() + consumed, take);
    if (Status s = mtd_->EraseBlock(block); !s.ok()) return s;
    if (Status s = mtd_->Program(block_start, whole); !s.ok()) return s;

    pos += take;
    consumed += take;
  }
  ++stats_.writes;
  stats_.bytes_written += data.size();
  return Status::Ok();
}

}  // namespace mcfs::storage
