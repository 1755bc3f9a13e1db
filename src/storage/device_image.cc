#include "storage/device_image.h"

#include <cstring>
#include <utility>

namespace mcfs::storage {
namespace {

std::shared_ptr<ImageBlock> MakeUniformBlock(std::uint8_t fill) {
  auto block = std::make_shared<ImageBlock>();
  block->bytes.fill(fill);
  block->digest = Md5::Hash(ByteView(block->bytes));
  block->has_digest = true;
  return block;
}

// The process-wide all-0x00 and all-0xff blocks. Their use count never
// drops to 1 while an image holds them, so no image writes them in place.
const std::shared_ptr<ImageBlock>& UniformBlock(std::uint8_t fill) {
  static const std::shared_ptr<ImageBlock> zero = MakeUniformBlock(0x00);
  static const std::shared_ptr<ImageBlock> erased = MakeUniformBlock(0xff);
  return fill == 0x00 ? zero : erased;
}

bool IsSharedPattern(std::uint8_t value) {
  return value == 0x00 || value == 0xff;
}

// True when every byte of `piece` equals its first.
bool IsUniform(ByteView piece) {
  return piece.empty() ||
         std::memcmp(piece.data(), piece.data() + 1, piece.size() - 1) == 0;
}

}  // namespace

DeviceImage::DeviceImage(std::uint64_t size_bytes, std::uint8_t fill)
    : size_(size_bytes) {
  const std::uint64_t full = size_bytes / kBlockSize;
  const std::uint64_t tail = size_bytes % kBlockSize;
  BlockPtr whole = IsSharedPattern(fill) ? UniformBlock(fill)
                                         : MakeUniformBlock(fill);
  blocks_.assign(full, whole);
  if (tail != 0) {
    auto last = std::make_shared<ImageBlock>();  // bytes past the end: 0
    std::memset(last->bytes.data(), fill, tail);
    blocks_.push_back(std::move(last));
  }
}

DeviceImage DeviceImage::FromBytes(ByteView bytes) {
  DeviceImage image;
  image.size_ = bytes.size();
  image.blocks_.reserve((bytes.size() + kBlockSize - 1) / kBlockSize);
  for (std::size_t pos = 0; pos < bytes.size(); pos += kBlockSize) {
    const ByteView piece =
        bytes.subspan(pos, std::min(kBlockSize, bytes.size() - pos));
    image.blocks_.push_back(nullptr);
    if (piece.size() == kBlockSize &&
        image.ShareIfUniform(image.blocks_.size() - 1, piece)) {
      continue;
    }
    image.blocks_.back() = std::make_shared<ImageBlock>();
    std::memcpy(image.blocks_.back()->bytes.data(), piece.data(),
                piece.size());
  }
  return image;
}

Bytes DeviceImage::ToBytes() const {
  Bytes out(size_);
  Read(0, out);
  return out;
}

void DeviceImage::Read(std::uint64_t offset,
                       std::span<std::uint8_t> out) const {
  Visit(offset, out.size(), [&](ByteView piece, std::uint64_t done) {
    std::memcpy(out.data() + done, piece.data(), piece.size());
  });
}

void DeviceImage::Write(std::uint64_t offset, ByteView data) {
  std::uint64_t done = 0;
  while (done < data.size()) {
    const std::uint64_t pos = offset + done;
    const std::size_t in_block = pos % kBlockSize;
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlockSize - in_block, data.size() - done));
    const ByteView piece = data.subspan(done, take);
    const std::size_t index = pos / kBlockSize;
    if (take != kBlockSize || !ShareIfUniform(index, piece)) {
      std::memcpy(MutBlock(index).bytes.data() + in_block, piece.data(),
                  take);
    }
    done += take;
  }
}

void DeviceImage::Fill(std::uint64_t offset, std::uint64_t length,
                       std::uint8_t value) {
  std::uint64_t done = 0;
  while (done < length) {
    const std::uint64_t pos = offset + done;
    const std::size_t in_block = pos % kBlockSize;
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlockSize - in_block, length - done));
    const std::size_t index = pos / kBlockSize;
    if (take == kBlockSize && IsSharedPattern(value)) {
      blocks_[index] = UniformBlock(value);
      has_digest_ = false;
    } else {
      std::memset(MutBlock(index).bytes.data() + in_block, value, take);
    }
    done += take;
  }
}

bool DeviceImage::ShareIfUniform(std::size_t i, ByteView piece) {
  if (!IsSharedPattern(piece[0]) || !IsUniform(piece)) return false;
  blocks_[i] = UniformBlock(piece[0]);
  has_digest_ = false;
  return true;
}

ImageBlock& DeviceImage::MutBlock(std::size_t i) {
  BlockPtr& block = blocks_[i];
  if (block.use_count() != 1) block = std::make_shared<ImageBlock>(*block);
  block->has_digest = false;
  has_digest_ = false;
  return *block;
}

Md5Digest DeviceImage::Digest() const {
  if (has_digest_) return digest_;
  Md5 md5;
  md5.UpdateU64(size_);
  // Feed the block digests in batches: one Update per 16-byte digest
  // would cost more than the hashing itself.
  constexpr std::size_t kBatch = 64;
  std::array<std::uint8_t, kBatch * sizeof(Md5Digest)> batch{};
  std::size_t filled = 0;
  for (const BlockPtr& block : blocks_) {
    if (!block->has_digest) {
      block->digest = Md5::Hash(ByteView(block->bytes));
      block->has_digest = true;
    }
    std::memcpy(batch.data() + filled, block->digest.bytes.data(),
                sizeof(Md5Digest));
    filled += sizeof(Md5Digest);
    if (filled == batch.size()) {
      md5.Update(ByteView(batch));
      filled = 0;
    }
  }
  md5.Update(ByteView(batch.data(), filled));
  digest_ = md5.Final();
  has_digest_ = true;
  return digest_;
}

std::size_t DeviceImage::SharedBlocks(const DeviceImage& other) const {
  const std::size_t n = std::min(blocks_.size(), other.blocks_.size());
  std::size_t shared = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (blocks_[i] == other.blocks_[i]) ++shared;
  }
  return shared;
}

bool operator==(const DeviceImage& a, const DeviceImage& b) {
  if (a.size_ != b.size_) return false;
  for (std::size_t i = 0; i < a.blocks_.size(); ++i) {
    if (a.blocks_[i] != b.blocks_[i] &&
        a.blocks_[i]->bytes != b.blocks_[i]->bytes) {
      return false;
    }
  }
  return true;
}

}  // namespace mcfs::storage
