// Block-shared device images.
//
// The paper's Spin setup tracks a kernel file system by copying the whole
// mmapped RAM device at every state save and restore (§3, §6). A
// DeviceImage keeps the same value semantics without the copies: the
// contents are a vector of refcounted 4 KB blocks, so copying an image
// copies pointers, and a write clones only the block it touches when
// another image still holds it (copy-on-write). The same type serves the
// live contents of RamDisk and MtdDevice, device snapshots, crash states
// (the durable image with in-flight writes overlaid) and recovery probes.
//
//   * Sharing is tracked by shared_ptr use counts, as in VeriFS's
//     CowBuffer (DESIGN.md §7.8): a block with use_count 1 belongs to one
//     image alone and is written in place; any other block is cloned
//     first, so a block reachable from a second image never changes.
//   * All-zero blocks (a fresh RAM disk) and all-0xff blocks (erased
//     flash) are one process-wide block each; whole-block writes of
//     either pattern point at it instead of holding a copy.
//   * Each block's digest is the MD5 of its 4 KB, computed on first need
//     and kept in the block. The image digest is the MD5 over the image
//     size and the block digests, so after a write only the touched
//     blocks are rehashed.
//
// A trailing partial block (a size that is not a multiple of 4 KB) keeps
// its bytes past the end zero, so block digests depend on contents only.
//
// Threading: an image and the images copied from it belong to one thread
// at a time. Only the two constant blocks are shared process-wide, and
// their digests are set before they are published.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/md5.h"

namespace mcfs::storage {

struct ImageBlock {
  static constexpr std::size_t kSize = 4096;

  std::array<std::uint8_t, kSize> bytes;
  // MD5 of `bytes`, valid while has_digest is set.
  mutable Md5Digest digest;
  mutable bool has_digest = false;
};

// Device state a decorator keeps beside the blocks and needs back on
// restore (CrashableDisk's durable image and in-flight journal). It rides
// in the image so one snapshot map holds every device's state.
class ImageAnnex {
 public:
  virtual ~ImageAnnex() = default;
};

class DeviceImage {
 public:
  static constexpr std::size_t kBlockSize = ImageBlock::kSize;

  DeviceImage() = default;
  // `size_bytes` bytes, every one equal to `fill`.
  DeviceImage(std::uint64_t size_bytes, std::uint8_t fill);

  static DeviceImage FromBytes(ByteView bytes);
  Bytes ToBytes() const;

  std::uint64_t size_bytes() const { return size_; }

  // Range access. The caller checks offset + length <= size_bytes().
  void Read(std::uint64_t offset, std::span<std::uint8_t> out) const;
  void Write(std::uint64_t offset, ByteView data);
  void Fill(std::uint64_t offset, std::uint64_t length, std::uint8_t value);

  // Calls f(ByteView piece, std::uint64_t done) for each in-block piece
  // of [offset, offset + length), in order; `done` counts earlier bytes.
  template <typename F>
  void Visit(std::uint64_t offset, std::uint64_t length, F&& f) const {
    std::uint64_t done = 0;
    while (done < length) {
      const std::uint64_t pos = offset + done;
      const std::size_t in_block = pos % kBlockSize;
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(kBlockSize - in_block, length - done));
      f(ByteView(blocks_[pos / kBlockSize]->bytes.data() + in_block, take),
        done);
      done += take;
    }
  }

  // Like Visit, but hands out writable pieces, cloning shared blocks.
  template <typename F>
  void Modify(std::uint64_t offset, std::uint64_t length, F&& f) {
    std::uint64_t done = 0;
    while (done < length) {
      const std::uint64_t pos = offset + done;
      const std::size_t in_block = pos % kBlockSize;
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(kBlockSize - in_block, length - done));
      ImageBlock& block = MutBlock(pos / kBlockSize);
      f(std::span<std::uint8_t>(block.bytes.data() + in_block, take), done);
      done += take;
    }
  }

  // MD5 over the size and every block digest; cached until a write.
  Md5Digest Digest() const;

  // Blocks at the same index held by both images (no copy between them).
  std::size_t SharedBlocks(const DeviceImage& other) const;

  const std::shared_ptr<const ImageAnnex>& annex() const { return annex_; }
  void set_annex(std::shared_ptr<const ImageAnnex> annex) {
    annex_ = std::move(annex);
  }

  // Contents equality; the annex is not compared.
  friend bool operator==(const DeviceImage& a, const DeviceImage& b);

 private:
  using BlockPtr = std::shared_ptr<ImageBlock>;

  // Points block i at the shared constant block when `piece` is a whole
  // block of 0x00 or 0xff; returns false (and changes nothing) otherwise.
  bool ShareIfUniform(std::size_t i, ByteView piece);
  ImageBlock& MutBlock(std::size_t i);

  std::vector<BlockPtr> blocks_;
  std::uint64_t size_ = 0;
  mutable Md5Digest digest_;
  mutable bool has_digest_ = false;
  std::shared_ptr<const ImageAnnex> annex_;
};

}  // namespace mcfs::storage
