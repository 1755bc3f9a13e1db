#include "util/md5.h"

#include <cassert>
#include <cstring>

namespace mcfs {
namespace {

constexpr std::uint32_t kInit[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                                    0x10325476u};

constexpr std::uint32_t Rotl(std::uint32_t x, int c) {
  return (x << c) | (x >> (32 - c));
}

}  // namespace

std::uint64_t Md5Digest::lo64() const {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
  return v;
}

std::uint64_t Md5Digest::hi64() const {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes[8 + i]) << (8 * i);
  }
  return v;
}

std::string Md5Digest::ToHex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (std::uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

Md5::Md5() {
  state_ = {kInit[0], kInit[1], kInit[2], kInit[3]};
}

void Md5::Update(ByteView data) {
  assert(!finalized_);
  if (data.empty()) return;  // empty spans have a null data()
  bit_count_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t offset = 0;
  // Fill any partially buffered block first.
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == 64) {
      ProcessBlock(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    ProcessBlock(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

void Md5::UpdateU64(std::uint64_t v) {
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  Update(ByteView(le, 8));
}

Md5Digest Md5::Final() {
  assert(!finalized_);
  finalized_ = true;

  const std::uint64_t length_bits = bit_count_;
  // Append 0x80, then zero padding to 56 mod 64, then the 64-bit length.
  static constexpr std::uint8_t kPad[64] = {0x80};
  const std::size_t pad_len =
      (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  finalized_ = false;  // allow the padding Updates below
  std::uint64_t saved_bits = bit_count_;
  Update(ByteView(kPad, pad_len));
  std::uint8_t len_le[8];
  for (int i = 0; i < 8; ++i) {
    len_le[i] = static_cast<std::uint8_t>(length_bits >> (8 * i));
  }
  Update(ByteView(len_le, 8));
  bit_count_ = saved_bits;  // irrelevant now, kept tidy
  finalized_ = true;

  Md5Digest digest;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      digest.bytes[i * 4 + j] =
          static_cast<std::uint8_t>(state_[i] >> (8 * j));
    }
  }
  return digest;
}

// RFC 1321 round functions. F and G are written in their select forms
// (z ^ (x & (y ^ z)) == (x & y) | (~x & z)), which need no NOT.
#define MD5_F(x, y, z) ((z) ^ ((x) & ((y) ^ (z))))
#define MD5_G(x, y, z) ((y) ^ ((z) & ((x) ^ (y))))
#define MD5_H(x, y, z) ((x) ^ (y) ^ (z))
#define MD5_I(x, y, z) ((y) ^ ((x) | ~(z)))

// One step: a = b + ((a + f(b, c, d) + m[k] + t) <<< s). The message index
// k, the shift s and the sine constant t are literals in every expansion.
#define MD5_STEP(f, a, b, c, d, k, s, t) \
  (a) = (b) + Rotl((a) + f((b), (c), (d)) + m[k] + (t), (s))

void Md5::ProcessBlock(const std::uint8_t block[64]) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<std::uint32_t>(block[i * 4]) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 8) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 3]) << 24);
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];

  // Round 1: m[i].
  MD5_STEP(MD5_F, a, b, c, d, 0, 7, 0xd76aa478u);
  MD5_STEP(MD5_F, d, a, b, c, 1, 12, 0xe8c7b756u);
  MD5_STEP(MD5_F, c, d, a, b, 2, 17, 0x242070dbu);
  MD5_STEP(MD5_F, b, c, d, a, 3, 22, 0xc1bdceeeu);
  MD5_STEP(MD5_F, a, b, c, d, 4, 7, 0xf57c0fafu);
  MD5_STEP(MD5_F, d, a, b, c, 5, 12, 0x4787c62au);
  MD5_STEP(MD5_F, c, d, a, b, 6, 17, 0xa8304613u);
  MD5_STEP(MD5_F, b, c, d, a, 7, 22, 0xfd469501u);
  MD5_STEP(MD5_F, a, b, c, d, 8, 7, 0x698098d8u);
  MD5_STEP(MD5_F, d, a, b, c, 9, 12, 0x8b44f7afu);
  MD5_STEP(MD5_F, c, d, a, b, 10, 17, 0xffff5bb1u);
  MD5_STEP(MD5_F, b, c, d, a, 11, 22, 0x895cd7beu);
  MD5_STEP(MD5_F, a, b, c, d, 12, 7, 0x6b901122u);
  MD5_STEP(MD5_F, d, a, b, c, 13, 12, 0xfd987193u);
  MD5_STEP(MD5_F, c, d, a, b, 14, 17, 0xa679438eu);
  MD5_STEP(MD5_F, b, c, d, a, 15, 22, 0x49b40821u);

  // Round 2: m[(5i + 1) mod 16].
  MD5_STEP(MD5_G, a, b, c, d, 1, 5, 0xf61e2562u);
  MD5_STEP(MD5_G, d, a, b, c, 6, 9, 0xc040b340u);
  MD5_STEP(MD5_G, c, d, a, b, 11, 14, 0x265e5a51u);
  MD5_STEP(MD5_G, b, c, d, a, 0, 20, 0xe9b6c7aau);
  MD5_STEP(MD5_G, a, b, c, d, 5, 5, 0xd62f105du);
  MD5_STEP(MD5_G, d, a, b, c, 10, 9, 0x02441453u);
  MD5_STEP(MD5_G, c, d, a, b, 15, 14, 0xd8a1e681u);
  MD5_STEP(MD5_G, b, c, d, a, 4, 20, 0xe7d3fbc8u);
  MD5_STEP(MD5_G, a, b, c, d, 9, 5, 0x21e1cde6u);
  MD5_STEP(MD5_G, d, a, b, c, 14, 9, 0xc33707d6u);
  MD5_STEP(MD5_G, c, d, a, b, 3, 14, 0xf4d50d87u);
  MD5_STEP(MD5_G, b, c, d, a, 8, 20, 0x455a14edu);
  MD5_STEP(MD5_G, a, b, c, d, 13, 5, 0xa9e3e905u);
  MD5_STEP(MD5_G, d, a, b, c, 2, 9, 0xfcefa3f8u);
  MD5_STEP(MD5_G, c, d, a, b, 7, 14, 0x676f02d9u);
  MD5_STEP(MD5_G, b, c, d, a, 12, 20, 0x8d2a4c8au);

  // Round 3: m[(3i + 5) mod 16].
  MD5_STEP(MD5_H, a, b, c, d, 5, 4, 0xfffa3942u);
  MD5_STEP(MD5_H, d, a, b, c, 8, 11, 0x8771f681u);
  MD5_STEP(MD5_H, c, d, a, b, 11, 16, 0x6d9d6122u);
  MD5_STEP(MD5_H, b, c, d, a, 14, 23, 0xfde5380cu);
  MD5_STEP(MD5_H, a, b, c, d, 1, 4, 0xa4beea44u);
  MD5_STEP(MD5_H, d, a, b, c, 4, 11, 0x4bdecfa9u);
  MD5_STEP(MD5_H, c, d, a, b, 7, 16, 0xf6bb4b60u);
  MD5_STEP(MD5_H, b, c, d, a, 10, 23, 0xbebfbc70u);
  MD5_STEP(MD5_H, a, b, c, d, 13, 4, 0x289b7ec6u);
  MD5_STEP(MD5_H, d, a, b, c, 0, 11, 0xeaa127fau);
  MD5_STEP(MD5_H, c, d, a, b, 3, 16, 0xd4ef3085u);
  MD5_STEP(MD5_H, b, c, d, a, 6, 23, 0x04881d05u);
  MD5_STEP(MD5_H, a, b, c, d, 9, 4, 0xd9d4d039u);
  MD5_STEP(MD5_H, d, a, b, c, 12, 11, 0xe6db99e5u);
  MD5_STEP(MD5_H, c, d, a, b, 15, 16, 0x1fa27cf8u);
  MD5_STEP(MD5_H, b, c, d, a, 2, 23, 0xc4ac5665u);

  // Round 4: m[7i mod 16].
  MD5_STEP(MD5_I, a, b, c, d, 0, 6, 0xf4292244u);
  MD5_STEP(MD5_I, d, a, b, c, 7, 10, 0x432aff97u);
  MD5_STEP(MD5_I, c, d, a, b, 14, 15, 0xab9423a7u);
  MD5_STEP(MD5_I, b, c, d, a, 5, 21, 0xfc93a039u);
  MD5_STEP(MD5_I, a, b, c, d, 12, 6, 0x655b59c3u);
  MD5_STEP(MD5_I, d, a, b, c, 3, 10, 0x8f0ccc92u);
  MD5_STEP(MD5_I, c, d, a, b, 10, 15, 0xffeff47du);
  MD5_STEP(MD5_I, b, c, d, a, 1, 21, 0x85845dd1u);
  MD5_STEP(MD5_I, a, b, c, d, 8, 6, 0x6fa87e4fu);
  MD5_STEP(MD5_I, d, a, b, c, 15, 10, 0xfe2ce6e0u);
  MD5_STEP(MD5_I, c, d, a, b, 6, 15, 0xa3014314u);
  MD5_STEP(MD5_I, b, c, d, a, 13, 21, 0x4e0811a1u);
  MD5_STEP(MD5_I, a, b, c, d, 4, 6, 0xf7537e82u);
  MD5_STEP(MD5_I, d, a, b, c, 11, 10, 0xbd3af235u);
  MD5_STEP(MD5_I, c, d, a, b, 2, 15, 0x2ad7d2bbu);
  MD5_STEP(MD5_I, b, c, d, a, 9, 21, 0xeb86d391u);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

#undef MD5_STEP
#undef MD5_I
#undef MD5_H
#undef MD5_G
#undef MD5_F

Md5Digest Md5::Hash(ByteView data) {
  Md5 ctx;
  ctx.Update(data);
  return ctx.Final();
}

}  // namespace mcfs
