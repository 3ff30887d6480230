#include "util/md5.h"

#include <cstring>
#include <fstream>

namespace rv::util {
namespace {

// Per-round shift amounts and the binary-radian sine table from RFC 1321.
constexpr std::uint32_t kShift[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

constexpr std::uint32_t kSine[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

std::uint32_t rotl(std::uint32_t x, std::uint32_t n) {
  return (x << n) | (x >> (32 - n));
}

}  // namespace

Md5::Md5() {
  state_[0] = 0x67452301;
  state_[1] = 0xefcdab89;
  state_[2] = 0x98badcfe;
  state_[3] = 0x10325476;
}

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<std::uint32_t>(block[i * 4]) |
           static_cast<std::uint32_t>(block[i * 4 + 1]) << 8 |
           static_cast<std::uint32_t>(block[i * 4 + 2]) << 16 |
           static_cast<std::uint32_t>(block[i * 4 + 3]) << 24;
  }
  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  for (int i = 0; i < 64; ++i) {
    std::uint32_t f;
    int g;
    if (i < 16) {
      f = (b & c) | (~b & d);
      g = i;
    } else if (i < 32) {
      f = (d & b) | (~d & c);
      g = (5 * i + 1) & 15;
    } else if (i < 48) {
      f = b ^ c ^ d;
      g = (3 * i + 5) & 15;
    } else {
      f = c ^ (b | ~d);
      g = (7 * i) & 15;
    }
    const std::uint32_t tmp = d;
    d = c;
    c = b;
    b = b + rotl(a + f + kSine[i] + m[g], kShift[i]);
    a = tmp;
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_bytes_ += len;
  if (buffered_ > 0) {
    const std::size_t take = std::min(len, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    len -= take;
    if (buffered_ < sizeof(buffer_)) return;
    process_block(buffer_);
    buffered_ = 0;
  }
  while (len >= 64) {
    process_block(p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffered_ = len;
  }
}

std::array<std::uint8_t, 16> Md5::digest() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  const std::uint8_t pad_byte = 0x80;
  update(&pad_byte, 1);
  const std::uint8_t zero = 0;
  while (buffered_ != 56) update(&zero, 1);
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  update(len_bytes, 8);

  std::array<std::uint8_t, 16> out;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(state_[i / 4] >> (8 * (i % 4)));
  }
  return out;
}

std::string Md5::hex_digest() {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (const std::uint8_t v : digest()) {
    out.push_back(hex[v >> 4]);
    out.push_back(hex[v & 15]);
  }
  return out;
}

std::string md5_hex(std::string_view data) {
  Md5 md5;
  md5.update(data);
  return md5.hex_digest();
}

std::string md5_file_hex(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return {};
  Md5 md5;
  char buf[1 << 16];
  while (is) {
    is.read(buf, sizeof(buf));
    md5.update(buf, static_cast<std::size_t>(is.gcount()));
  }
  return md5.hex_digest();
}

}  // namespace rv::util
