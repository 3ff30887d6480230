// Self-contained MD5 (RFC 1321), for content fingerprints.
//
// The campaign tooling pins per-shard determinism by hashing rollup and
// spill files; the bench harness compares those hashes against the md5s
// run_bench.py computes with Python's hashlib, so the digest must be real
// MD5, not a homegrown hash. Not for security — for fingerprinting only.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace rv::util {

class Md5 {
 public:
  Md5();

  void update(const void* data, std::size_t len);
  void update(std::string_view s) { update(s.data(), s.size()); }

  // Finalizes and returns the 16 digest bytes. The object is consumed:
  // further updates are invalid.
  std::array<std::uint8_t, 16> digest();
  // Finalizes and returns the digest as 32 lowercase hex chars.
  std::string hex_digest();

 private:
  void process_block(const std::uint8_t* block);

  std::uint32_t state_[4];
  std::uint64_t total_bytes_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;
};

// One-shot digest of a buffer.
std::string md5_hex(std::string_view data);

// Digest of a file's bytes (streamed). Empty string when the file cannot
// be opened.
std::string md5_file_hex(const std::string& path);

}  // namespace rv::util
