// The one little-endian byte codec behind every on-disk format: the study
// cache (RVST), the columnar spill (RVSP) and the shard rollup (RVRU).
//
// ByteWriter appends to a std::string; ByteReader is a bounds-checked cursor
// over a string_view with the same primitives. A format lists its fields
// once, in a template `fields(IO& io, CodecRef<IO, T> obj)` that serves both
// directions: with a writer the calls emit the fields, with a reader they
// fill them. Where the directions differ (a validated bound, an object built
// from decoded parts) the field list branches on `IO::kReads`.
//
// Reader failure is sticky: the first short read, string longer than the
// bytes that remain, bool byte other than 0/1, enum value past its count,
// count over its bound, or explicit fail() clears ok() for good; later
// reads yield zero and do not move the cursor, so a field list checks ok()
// once, at the end.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/symbol.h"

namespace rv::util {

static_assert(std::endian::native == std::endian::little,
              "the byte codec copies object bytes and assumes a "
              "little-endian host");

// Coded as their fixed-width object bytes: integers, enums (their
// underlying type), bool (one byte, 0 or 1) and double (IEEE-754 bits).
template <typename T>
concept FixedWidth = std::is_arithmetic_v<T> || std::is_enum_v<T>;

// What a field list sees: const when writing, mutable when reading.
template <typename IO, typename T>
using CodecRef = std::conditional_t<IO::kReads, T&, const T&>;

class ByteWriter {
 public:
  static constexpr bool kReads = false;

  ByteWriter() = default;
  // With a sink, the buffer drains into it whenever a sequence element ends
  // past kFlushBytes, so a large document streams in bounded memory; call
  // flush() after the last field.
  explicit ByteWriter(std::ostream& sink) : sink_(&sink) {}

  static constexpr std::size_t kFlushBytes = 1 << 16;

  template <FixedWidth T>
  void fixed(const T& v) {
    char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    out_.append(b, sizeof(T));
  }
  // Writes `want`; the reader's twin fails unless it reads `want` back.
  template <FixedWidth T>
  void expect(const T& want) {
    fixed(want);
  }
  // u32 byte length, then the bytes.
  void str(std::string_view s) {
    fixed(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }
  void sym(Symbol s) { str(s.str()); }
  // LEB128: seven bits per byte, low group first, high bit = more follows.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<char>((v & 0x7F) | 0x80));
      v >>= 7;
    }
    out_.push_back(static_cast<char>(v));
  }
  // Packs bools eight to a byte, least significant bit first.
  void bit(bool b) {
    if (bit_fill_ == 0) out_.push_back(0);
    if (b) out_.back() = static_cast<char>(out_.back() | (1 << bit_fill_));
    bit_fill_ = (bit_fill_ + 1) % 8;
  }

  // u32 element count, then each element through `each`. `max` bounds the
  // reader only.
  template <typename T, typename Each>
  void seq(const std::vector<T>& v, std::uint32_t /*max*/, Each each) {
    fixed(static_cast<std::uint32_t>(v.size()));
    for (const T& x : v) {
      each(x);
      drain_if_full();
    }
  }
  // u32 entry count, then each entry as its str() key and `each(value)`.
  template <typename V, typename Each>
  void map(const std::map<std::string, V>& m, std::uint32_t /*max*/,
           Each each) {
    fixed(static_cast<std::uint32_t>(m.size()));
    for (const auto& [key, value] : m) {
      str(key);
      each(value);
    }
  }

  const std::string& bytes() const { return out_; }
  std::string take() {
    bit_fill_ = 0;
    return std::move(out_);
  }
  // Drains the buffer into the sink; false when the sink has failed.
  bool flush() {
    if (sink_ == nullptr) return true;
    sink_->write(out_.data(), static_cast<std::streamsize>(out_.size()));
    out_.clear();
    return sink_->good();
  }

 private:
  void drain_if_full() {
    if (sink_ != nullptr && out_.size() >= kFlushBytes) flush();
  }

  std::string out_;
  std::ostream* sink_ = nullptr;
  int bit_fill_ = 0;
};

class ByteReader {
 public:
  static constexpr bool kReads = true;

  ByteReader() = default;
  explicit ByteReader(std::string_view bytes)
      : begin_(bytes.data()),
        p_(bytes.data()),
        end_(bytes.data() + bytes.size()) {}

  template <FixedWidth T>
  void fixed(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      const auto b = fixed<std::uint8_t>();
      if (b > 1) fail();
      v = b == 1;
    } else if constexpr (std::is_enum_v<T>) {
      enum_as<std::make_unsigned_t<std::underlying_type_t<T>>>(v);
    } else {
      v = T{};
      if (take(sizeof(T))) std::memcpy(&v, p_ - sizeof(T), sizeof(T));
    }
  }
  template <FixedWidth T>
  T fixed() {
    T v;
    fixed(v);
    return v;
  }
  template <FixedWidth T>
  void expect(const T& want) {
    if (fixed<T>() != want) fail();
  }
  // An enum coded as the unsigned wire integer W. `enum_count(E{})`,
  // declared beside the enum, is one past its last value; a value at or
  // past it fails the read.
  template <std::unsigned_integral W, typename E>
    requires requires(E e) { enum_count(e); }
  void enum_as(E& e) {
    const W w = fixed<W>();
    if (w >= enum_count(E{})) fail();
    e = ok_ ? static_cast<E>(w) : E{};
  }
  void str(std::string& s) { s.assign(view(fixed<std::uint32_t>())); }
  void sym(Symbol& s) {
    const std::string_view v = view(fixed<std::uint32_t>());
    if (ok_) s = Symbol(v);
  }
  std::uint64_t varint() {
    const char* start = p_;
    std::uint64_t v = 0;
    for (int shift = 0; ok_ && p_ < end_ && shift < 64; shift += 7) {
      const auto byte = static_cast<std::uint8_t>(*p_++);
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    p_ = start;
    fail();
    return 0;
  }
  bool bit() {
    if (bit_fill_ == 0) bit_byte_ = fixed<std::uint8_t>();
    if (!ok_) return false;
    const bool b = (bit_byte_ >> bit_fill_) & 1;
    bit_fill_ = (bit_fill_ + 1) % 8;
    return b;
  }

  // Every element codes to at least one byte, so a count past the bytes
  // that remain is corrupt, whatever `max` allows.
  template <typename T, typename Each>
  void seq(std::vector<T>& v, std::uint32_t max, Each each) {
    v.clear();
    const std::uint32_t n = count(max);
    if (!ok_) return;
    v.resize(n);
    for (T& x : v) {
      each(x);
      if (!ok_) return;
    }
  }
  template <typename V, typename Each>
  void map(std::map<std::string, V>& m, std::uint32_t max, Each each) {
    m.clear();
    const std::uint32_t n = count(max);
    for (std::uint32_t i = 0; i < n && ok_; ++i) {
      std::string key;
      str(key);
      V value;
      each(value);
      if (ok_) m.emplace(std::move(key), std::move(value));
    }
  }

  bool ok() const { return ok_; }
  void fail() { ok_ = false; }
  // Offset of the cursor: after a failure, where the failing read began.
  std::size_t pos() const { return static_cast<std::size_t>(p_ - begin_); }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool at_end() const { return ok_ && p_ == end_; }

 private:
  bool take(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    p_ += n;
    return true;
  }
  std::string_view view(std::size_t n) {
    if (!take(n)) return {};
    return {p_ - n, n};
  }
  std::uint32_t count(std::uint32_t max) {
    const auto n = fixed<std::uint32_t>();
    if (n > max || n > remaining()) fail();
    return ok_ ? n : 0;
  }

  const char* begin_ = nullptr;
  const char* p_ = nullptr;
  const char* end_ = nullptr;
  bool ok_ = true;
  std::uint8_t bit_byte_ = 0;
  int bit_fill_ = 0;
};

// Codes `v` as the wire type W: the writer narrows or widens on the way
// out, the reader casts back.
template <FixedWidth W, typename IO, typename T>
void fixed_as(IO& io, T& v) {
  W w = static_cast<W>(v);
  io.fixed(w);
  if constexpr (IO::kReads) v = static_cast<T>(w);
}

// The whole of a file's bytes; false when it cannot be opened or read.
inline bool read_file(const std::string& path, std::string& out) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  const std::streamsize size = is ? static_cast<std::streamsize>(is.tellg()) : -1;
  if (size < 0) return false;
  out.resize(static_cast<std::size_t>(size));
  is.seekg(0);
  is.read(out.data(), size);
  return is.gcount() == size;
}

}  // namespace rv::util
