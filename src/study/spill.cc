#include "study/spill.h"

#include <array>
#include <bit>
#include <string_view>

#include "util/bytes.h"
#include "util/check.h"

namespace rv::study {
namespace {

// File layout:
//   header:  u32 magic "RVSP", u32 version
//   frames:  repeated { u32 record_count, u32 column_count,
//                       column_count × u32 byte-length, payloads }
//   footer:  u32 string_count, { u32 len, bytes }...,
//            u32 frame_count, { u64 offset, u64 first, u32 count }...
//   trailer: u64 footer_offset, u32 magic "RVSE"
constexpr std::uint32_t kMagic = 0x50535652;     // "RVSP" little-endian
constexpr std::uint32_t kEndMagic = 0x45535652;  // "RVSE"
constexpr std::uint32_t kVersion = 1;

// Column order within a frame. Fixed by the version: readers decode
// positionally, and determinism of the file bytes depends on it.
enum Column : std::size_t {
  kColUserId = 0,
  kColClipId,
  kColSite,
  kColRtspRetries,
  kColRebufferEvents,
  kColFramesPlayed,
  kColFramesDropped,
  kColFramesCpuScaled,
  kColBytesReceived,
  kColPacketsReceived,
  kColRepairsReceived,
  kColSampleCount,
  kColEnums,   // user_group, connection, server_group, protocol (u8 each)
  kColBools,   // bit-packed flags
  kColSymbols, // country, us_state, pc_class, server_name, server_country
  kColRating,
  kColEncodedBandwidth,
  kColEncodedFps,
  kColMeasuredBandwidth,
  kColMeasuredFps,
  kColJitterMs,
  kColRebufferSeconds,
  kColPrerollSeconds,
  kColPlaySeconds,
  kColCpuUtilization,
  kColSampleT,
  kColSampleBandwidth,
  kColSampleFps,
  kColumnCount,
};

using util::CodecRef;
using ColumnLengths = std::array<std::uint32_t, kColumnCount>;

// A frame's header: its record count, the column count and each column's
// payload byte length.
template <typename IO>
void frame_header(IO& io, CodecRef<IO, std::uint32_t> records,
                  CodecRef<IO, ColumnLengths> lengths) {
  io.fixed(records);
  io.expect(static_cast<std::uint32_t>(kColumnCount));
  for (auto& len : lengths) io.fixed(len);
}
constexpr std::size_t kFrameHeaderBytes = 4 * (2 + kColumnCount);

// Frame codecs: one column buffer each, plus the previous value each
// delta/XOR column codes against. `columns()` walks a record through either.
class FrameWriter {
 public:
  static constexpr bool kReads = false;

  FrameWriter(std::unordered_map<std::uint32_t, std::uint32_t>& local_ids,
              std::vector<std::string>& strings)
      : local_ids_(local_ids), strings_(strings) {}

  // Zigzag varint of the delta from the previous value: monotone-ish
  // columns (user_id, clip_id) collapse to one byte per record. Deltas wrap
  // in u64, so no value can overflow.
  template <typename T>
  void delta(Column c, const T& v) {
    const auto u = static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
    const auto d = static_cast<std::int64_t>(u - prev_[c]);
    cols_[c].varint((static_cast<std::uint64_t>(d) << 1) ^
                    static_cast<std::uint64_t>(d >> 63));
    prev_[c] = u;
  }
  // XOR-with-previous varint of the bits: repeated doubles (all-zero
  // columns for plays that never established) code as one byte;
  // slowly-varying mantissas share their high bytes.
  void bits(Column c, double v) {
    const auto b = std::bit_cast<std::uint64_t>(v);
    cols_[c].varint(b ^ prev_[c]);
    prev_[c] = b;
  }
  template <typename E>
  void byte(Column c, const E& e) {
    cols_[c].fixed(static_cast<std::uint8_t>(e));
  }
  void bit(Column c, bool b) { cols_[c].bit(b); }
  // Pooled ids through the file-local, first-appearance string table.
  void symbol(Column c, util::Symbol s) {
    const auto [it, inserted] = local_ids_.emplace(
        s.id(), static_cast<std::uint32_t>(strings_.size()));
    if (inserted) strings_.push_back(s.str());
    cols_[c].varint(it->second);
  }
  template <typename T>
  void resize(const std::vector<T>&, std::int64_t, Column) {}

  // The frame header, then the column payloads in column order.
  std::string finish(std::uint32_t records) {
    ColumnLengths lengths;
    for (std::size_t c = 0; c < kColumnCount; ++c) {
      lengths[c] = static_cast<std::uint32_t>(cols_[c].bytes().size());
    }
    util::ByteWriter out;
    frame_header(out, records, lengths);
    std::string frame = out.take();
    for (const auto& col : cols_) frame.append(col.bytes());
    return frame;
  }

 private:
  util::ByteWriter cols_[kColumnCount];
  std::uint64_t prev_[kColumnCount] = {};
  std::unordered_map<std::uint32_t, std::uint32_t>& local_ids_;
  std::vector<std::string>& strings_;
};

class FrameReader {
 public:
  static constexpr bool kReads = true;

  explicit FrameReader(const std::vector<std::string>& strings)
      : strings_(strings) {}

  // Splits a frame's payload blob by the column byte lengths.
  void open(std::string_view blob, const ColumnLengths& lengths) {
    for (std::size_t c = 0; c < kColumnCount; ++c) {
      cols_[c] = util::ByteReader(blob.substr(0, lengths[c]));
      blob.remove_prefix(lengths[c]);
    }
  }

  template <typename T>
  void delta(Column c, T& v) {
    const std::uint64_t z = cols_[c].varint();
    const auto d = static_cast<std::int64_t>(z >> 1) ^
                   -static_cast<std::int64_t>(z & 1);
    prev_[c] += static_cast<std::uint64_t>(d);
    v = static_cast<T>(static_cast<std::int64_t>(prev_[c]));
  }
  void bits(Column c, double& v) {
    prev_[c] ^= cols_[c].varint();
    v = std::bit_cast<double>(prev_[c]);
  }
  template <typename E>
  void byte(Column c, E& e) {
    cols_[c].enum_as<std::uint8_t>(e);
  }
  void bit(Column c, bool& b) { b = cols_[c].bit(); }
  void symbol(Column c, util::Symbol& s) {
    const std::uint64_t local = cols_[c].varint();
    if (local < strings_.size()) {
      s = util::Symbol(strings_[static_cast<std::size_t>(local)]);
    } else {
      cols_[c].fail();
    }
  }
  // Sizes `v` to a decoded count; each element codes at least one byte of
  // column `data`, so a count past its remaining bytes is corrupt.
  template <typename T>
  void resize(std::vector<T>& v, std::int64_t n, Column data) {
    if (n < 0 || static_cast<std::uint64_t>(n) > cols_[data].remaining()) {
      cols_[data].fail();
      return;
    }
    v.resize(static_cast<std::size_t>(n));
  }

  bool ok() const {
    for (const auto& col : cols_) {
      if (!col.ok()) return false;
    }
    return true;
  }

 private:
  util::ByteReader cols_[kColumnCount];
  std::uint64_t prev_[kColumnCount] = {};
  const std::vector<std::string>& strings_;
};

// The RVSP column table: which column each record field codes into, and
// in what order. The shared enum, bool and symbol columns interleave their
// fields per record in the order listed here.
template <typename F>
void columns(F& f, CodecRef<F, tracer::TraceRecord> rec) {
  auto& st = rec.stats;
  f.delta(kColUserId, rec.user_id);
  f.delta(kColClipId, rec.clip_id);
  f.delta(kColSite, rec.site);
  f.delta(kColRtspRetries, st.rtsp_retries);
  f.delta(kColRebufferEvents, st.rebuffer_events);
  f.delta(kColFramesPlayed, st.frames_played);
  f.delta(kColFramesDropped, st.frames_dropped);
  f.delta(kColFramesCpuScaled, st.frames_cpu_scaled);
  f.delta(kColBytesReceived, st.bytes_received);
  f.delta(kColPacketsReceived, st.packets_received);
  f.delta(kColRepairsReceived, st.repairs_received);
  auto n_samples = static_cast<std::int64_t>(st.samples.size());
  f.delta(kColSampleCount, n_samples);
  f.byte(kColEnums, rec.user_group);
  f.byte(kColEnums, rec.connection);
  f.byte(kColEnums, rec.server_group);
  f.byte(kColEnums, st.protocol);
  f.bit(kColBools, rec.rtsp_blocked_user);
  f.bit(kColBools, rec.available);
  f.bit(kColBools, st.session_established);
  f.bit(kColBools, st.played_any_frame);
  f.bit(kColBools, st.fell_back_to_tcp);
  f.bit(kColBools, st.fell_back_to_http);
  f.symbol(kColSymbols, rec.country);
  f.symbol(kColSymbols, rec.us_state);
  f.symbol(kColSymbols, rec.pc_class);
  f.symbol(kColSymbols, rec.server_name);
  f.symbol(kColSymbols, rec.server_country);
  f.bits(kColRating, rec.rating);
  f.bits(kColEncodedBandwidth, st.encoded_bandwidth);
  f.bits(kColEncodedFps, st.encoded_fps);
  f.bits(kColMeasuredBandwidth, st.measured_bandwidth);
  f.bits(kColMeasuredFps, st.measured_fps);
  f.bits(kColJitterMs, st.jitter_ms);
  f.bits(kColRebufferSeconds, st.rebuffer_seconds);
  f.bits(kColPrerollSeconds, st.preroll_seconds);
  f.bits(kColPlaySeconds, st.play_seconds);
  f.bits(kColCpuUtilization, st.cpu_utilization);
  f.resize(st.samples, n_samples, kColSampleT);
  for (auto& s : st.samples) {
    f.bits(kColSampleT, s.t_seconds);
    f.bits(kColSampleBandwidth, s.bandwidth);
    f.bits(kColSampleFps, s.frame_rate);
  }
}

// The footer: the string table, then one index entry per frame.
template <typename IO>
void footer(IO& io, CodecRef<IO, std::vector<std::string>> strings,
            CodecRef<IO, std::vector<SpillFrame>> index) {
  io.seq(strings, 1u << 20, [&io](auto& s) { io.str(s); });
  io.seq(index, UINT32_MAX, [&io](auto& e) {
    io.fixed(e.offset);
    io.fixed(e.first_record);
    io.fixed(e.record_count);
  });
}

// The last 12 bytes: where the footer starts, and the end magic.
template <typename IO>
void trailer(IO& io, CodecRef<IO, std::uint64_t> footer_offset) {
  io.fixed(footer_offset);
  io.expect(kEndMagic);
}

// Exactly `n` bytes at `offset`, read into `buf`; empty on a short read.
std::string_view read_at(std::ifstream& is, std::uint64_t offset,
                         std::size_t n, std::string& buf) {
  is.clear();
  is.seekg(static_cast<std::streamoff>(offset));
  buf.resize(n);
  is.read(buf.data(), static_cast<std::streamsize>(n));
  if (is.gcount() != static_cast<std::streamsize>(n)) return {};
  return buf;
}

}  // namespace

SpillWriter::SpillWriter(const std::string& path)
    : os_(path, std::ios::binary | std::ios::trunc) {
  ok_ = os_.good();
  if (!ok_) return;
  util::ByteWriter header;
  header.fixed(kMagic);
  header.fixed(kVersion);
  os_.write(header.bytes().data(),
            static_cast<std::streamsize>(header.bytes().size()));
  ok_ = os_.good();
  bytes_written_ = header.bytes().size();
  frame_.reserve(kSpillFrameRecords);
}

SpillWriter::~SpillWriter() { finish(); }

void SpillWriter::append(const tracer::TraceRecord& rec) {
  if (!ok_ || finished_) return;
  frame_.push_back(rec);
  // obs/telemetry payloads are in-memory only; drop them so a buffered frame
  // costs what the columns cost, not what tracing costs.
  frame_.back().obs = obs::PlayObs{};
  frame_.back().series = telemetry::PlaySeries{};
  ++records_;
  if (frame_.size() >= kSpillFrameRecords) flush_frame();
}

void SpillWriter::flush_frame() {
  if (frame_.empty()) return;
  FrameWriter f(symbol_to_local_, strings_);
  for (const auto& rec : frame_) columns(f, rec);
  const std::string out = f.finish(static_cast<std::uint32_t>(frame_.size()));

  SpillFrame entry;
  entry.offset = static_cast<std::uint64_t>(os_.tellp());
  entry.first_record = records_ - frame_.size();
  entry.record_count = static_cast<std::uint32_t>(frame_.size());
  os_.write(out.data(), static_cast<std::streamsize>(out.size()));
  ok_ = ok_ && os_.good();
  bytes_written_ = entry.offset + out.size();
  index_.push_back(entry);
  frame_.clear();
}

bool SpillWriter::finish() {
  if (finished_) return ok_;
  if (!ok_) {
    finished_ = true;
    return false;
  }
  flush_frame();
  auto footer_offset = static_cast<std::uint64_t>(os_.tellp());
  util::ByteWriter w;
  footer(w, strings_, index_);
  trailer(w, footer_offset);
  os_.write(w.bytes().data(), static_cast<std::streamsize>(w.bytes().size()));
  os_.flush();
  ok_ = ok_ && os_.good();
  bytes_written_ = footer_offset + w.bytes().size();
  finished_ = true;
  os_.close();
  return ok_;
}

bool SpillReader::open(const std::string& path) {
  ok_ = false;
  error_.clear();
  records_ = 0;
  strings_.clear();
  index_.clear();
  is_.close();
  is_.clear();
  is_.open(path, std::ios::binary);
  if (!is_.good()) {
    error_ = "cannot open spill file: " + path;
    return false;
  }
  std::string buf;
  util::ByteReader header(read_at(is_, 0, 8, buf));
  if (header.fixed<std::uint32_t>() != kMagic) {
    error_ = "not a spill file (bad magic): " + path;
    return false;
  }
  if (header.fixed<std::uint32_t>() != kVersion) {
    error_ = "unsupported spill version in " + path;
    return false;
  }
  is_.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(is_.tellg());
  if (file_size < 8 + 12) {
    error_ = "truncated spill file: " + path;
    return false;
  }
  util::ByteReader tail(read_at(is_, file_size - 12, 12, buf));
  trailer(tail, footer_offset_);
  if (!tail.ok() || footer_offset_ < 8 || footer_offset_ > file_size - 12) {
    error_ = "corrupt spill trailer in " + path;
    return false;
  }
  const auto footer_size =
      static_cast<std::size_t>(file_size - 12 - footer_offset_);
  util::ByteReader r(read_at(is_, footer_offset_, footer_size, buf));
  footer(r, strings_, index_);
  bool ok = r.at_end();
  for (const SpillFrame& e : index_) {
    ok = ok && e.offset < footer_offset_ && e.first_record == records_;
    records_ += e.record_count;
  }
  if (!ok) {
    error_ = "corrupt spill footer in " + path;
    return false;
  }
  ok_ = true;
  return true;
}

std::uint64_t SpillReader::frame_first_record(std::size_t frame) const {
  RV_CHECK_LT(frame, index_.size());
  return index_[frame].first_record;
}

bool SpillReader::read_frame(std::size_t frame,
                             std::vector<tracer::TraceRecord>& out) const {
  out.clear();
  if (!ok_ || frame >= index_.size()) return false;
  const SpillFrame& entry = index_[frame];
  std::string buf;
  util::ByteReader header(read_at(is_, entry.offset, kFrameHeaderBytes, buf));
  std::uint32_t records = 0;
  ColumnLengths lengths;
  frame_header(header, records, lengths);
  std::uint64_t total = 0;
  for (const std::uint32_t len : lengths) total += len;
  // A frame ends before the footer begins, and each of its records codes
  // at least one user-id byte; lengths that say otherwise are corrupt, and
  // are refused before anything is allocated for them.
  if (!header.ok() || records != entry.record_count ||
      entry.offset + kFrameHeaderBytes + total > footer_offset_ ||
      records > lengths[kColUserId]) {
    return false;
  }
  const std::string_view blob =
      read_at(is_, entry.offset + kFrameHeaderBytes,
              static_cast<std::size_t>(total), buf);
  if (blob.size() != total) return false;
  FrameReader f(strings_);
  f.open(blob, lengths);
  out.resize(entry.record_count);
  for (auto& rec : out) {
    columns(f, rec);
    if (!f.ok()) {
      out.clear();
      return false;
    }
  }
  return true;
}

bool SpillReader::read_record(std::uint64_t index,
                              tracer::TraceRecord& out) const {
  if (!ok_ || index >= records_) return false;
  // Binary search the frame index for the frame containing `index`.
  std::size_t lo = 0, hi = index_.size();
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (index_[mid].first_record <= index) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  std::vector<tracer::TraceRecord> frame;
  if (!read_frame(lo, frame)) return false;
  const std::uint64_t off = index - index_[lo].first_record;
  if (off >= frame.size()) return false;
  out = std::move(frame[off]);
  return true;
}

bool concat_spills(const std::vector<std::string>& inputs,
                   const std::string& out_path, std::string* error) {
  SpillWriter writer(out_path);
  if (!writer.ok()) {
    if (error != nullptr) *error = "cannot write spill file: " + out_path;
    return false;
  }
  std::vector<tracer::TraceRecord> frame;
  for (const auto& path : inputs) {
    SpillReader reader;
    if (!reader.open(path)) {
      if (error != nullptr) *error = reader.error();
      return false;
    }
    for (std::size_t f = 0; f < reader.frames(); ++f) {
      if (!reader.read_frame(f, frame)) {
        if (error != nullptr) *error = "corrupt spill frame in " + path;
        return false;
      }
      for (const auto& rec : frame) writer.append(rec);
    }
  }
  if (!writer.finish()) {
    if (error != nullptr) *error = "cannot finalize spill file: " + out_path;
    return false;
  }
  return true;
}

}  // namespace rv::study
