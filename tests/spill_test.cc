#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "study/spill.h"
#include "tracer/record.h"
#include "util/rng.h"

namespace rv::study {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

// A synthetic record stream exercising every column: varied symbols from a
// small vocabulary, negative/large integers, doubles, flags, and samples.
tracer::TraceRecord make_record(std::uint64_t i, util::Rng& rng) {
  static const char* kCountries[] = {"US", "UK", "Germany", "Japan", "Brazil"};
  static const char* kStates[] = {"", "CA", "MA", "WA", "TX"};
  static const char* kPcs[] = {"Pentium II / 128-256", "Pentium III / 256+",
                               "486 / <64"};
  static const char* kServers[] = {"east-1", "west-1", "eu-1"};
  tracer::TraceRecord rec;
  rec.user_id = static_cast<int>(i % 63);
  rec.country = kCountries[i % 5];
  rec.us_state = kStates[i % 5];
  rec.user_group = static_cast<world::UserRegionGroup>(i % 4);
  rec.connection = static_cast<world::ConnectionClass>(i % 3);
  rec.pc_class = kPcs[i % 3];
  rec.rtsp_blocked_user = (i % 17) == 0;
  rec.clip_id = static_cast<std::uint32_t>(i * 7 % 98);
  rec.site = i % 3;
  rec.server_name = kServers[i % 3];
  rec.server_country = (i % 3 == 2) ? "UK" : "US";
  rec.available = (i % 11) != 0;
  rec.stats.session_established = rec.available;
  rec.stats.played_any_frame = rec.available;
  rec.stats.protocol = (i % 4 == 0) ? net::Protocol::kTcp : net::Protocol::kUdp;
  rec.stats.fell_back_to_tcp = (i % 8) == 0;
  rec.stats.fell_back_to_http = (i % 32) == 0;
  rec.stats.rtsp_retries = static_cast<std::int32_t>(i % 4);
  rec.stats.encoded_bandwidth = rng.uniform(20e3, 600e3);
  rec.stats.encoded_fps = rng.uniform(5.0, 30.0);
  rec.stats.measured_bandwidth = rng.uniform(10e3, 500e3);
  rec.stats.measured_fps = rng.uniform(1.0, 30.0);
  rec.stats.jitter_ms = rng.uniform(0.0, 150.0);
  rec.stats.frames_played = static_cast<std::int64_t>(i * 37 % 5000);
  rec.stats.frames_dropped = static_cast<std::int64_t>(i % 97);
  rec.stats.frames_cpu_scaled = static_cast<std::int64_t>(i % 13);
  rec.stats.rebuffer_events = static_cast<std::int32_t>(i % 5);
  rec.stats.rebuffer_seconds = rng.uniform(0.0, 20.0);
  rec.stats.preroll_seconds = rng.uniform(0.5, 12.0);
  rec.stats.play_seconds = rng.uniform(1.0, 60.0);
  rec.stats.cpu_utilization = rng.uniform(0.0, 1.0);
  rec.stats.bytes_received = static_cast<std::int64_t>(i * 104729);
  rec.stats.packets_received = static_cast<std::int64_t>(i * 331);
  rec.stats.repairs_received = static_cast<std::int64_t>(i % 29);
  const int n_samples = static_cast<int>(i % 4);
  for (int s = 0; s < n_samples; ++s) {
    client::SecondSample sample;
    sample.t_seconds = static_cast<double>(s);
    sample.bandwidth = rng.uniform(1e4, 5e5);
    sample.frame_rate = rng.uniform(0.0, 30.0);
    rec.stats.samples.push_back(sample);
  }
  rec.rating = (i % 6 == 0) ? rng.uniform(0.0, 10.0) : -1.0;
  return rec;
}

std::vector<tracer::TraceRecord> make_records(std::size_t n,
                                              std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<tracer::TraceRecord> recs;
  recs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) recs.push_back(make_record(i, rng));
  return recs;
}

void expect_same_record(const tracer::TraceRecord& a,
                        const tracer::TraceRecord& b, std::size_t i) {
  SCOPED_TRACE("record " + std::to_string(i));
  EXPECT_EQ(a.user_id, b.user_id);
  EXPECT_EQ(a.country, b.country);
  EXPECT_EQ(a.us_state, b.us_state);
  EXPECT_EQ(a.user_group, b.user_group);
  EXPECT_EQ(a.connection, b.connection);
  EXPECT_EQ(a.pc_class, b.pc_class);
  EXPECT_EQ(a.rtsp_blocked_user, b.rtsp_blocked_user);
  EXPECT_EQ(a.clip_id, b.clip_id);
  EXPECT_EQ(a.site, b.site);
  EXPECT_EQ(a.server_name, b.server_name);
  EXPECT_EQ(a.server_country, b.server_country);
  EXPECT_EQ(a.server_group, b.server_group);
  EXPECT_EQ(a.available, b.available);
  EXPECT_EQ(a.rating, b.rating);  // doubles round-trip bit-exactly
  EXPECT_EQ(a.stats.session_established, b.stats.session_established);
  EXPECT_EQ(a.stats.played_any_frame, b.stats.played_any_frame);
  EXPECT_EQ(a.stats.protocol, b.stats.protocol);
  EXPECT_EQ(a.stats.fell_back_to_tcp, b.stats.fell_back_to_tcp);
  EXPECT_EQ(a.stats.fell_back_to_http, b.stats.fell_back_to_http);
  EXPECT_EQ(a.stats.rtsp_retries, b.stats.rtsp_retries);
  EXPECT_EQ(a.stats.encoded_bandwidth, b.stats.encoded_bandwidth);
  EXPECT_EQ(a.stats.encoded_fps, b.stats.encoded_fps);
  EXPECT_EQ(a.stats.measured_bandwidth, b.stats.measured_bandwidth);
  EXPECT_EQ(a.stats.measured_fps, b.stats.measured_fps);
  EXPECT_EQ(a.stats.jitter_ms, b.stats.jitter_ms);
  EXPECT_EQ(a.stats.frames_played, b.stats.frames_played);
  EXPECT_EQ(a.stats.frames_dropped, b.stats.frames_dropped);
  EXPECT_EQ(a.stats.frames_cpu_scaled, b.stats.frames_cpu_scaled);
  EXPECT_EQ(a.stats.rebuffer_events, b.stats.rebuffer_events);
  EXPECT_EQ(a.stats.rebuffer_seconds, b.stats.rebuffer_seconds);
  EXPECT_EQ(a.stats.preroll_seconds, b.stats.preroll_seconds);
  EXPECT_EQ(a.stats.play_seconds, b.stats.play_seconds);
  EXPECT_EQ(a.stats.cpu_utilization, b.stats.cpu_utilization);
  EXPECT_EQ(a.stats.bytes_received, b.stats.bytes_received);
  EXPECT_EQ(a.stats.packets_received, b.stats.packets_received);
  EXPECT_EQ(a.stats.repairs_received, b.stats.repairs_received);
  ASSERT_EQ(a.stats.samples.size(), b.stats.samples.size());
  for (std::size_t s = 0; s < a.stats.samples.size(); ++s) {
    EXPECT_EQ(a.stats.samples[s].t_seconds, b.stats.samples[s].t_seconds);
    EXPECT_EQ(a.stats.samples[s].bandwidth, b.stats.samples[s].bandwidth);
    EXPECT_EQ(a.stats.samples[s].frame_rate, b.stats.samples[s].frame_rate);
  }
}

TEST(Spill, RoundTripsEveryColumnAcrossFrames) {
  // > kSpillFrameRecords so the file has multiple frames.
  const std::size_t n = kSpillFrameRecords + 500;
  const auto recs = make_records(n, 99);
  const std::string path = temp_path("roundtrip.spill");
  {
    SpillWriter writer(path);
    ASSERT_TRUE(writer.ok());
    for (const auto& rec : recs) writer.append(rec);
    ASSERT_TRUE(writer.finish());
    EXPECT_EQ(writer.records(), n);
  }

  SpillReader reader;
  ASSERT_TRUE(reader.open(path)) << reader.error();
  EXPECT_EQ(reader.records(), n);
  EXPECT_EQ(reader.frames(), 2u);
  EXPECT_EQ(reader.frame_first_record(0), 0u);
  EXPECT_EQ(reader.frame_first_record(1), kSpillFrameRecords);

  std::size_t i = 0;
  for (std::size_t f = 0; f < reader.frames(); ++f) {
    std::vector<tracer::TraceRecord> frame;
    ASSERT_TRUE(reader.read_frame(f, frame));
    for (const auto& got : frame) {
      expect_same_record(got, recs[i], i);
      ++i;
    }
  }
  EXPECT_EQ(i, n);
}

TEST(Spill, RandomAccessSeeksAcrossFrameBoundaries) {
  const std::size_t n = kSpillFrameRecords + 100;
  const auto recs = make_records(n, 7);
  const std::string path = temp_path("seek.spill");
  SpillWriter writer(path);
  for (const auto& rec : recs) writer.append(rec);
  ASSERT_TRUE(writer.finish());

  SpillReader reader;
  ASSERT_TRUE(reader.open(path)) << reader.error();
  const std::uint64_t probes[] = {0, 1, kSpillFrameRecords - 1,
                                  kSpillFrameRecords, n - 1};
  for (const std::uint64_t k : probes) {
    tracer::TraceRecord rec;
    ASSERT_TRUE(reader.read_record(k, rec)) << "record " << k;
    expect_same_record(rec, recs[k], k);
  }
  tracer::TraceRecord rec;
  EXPECT_FALSE(reader.read_record(n, rec));  // out of range
}

// Truncation at every cut point is covered by codec_test.
TEST(Spill, RejectsMissingAndGarbageFiles) {
  SpillReader reader;
  EXPECT_FALSE(reader.open(temp_path("nonexistent.spill")));
  EXPECT_FALSE(reader.error().empty());

  const std::string garbage = temp_path("garbage.spill");
  {
    std::ofstream os(garbage, std::ios::binary);
    os << "this is definitely not a spill file, padded to a real length";
  }
  SpillReader bad_magic;
  EXPECT_FALSE(bad_magic.open(garbage));
  EXPECT_FALSE(bad_magic.ok());
}

TEST(Spill, ConcatReproducesSingleWriterBytes) {
  // The shard-merge property: concatenating per-shard spills byte-matches
  // one writer fed the whole sequence, even though each shard built its own
  // (differently ordered) string table.
  const auto recs = make_records(900, 21);
  const std::string whole = temp_path("whole.spill");
  {
    SpillWriter writer(whole);
    for (const auto& rec : recs) writer.append(rec);
    ASSERT_TRUE(writer.finish());
  }

  std::vector<std::string> parts;
  const std::size_t cuts[] = {0, 250, 251, 900};
  for (std::size_t p = 0; p + 1 < 4; ++p) {
    const std::string part = temp_path("part" + std::to_string(p) + ".spill");
    SpillWriter writer(part);
    for (std::size_t i = cuts[p]; i < cuts[p + 1]; ++i) {
      writer.append(recs[i]);
    }
    ASSERT_TRUE(writer.finish());
    parts.push_back(part);
  }

  const std::string merged = temp_path("merged.spill");
  std::string error;
  ASSERT_TRUE(concat_spills(parts, merged, &error)) << error;
  EXPECT_EQ(read_file(merged), read_file(whole));
}

TEST(Spill, ObsAndTelemetryPayloadsAreNotSpilled) {
  util::Rng rng(5);
  tracer::TraceRecord rec = make_record(12, rng);
  rec.obs.enabled = true;
  rec.series.enabled = true;
  const std::string path = temp_path("noobs.spill");
  {
    SpillWriter writer(path);
    writer.append(rec);
    ASSERT_TRUE(writer.finish());
  }
  SpillReader reader;
  ASSERT_TRUE(reader.open(path)) << reader.error();
  tracer::TraceRecord got;
  ASSERT_TRUE(reader.read_record(0, got));
  EXPECT_FALSE(got.obs.enabled);
  EXPECT_FALSE(got.series.enabled);
  EXPECT_TRUE(got.obs.events.empty());
  expect_same_record(got, rec, 12);
}

}  // namespace
}  // namespace rv::study
