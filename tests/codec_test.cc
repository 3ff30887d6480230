// One table over the three on-disk formats: the study cache (RVST), the
// columnar spill (RVSP) and the shard rollup (RVRU). For each, a small
// synthetic document must decode and re-encode to identical bytes, and
// every strict prefix of it must be rejected. A second table sets each
// coded enum past its last value; the cache and spill readers must reject
// it.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "study/cache.h"
#include "study/campaign.h"
#include "study/spill.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace rv::study {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/codec_" + name;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_file(const std::string& path) {
  std::string bytes;
  util::read_file(path, bytes);
  return bytes;
}

// Records touching every coded field: symbols from a small vocabulary,
// every enum, both bool values, negative and large integers, samples.
std::vector<tracer::TraceRecord> synthetic_records(std::size_t n) {
  static const char* kCountries[] = {"US", "UK", "Germany", "Japan"};
  static const char* kServers[] = {"east-1", "west-1", "eu-1"};
  util::Rng rng(17);
  std::vector<tracer::TraceRecord> recs(n);
  for (std::size_t i = 0; i < n; ++i) {
    tracer::TraceRecord& rec = recs[i];
    rec.user_id = static_cast<int>(i / 4);
    rec.country = kCountries[i % 4];
    rec.us_state = (i % 4 == 0) ? "MA" : "";
    rec.user_group = static_cast<world::UserRegionGroup>(i % 4);
    rec.connection = static_cast<world::ConnectionClass>(i % 3);
    rec.pc_class = (i % 2 == 0) ? "Pentium II / 128-256" : "486 / <64";
    rec.rtsp_blocked_user = i % 9 == 0;
    rec.clip_id = static_cast<std::uint32_t>(i * 7 % 98);
    rec.site = i % 3;
    rec.server_name = kServers[i % 3];
    rec.server_country = (i % 3 == 2) ? "UK" : "US";
    rec.server_group = static_cast<world::ServerRegionGroup>(i % 5);
    rec.available = i % 7 != 0;
    auto& st = rec.stats;
    st.session_established = rec.available;
    st.played_any_frame = rec.available;
    st.protocol = (i % 4 == 0) ? net::Protocol::kTcp : net::Protocol::kUdp;
    st.fell_back_to_tcp = i % 5 == 0;
    st.fell_back_to_http = i % 11 == 0;
    st.rtsp_retries = static_cast<std::int32_t>(i % 4);
    st.encoded_bandwidth = rng.uniform(20e3, 600e3);
    st.encoded_fps = rng.uniform(5.0, 30.0);
    st.measured_bandwidth = rng.uniform(10e3, 500e3);
    st.measured_fps = rng.uniform(1.0, 30.0);
    st.jitter_ms = rng.uniform(0.0, 150.0);
    st.frames_played = static_cast<std::int64_t>(i * 37 % 5000);
    st.frames_dropped = -static_cast<std::int64_t>(i % 3);
    st.frames_cpu_scaled = static_cast<std::int64_t>(i % 13);
    st.rebuffer_events = static_cast<std::int32_t>(i % 5);
    st.rebuffer_seconds = rng.uniform(0.0, 20.0);
    st.preroll_seconds = rng.uniform(0.5, 12.0);
    st.play_seconds = rng.uniform(1.0, 60.0);
    st.cpu_utilization = rng.uniform(0.0, 1.0);
    st.bytes_received = static_cast<std::int64_t>(i) << 33;
    st.packets_received = static_cast<std::int64_t>(i * 331);
    st.repairs_received = static_cast<std::int64_t>(i % 29);
    for (std::size_t s = 0; s < i % 3; ++s) {
      st.samples.push_back({static_cast<double>(s), rng.uniform(1e4, 5e5),
                            rng.uniform(0.0, 30.0)});
    }
    rec.rating = (i % 3 == 0) ? rng.uniform(0.0, 10.0) : -1.0;
  }
  return recs;
}

StudyResult synthetic_study() {
  StudyResult result;
  result.records = synthetic_records(12);
  for (int id = 0; id < 3; ++id) {
    world::UserProfile u;
    u.id = id;
    u.country = id == 0 ? "US" : "Japan";
    u.us_state = id == 0 ? "MA" : "";
    u.region = static_cast<world::Region>(id);
    u.pc_class = "Pentium III / 256+";
    u.udp_blocked = id == 1;
    u.rtsp_blocked = id == 2;
    u.clips_to_play = 4;
    u.clips_to_rate = 2;
    u.seed = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(id + 1);
    result.users.push_back(u);
  }
  return result;
}

std::string encode_cache(const StudyResult& study) {
  const std::string path = temp_path("cache.bin");
  EXPECT_TRUE(save_result(path, StudyConfig{}, study));
  return read_file(path);
}

std::string encode_spill(const std::vector<tracer::TraceRecord>& records) {
  const std::string path = temp_path("records.spill");
  SpillWriter writer(path);
  for (const auto& rec : records) writer.append(rec);
  EXPECT_TRUE(writer.finish());
  return read_file(path);
}

CampaignRollup synthetic_rollup() {
  CampaignRollup rollup;
  rollup.user_first = 63;
  rollup.user_count = 63;
  for (const auto& rec : synthetic_records(40)) rollup.fold(rec);
  rollup.telemetry.bottleneck["T1/LAN"] = {3, 0, -1, 7};
  return rollup;
}

// A format under test: encode() yields a valid document; recode() decodes
// one and re-encodes it, or returns false when the decoder rejects it.
struct Format {
  const char* name;
  std::function<std::string()> encode;
  std::function<bool(const std::string& doc, std::string* recoded)> recode;
};

std::vector<Format> formats() {
  static const StudyConfig config;
  return {
      {"study cache", [] { return encode_cache(synthetic_study()); },
       [](const std::string& doc, std::string* recoded) {
         const std::string in = temp_path("cache_in.bin");
         const std::string out = temp_path("cache_out.bin");
         write_file(in, doc);
         const auto loaded = load_result(in, config);
         if (!loaded || !save_result(out, config, *loaded)) return false;
         *recoded = read_file(out);
         return true;
       }},
      {"spill", [] { return encode_spill(synthetic_records(40)); },
       [](const std::string& doc, std::string* recoded) {
         const std::string in = temp_path("in.spill");
         const std::string out = temp_path("out.spill");
         write_file(in, doc);
         SpillReader reader;
         if (!reader.open(in)) return false;
         SpillWriter writer(out);
         std::vector<tracer::TraceRecord> frame;
         for (std::size_t f = 0; f < reader.frames(); ++f) {
           if (!reader.read_frame(f, frame)) return false;
           for (const auto& rec : frame) writer.append(rec);
         }
         if (!writer.finish()) return false;
         *recoded = read_file(out);
         return true;
       }},
      {"rollup",
       [] { return synthetic_rollup().serialize(); },
       [](const std::string& doc, std::string* recoded) {
         CampaignRollup rollup;
         std::string error;
         if (!CampaignRollup::parse(doc, &rollup, &error)) {
           EXPECT_FALSE(error.empty());
           return false;
         }
         *recoded = rollup.serialize();
         return true;
       }},
  };
}

TEST(Codec, RoundTripIsByteIdentical) {
  for (const Format& format : formats()) {
    SCOPED_TRACE(format.name);
    const std::string doc = format.encode();
    ASSERT_GT(doc.size(), 100u);
    std::string recoded;
    ASSERT_TRUE(format.recode(doc, &recoded));
    EXPECT_EQ(recoded, doc);
  }
}

TEST(Codec, EveryStrictPrefixIsRejected) {
  for (const Format& format : formats()) {
    SCOPED_TRACE(format.name);
    const std::string doc = format.encode();
    std::string recoded;
    for (std::size_t keep = 0; keep < doc.size(); ++keep) {
      EXPECT_FALSE(format.recode(doc.substr(0, keep), &recoded))
          << "kept " << keep << " of " << doc.size() << " bytes";
    }
  }
}

TEST(Codec, GarbageIsRejected) {
  const std::string garbage =
      "this is definitely not an encoded document, padded to a real length";
  for (const Format& format : formats()) {
    SCOPED_TRACE(format.name);
    std::string recoded;
    EXPECT_FALSE(format.recode(garbage, &recoded));
  }
}

// The first value past E's last one.
template <typename E>
E past_end() {
  return static_cast<E>(enum_count(E{}));
}

// Every enum field a format codes; the spill codes the record's only.
struct EnumField {
  const char* name;
  bool in_spill;
  std::function<void(StudyResult&)> set_out_of_range;
};

std::vector<EnumField> enum_fields() {
  return {
      {"user region", false,
       [](StudyResult& s) { s.users[1].region = past_end<world::Region>(); }},
      {"user group", false,
       [](StudyResult& s) {
         s.users[1].group = past_end<world::UserRegionGroup>();
       }},
      {"user connection", false,
       [](StudyResult& s) {
         s.users[1].connection = past_end<world::ConnectionClass>();
       }},
      {"record user group", true,
       [](StudyResult& s) {
         s.records[5].user_group = past_end<world::UserRegionGroup>();
       }},
      {"record connection", true,
       [](StudyResult& s) {
         s.records[5].connection = past_end<world::ConnectionClass>();
       }},
      {"record server group", true,
       [](StudyResult& s) {
         s.records[5].server_group = past_end<world::ServerRegionGroup>();
       }},
      {"record protocol", true,
       [](StudyResult& s) {
         s.records[5].stats.protocol = past_end<net::Protocol>();
       }},
  };
}

TEST(Codec, OutOfRangeEnumsAreRejected) {
  const std::vector<Format> all = formats();
  const Format& cache = all[0];
  const Format& spill = all[1];
  for (const EnumField& field : enum_fields()) {
    SCOPED_TRACE(field.name);
    StudyResult study = synthetic_study();
    field.set_out_of_range(study);
    std::string recoded;
    EXPECT_FALSE(cache.recode(encode_cache(study), &recoded));
    if (field.in_spill) {
      EXPECT_FALSE(spill.recode(encode_spill(study.records), &recoded));
    }
  }
}

}  // namespace
}  // namespace rv::study
