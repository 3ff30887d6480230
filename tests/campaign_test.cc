#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "study/campaign.h"
#include "study/spill.h"
#include "study/study.h"
#include "util/check.h"
#include "util/units.h"

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

// Short plays and a reduced playlist so each campaign run stays fast; the
// equivalence properties under test are scale-independent.
StudyConfig quick_config() {
  StudyConfig config;
  config.threads = 2;
  config.play_scale = 0.05;
  config.tracer.watch_duration = seconds_to_sim(2.0);
  return config;
}

// A synthetic analyzable record for pure-rollup tests (no simulation).
tracer::TraceRecord synthetic_record(std::uint64_t i) {
  tracer::TraceRecord rec;
  rec.user_id = static_cast<int>(i);
  rec.country = "US";
  rec.pc_class = "Pentium II / 128-256";
  rec.server_name = "east-1";
  rec.server_country = "US";
  rec.available = true;
  rec.stats.session_established = true;
  rec.stats.played_any_frame = true;
  rec.stats.measured_bandwidth = 1e5 + static_cast<double>(i);
  rec.stats.measured_fps = 15.0;
  rec.stats.jitter_ms = 10.0 + static_cast<double>(i % 50);
  rec.stats.preroll_seconds = 2.0;
  rec.stats.play_seconds = 30.0;
  rec.stats.frames_played = 450;
  rec.rating = static_cast<double>(i % 11);
  return rec;
}

TEST(Campaign, ScaleOneRollupMatchesFoldingRunStudy) {
  const StudyConfig study_cfg = quick_config();
  const StudyResult baseline = run_study(study_cfg);

  CampaignRollup manual;
  manual.user_count = 63;  // one population replica
  for (const auto& rec : baseline.records) manual.fold(rec);

  CampaignConfig campaign_cfg;
  campaign_cfg.study = study_cfg;
  campaign_cfg.plays_scale = 1;
  const CampaignResult result = run_campaign(campaign_cfg);

  EXPECT_EQ(result.users, 63u);
  EXPECT_EQ(result.plays, baseline.records.size());
  // The campaign's streaming chunked execution must reproduce the in-memory
  // study bit-for-bit: identical serialized rollup, identical report.
  EXPECT_EQ(result.rollup.serialize(), manual.serialize());
  EXPECT_EQ(result.rollup.render(), manual.render());
}

TEST(Campaign, ScaleOneSpillMatchesRunStudyRecordForRecord) {
  // Pins the record order through the shared play driver: the campaign's
  // spill of one replica must be the study's records, byte for byte.
  const StudyConfig study_cfg = quick_config();
  const StudyResult baseline = run_study(study_cfg);
  const std::string study_spill = temp_path("study_records.spill");
  SpillWriter writer(study_spill);
  for (const auto& rec : baseline.records) writer.append(rec);
  ASSERT_TRUE(writer.finish());

  CampaignConfig campaign_cfg;
  campaign_cfg.study = study_cfg;
  campaign_cfg.spill_dir = temp_path("campaign_scale_one");
  const CampaignResult result = run_campaign(campaign_cfg);
  ASSERT_FALSE(result.spill_path.empty());
  const std::string bytes = read_file(result.spill_path);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, read_file(study_spill));
}

TEST(Campaign, ChunkSizeAndThreadsDoNotChangeTheRollup) {
  CampaignConfig a;
  a.study = quick_config();
  a.plays_scale = 2;
  CampaignConfig b = a;
  b.chunk_users = 17;   // ragged chunks, crossing replica boundaries
  b.study.threads = 1;
  const std::string bytes_a = run_campaign(a).rollup.serialize();
  const std::string bytes_b = run_campaign(b).rollup.serialize();
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(Campaign, ShardedRunMergesToSingleProcessBytes) {
  CampaignConfig whole;
  whole.study = quick_config();
  whole.plays_scale = 2;
  whole.spill_dir = temp_path("campaign_whole");
  const CampaignResult single = run_campaign(whole);
  EXPECT_EQ(single.users, 126u);
  EXPECT_GT(single.plays, 0u);

  CampaignRollup merged;
  std::vector<std::string> shard_spills;
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    CampaignConfig part = whole;
    part.shard_index = shard;
    part.shard_count = 2;
    part.spill_dir = temp_path("campaign_shard" + std::to_string(shard));
    const CampaignResult result = run_campaign(part);
    EXPECT_EQ(result.users, 63u);
    shard_spills.push_back(result.spill_path);
    std::string error;
    if (shard == 0) {
      merged = result.rollup;
    } else {
      ASSERT_TRUE(merged.merge(result.rollup, &error)) << error;
    }
  }

  EXPECT_EQ(merged.serialize(), single.rollup.serialize());
  EXPECT_EQ(merged.render(), single.rollup.render());

  const std::string merged_spill = temp_path("campaign_merged.spill");
  std::string error;
  ASSERT_TRUE(concat_spills(shard_spills, merged_spill, &error)) << error;
  EXPECT_EQ(read_file(merged_spill), read_file(single.spill_path));
}

TEST(Campaign, MergeRejectsNonContiguousShards) {
  CampaignRollup first;
  first.user_first = 0;
  first.user_count = 63;
  for (std::uint64_t i = 0; i < 10; ++i) first.fold(synthetic_record(i));

  CampaignRollup gap;
  gap.user_first = 70;  // hole at [63, 70)
  gap.user_count = 63;
  std::string error;
  CampaignRollup m = first;
  EXPECT_FALSE(m.merge(gap, &error));
  EXPECT_FALSE(error.empty());

  CampaignRollup duplicate;
  duplicate.user_first = 0;  // same range again
  duplicate.user_count = 63;
  error.clear();
  m = first;
  EXPECT_FALSE(m.merge(duplicate, &error));
  EXPECT_FALSE(error.empty());

  CampaignRollup next;
  next.user_first = 63;  // exactly adjacent: accepted
  next.user_count = 63;
  for (std::uint64_t i = 0; i < 5; ++i) next.fold(synthetic_record(63 + i));
  m = first;
  ASSERT_TRUE(m.merge(next, &error)) << error;
  EXPECT_EQ(m.user_first, 0u);
  EXPECT_EQ(m.user_count, 126u);
  EXPECT_EQ(m.records, 15u);
  // Out-of-order merge (successor first) is also a contiguity error.
  error.clear();
  CampaignRollup reversed = next;
  EXPECT_FALSE(reversed.merge(first, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Campaign, SerializationRoundTripsAndRejectsCorruption) {
  CampaignRollup rollup;
  rollup.user_first = 63;
  rollup.user_count = 63;
  for (std::uint64_t i = 0; i < 200; ++i) {
    tracer::TraceRecord rec = synthetic_record(i);
    if (i % 13 == 0) rec.available = false;
    if (i % 29 == 0) rec.rtsp_blocked_user = true;
    rollup.fold(rec);
  }

  const std::string bytes = rollup.serialize();
  CampaignRollup back;
  std::string error;
  ASSERT_TRUE(CampaignRollup::parse(bytes, &back, &error)) << error;
  EXPECT_EQ(back.serialize(), bytes);
  EXPECT_EQ(back.render(), rollup.render());
  EXPECT_EQ(back.records, rollup.records);
  EXPECT_EQ(back.sum_rating_u, rollup.sum_rating_u);

  CampaignRollup out;
  EXPECT_FALSE(CampaignRollup::parse("", &out, &error));
  EXPECT_FALSE(CampaignRollup::parse("RVRUgarbage", &out, &error));
  EXPECT_FALSE(error.empty());
  // A well-formed file whose fps histogram has another geometry ([0, 61)
  // instead of [0, 60)): merge() could not combine it, so parse refuses it.
  // h_fps.hi follows magic, version, 19 u64 counters, 7 i64 sums and lo.
  std::string regridded = bytes;
  const double hi = 61.0;
  regridded.replace(8 + 26 * 8 + 8, 8, reinterpret_cast<const char*>(&hi), 8);
  EXPECT_FALSE(CampaignRollup::parse(regridded, &out, &error));

  // save/load round-trip through a file.
  const std::string path = temp_path("rollup.bin");
  ASSERT_TRUE(rollup.save(path));
  CampaignRollup loaded;
  ASSERT_TRUE(CampaignRollup::load(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.serialize(), bytes);
  EXPECT_FALSE(CampaignRollup::load(temp_path("missing.bin"), &loaded, &error));
}

TEST(Campaign, EverySingleByteFlipOfASavedRollupFailsLoad) {
  CampaignRollup rollup;
  rollup.user_count = 63;
  for (std::uint64_t i = 0; i < 50; ++i) rollup.fold(synthetic_record(i));
  const std::string path = temp_path("flip_rollup.bin");
  ASSERT_TRUE(rollup.save(path));
  const std::string bytes = read_file(path);
  // The file is the serialized rollup followed by its 16-byte md5.
  ASSERT_EQ(bytes.size(), rollup.serialize().size() + 16);

  const std::string flipped_path = temp_path("flipped_rollup.bin");
  CampaignRollup loaded;
  std::string error;
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0xFF);
    {
      std::ofstream os(flipped_path, std::ios::binary | std::ios::trunc);
      os.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
    }
    EXPECT_FALSE(CampaignRollup::load(flipped_path, &loaded, &error))
        << "byte " << at << " of " << bytes.size();
  }
  ASSERT_TRUE(CampaignRollup::load(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.serialize(), rollup.serialize());
}

TEST(Campaign, RunCampaignValidatesConfig) {
  CampaignConfig config;
  config.study = quick_config();
  config.plays_scale = 0;
  EXPECT_THROW(run_campaign(config), util::CheckError);

  config.plays_scale = 1;
  config.shard_count = 0;
  EXPECT_THROW(run_campaign(config), util::CheckError);

  config.shard_count = 2;
  config.shard_index = 2;  // must be < shard_count
  EXPECT_THROW(run_campaign(config), util::CheckError);

  config.shard_index = 0;
  config.chunk_users = 0;
  EXPECT_THROW(run_campaign(config), util::CheckError);

  config.chunk_users = 63;
  config.study.threads = -1;  // 0 means every core; negatives are errors
  EXPECT_THROW(run_campaign(config), util::CheckError);
}

TEST(Campaign, PeakRssIsReadable) {
  // Linux-only value, but this suite runs on Linux: VmHWM of a live test
  // process is always at least a megabyte.
  EXPECT_GT(peak_rss_kb(), 1024u);
}

}  // namespace
}  // namespace rv::study
