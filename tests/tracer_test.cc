#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "media/catalog.h"
#include "media/stream_wire.h"
#include "study/cache.h"
#include "study/study.h"
#include "tracer/rating.h"
#include "tracer/real_tracer.h"
#include "util/bytes.h"
#include "world/region_graph.h"

namespace rv::tracer {
namespace {

client::ClipStats good_stats() {
  client::ClipStats s;
  s.played_any_frame = true;
  s.measured_fps = 20.0;
  s.jitter_ms = 20.0;
  s.measured_bandwidth = kbps(300);
  s.play_seconds = 60.0;
  return s;
}

client::ClipStats bad_stats() {
  client::ClipStats s;
  s.played_any_frame = true;
  s.measured_fps = 1.5;
  s.jitter_ms = 900.0;
  s.rebuffer_events = 3;
  s.rebuffer_seconds = 25.0;
  s.measured_bandwidth = kbps(12);
  s.play_seconds = 60.0;
  return s;
}

TEST(Rating, IntrinsicQualityOrdersPlayouts) {
  EXPECT_GT(intrinsic_quality(good_stats()), 7.0);
  EXPECT_LT(intrinsic_quality(bad_stats()), 2.5);
}

TEST(Rating, IntrinsicQualityBounded) {
  client::ClipStats s = bad_stats();
  s.rebuffer_events = 100;
  s.rebuffer_seconds = 60.0;
  EXPECT_GE(intrinsic_quality(s), 0.0);
  client::ClipStats p = good_stats();
  p.measured_fps = 30.0;
  p.jitter_ms = 0.0;
  EXPECT_LE(intrinsic_quality(p), 10.0);
}

TEST(Rating, RatingsStayInScale) {
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    RaterProfile rater = make_rater(rng);
    const double good = rate_clip(rater, good_stats(), rng);
    const double bad = rate_clip(rater, bad_stats(), rng);
    EXPECT_GE(good, 0.0);
    EXPECT_LE(good, 10.0);
    EXPECT_GE(bad, 0.0);
    EXPECT_LE(bad, 10.0);
  }
}

TEST(Rating, GoodPlayoutsRateHigherOnAverage) {
  util::Rng rng(9);
  double good_sum = 0.0;
  double bad_sum = 0.0;
  constexpr int n = 300;
  for (int i = 0; i < n; ++i) {
    RaterProfile rater = make_rater(rng);
    good_sum += rate_clip(rater, good_stats(), rng);
    bad_sum += rate_clip(rater, bad_stats(), rng);
  }
  EXPECT_GT(good_sum / n, bad_sum / n + 1.5);
}

TEST(Rating, AudioInclusiveRatersForgiveLowBandwidth) {
  util::Rng rng(11);
  RaterProfile video_only;
  video_only.rates_video_only = true;
  video_only.content_noise = 0.0;
  RaterProfile with_audio = video_only;
  with_audio.rates_video_only = false;
  client::ClipStats low_bw = bad_stats();
  double v = 0.0;
  double a = 0.0;
  for (int i = 0; i < 200; ++i) {
    v += rate_clip(video_only, low_bw, rng);
    a += rate_clip(with_audio, low_bw, rng);
  }
  EXPECT_GT(a, v);  // the Fig 28 upper-left cluster mechanism
}

class TracerFixture : public ::testing::Test {
 protected:
  TracerFixture()
      : catalog_(study::make_catalog(config_)),
        tracer_(catalog_, graph_, config_.tracer) {}

  study::StudyConfig config_;
  media::Catalog catalog_;
  world::RegionGraph graph_;
  RealTracer tracer_;
};

world::UserProfile healthy_user() {
  world::UserProfile u;
  u.id = 7;
  u.country = "US";
  u.us_state = "MA";
  u.region = world::Region::kUsEast;
  u.group = world::UserRegionGroup::kUsCanada;
  u.connection = world::ConnectionClass::kDslCable;
  u.pc_class = "Pentium III / 256-512MB";
  u.isp_load_lo = 0.2;
  u.isp_load_hi = 0.4;
  u.seed = 99;
  return u;
}

TEST_F(TracerFixture, RunSingleProducesCompleteRecord) {
  const auto user = healthy_user();
  const auto rec = tracer_.run_single(user, 0, 1234);
  EXPECT_EQ(rec.user_id, user.id);
  EXPECT_EQ(rec.country, user.country);
  EXPECT_TRUE(rec.available);
  EXPECT_TRUE(rec.stats.session_established);
  EXPECT_TRUE(rec.stats.played_any_frame);
  EXPECT_GT(rec.stats.measured_fps, 0.0);
  EXPECT_EQ(rec.server_name, world::server_sites()[rec.site].name);
}

TEST_F(TracerFixture, RunSingleDeterministic) {
  const auto user = healthy_user();
  const auto a = tracer_.run_single(user, 0, 77);
  const auto b = tracer_.run_single(user, 0, 77);
  EXPECT_EQ(a.stats.measured_fps, b.stats.measured_fps);
  EXPECT_EQ(a.stats.bytes_received, b.stats.bytes_received);
  EXPECT_EQ(a.stats.jitter_ms, b.stats.jitter_ms);
}

// Every field the study cache codes for `rec`, as the cache's bytes.
std::string cache_bytes(const TraceRecord& rec) {
  study::StudyResult result;
  result.records = {rec};
  const std::string path = ::testing::TempDir() + "/tracer_tap.cache";
  EXPECT_TRUE(study::save_result(path, study::StudyConfig{}, result));
  std::string bytes;
  EXPECT_TRUE(util::read_file(path, bytes));
  return bytes;
}

TEST_F(TracerFixture, DeliveryTapOnlyObservesTheSession) {
  for (const bool force_tcp : {false, true}) {
    SCOPED_TRACE(force_tcp ? "tcp" : "auto");
    const auto user = healthy_user();
    const auto plain = tracer_.run_single(user, 2, 4242, force_tcp);
    std::vector<std::string> methods;
    const auto tapped = tracer_.run_single(
        user, 2, 4242, force_tcp, /*play_faults=*/nullptr,
        [&](const net::Packet& p, net::NodeId at_node, SimTime) {
          if (at_node != p.dst) return;
          for (const auto& chunk : p.chunks) {
            if (const auto* text = dynamic_cast<const media::RtspTextMeta*>(
                    chunk.meta.get())) {
              methods.push_back(text->text.substr(0, text->text.find(' ')));
            }
          }
        });
    EXPECT_TRUE(plain.stats.played_any_frame);
    EXPECT_EQ(cache_bytes(tapped), cache_bytes(plain));
    for (const char* method : {"DESCRIBE", "SETUP", "PLAY"}) {
      EXPECT_NE(std::find(methods.begin(), methods.end(), method),
                methods.end())
          << method;
    }
  }
}

TEST_F(TracerFixture, ForceTcpUsesTcp) {
  const auto rec = tracer_.run_single(healthy_user(), 0, 5, /*force_tcp=*/true);
  EXPECT_EQ(rec.stats.protocol, net::Protocol::kTcp);
}

TEST_F(TracerFixture, RtspBlockedUserExcluded) {
  auto users = world::generate_population({});
  users[0].rtsp_blocked = true;
  users[0].clips_to_play = 4;
  const auto records = tracer_.run_user(users[0], 1);
  ASSERT_EQ(records.size(), 4u);
  for (const auto& rec : records) {
    EXPECT_TRUE(rec.rtsp_blocked_user);
    EXPECT_FALSE(rec.analyzable());
  }
}

TEST_F(TracerFixture, RunUserHonoursPlayAndRateCounts) {
  auto users = world::generate_population({});
  users[0].rtsp_blocked = false;
  users[0].clips_to_play = 6;
  users[0].clips_to_rate = 2;
  const auto records = tracer_.run_user(users[0], 1);
  ASSERT_EQ(records.size(), 6u);
  int rated = 0;
  for (const auto& rec : records) rated += rec.rated();
  EXPECT_LE(rated, 2);
  for (const auto& rec : records) {
    if (rec.rated()) {
      EXPECT_GE(rec.rating, 0.0);
      EXPECT_LE(rec.rating, 10.0);
    }
  }
}


TEST_F(TracerFixture, TfrcControllerVariantWorks) {
  study::StudyConfig cfg;
  tracer::TracerConfig tcfg;
  tcfg.udp_control = server::CongestionControlKind::kTfrc;
  RealTracer tfrc_tracer(catalog_, graph_, tcfg);
  const auto rec = tfrc_tracer.run_single(healthy_user(), 1, 909);
  EXPECT_TRUE(rec.stats.played_any_frame);
  EXPECT_GT(rec.stats.measured_fps, 2.0);
}

TEST_F(TracerFixture, UnresponsiveControllerVariantWorks) {
  tracer::TracerConfig tcfg;
  tcfg.udp_control = server::CongestionControlKind::kNone;
  RealTracer none_tracer(catalog_, graph_, tcfg);
  const auto rec = none_tracer.run_single(healthy_user(), 1, 909);
  EXPECT_TRUE(rec.stats.played_any_frame);
}

TEST_F(TracerFixture, MetafileStepDoesNotBreakSessions) {
  // The HTTP metafile fetch precedes every session; a healthy play still
  // produces complete stats (regression guard for the §II.A step).
  const auto rec = tracer_.run_single(healthy_user(), 2, 4242);
  EXPECT_TRUE(rec.stats.session_established);
  EXPECT_TRUE(rec.stats.played_any_frame);
}
}  // namespace
}  // namespace rv::tracer
