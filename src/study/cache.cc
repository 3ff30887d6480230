#include "study/cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rv::study {
namespace {

constexpr std::uint32_t kMagic = 0x52565354;  // "RVST"
constexpr std::uint32_t kVersion = 7;

// Where cache files live unless the caller overrides (--cache-dir).
constexpr const char* kDefaultCacheDir = "./.rv_cache";

using util::CodecRef;

// The RVST field lists, one per type; each drives both save_result and
// load_result. Every field is its fixed-width object bytes except strings
// (u32 length + bytes) and the counted sequences.
template <typename IO>
void fields(IO& io, CodecRef<IO, client::SecondSample> s) {
  io.fixed(s.t_seconds);
  io.fixed(s.bandwidth);
  io.fixed(s.frame_rate);
}

template <typename IO>
void fields(IO& io, CodecRef<IO, client::ClipStats> s) {
  io.fixed(s.session_established);
  io.fixed(s.played_any_frame);
  io.fixed(s.protocol);
  io.fixed(s.fell_back_to_tcp);
  io.fixed(s.fell_back_to_http);
  io.fixed(s.rtsp_retries);
  io.fixed(s.encoded_bandwidth);
  io.fixed(s.encoded_fps);
  io.fixed(s.measured_bandwidth);
  io.fixed(s.measured_fps);
  io.fixed(s.jitter_ms);
  io.fixed(s.frames_played);
  io.fixed(s.frames_dropped);
  io.fixed(s.frames_cpu_scaled);
  io.fixed(s.rebuffer_events);
  io.fixed(s.rebuffer_seconds);
  io.fixed(s.preroll_seconds);
  io.fixed(s.play_seconds);
  io.fixed(s.cpu_utilization);
  io.fixed(s.bytes_received);
  io.fixed(s.packets_received);
  io.fixed(s.repairs_received);
  io.seq(s.samples, 1u << 20, [&io](auto& sample) { fields(io, sample); });
}

template <typename IO>
void fields(IO& io, CodecRef<IO, world::UserProfile> u) {
  io.fixed(u.id);
  io.str(u.country);
  io.str(u.us_state);
  io.fixed(u.region);
  io.fixed(u.group);
  io.fixed(u.connection);
  io.str(u.pc_class);
  io.fixed(u.udp_blocked);
  io.fixed(u.rtsp_blocked);
  io.fixed(u.clips_to_play);
  io.fixed(u.clips_to_rate);
  io.fixed(u.isp_load_lo);
  io.fixed(u.isp_load_hi);
  io.fixed(u.seed);
}

// The naming fields are pooled Symbols coded as plain strings: the bytes
// are those of the std::string era, so pinned cache md5s survive.
template <typename IO>
void fields(IO& io, CodecRef<IO, tracer::TraceRecord> r) {
  io.fixed(r.user_id);
  io.sym(r.country);
  io.sym(r.us_state);
  io.fixed(r.user_group);
  io.fixed(r.connection);
  io.sym(r.pc_class);
  io.fixed(r.rtsp_blocked_user);
  io.fixed(r.clip_id);
  util::fixed_as<std::uint64_t>(io, r.site);
  io.sym(r.server_name);
  io.sym(r.server_country);
  io.fixed(r.server_group);
  io.fixed(r.available);
  fields(io, r.stats);
  io.fixed(r.rating);
}

// Magic, version and config fingerprint, then users and records. A reader
// fails on any header mismatch.
template <typename IO>
void fields(IO& io, CodecRef<IO, StudyResult> result,
            std::uint64_t fingerprint) {
  io.expect(kMagic);
  io.expect(kVersion);
  io.expect(fingerprint);
  io.seq(result.users, 10'000, [&io](auto& u) { fields(io, u); });
  io.seq(result.records, 1'000'000, [&io](auto& r) { fields(io, r); });
}

}  // namespace

std::uint64_t config_fingerprint(const StudyConfig& config) {
  // Hash the textual dump of every behavioural knob.
  const std::string dump = util::str_cat(
      "v", kVersion, "|", config.seed, "|", config.play_scale, "|",
      config.catalog.clips_per_site, "|", config.catalog.playlist_size, "|",
      config.population.seed, "|", config.population.udp_blocked_t1, "|",
      config.population.udp_blocked_dsl, "|",
      config.population.udp_blocked_modem, "|",
      config.population.rtsp_blocked_rate, "|",
      to_seconds(config.tracer.watch_duration), "|",
      config.tracer.direct_tcp_probability, "|",
      static_cast<int>(config.tracer.udp_control), "|",
      config.tracer.surestream_enabled, "|", config.tracer.svt_enabled, "|",
      config.tracer.preroll_media_seconds, "|",
      config.tracer.path.episode_probability, "|",
      config.tracer.path.wan_capacity_cap, "|",
      config.tracer.path.server_access_cap, "|",
      static_cast<int>(config.tracer.path.queue_policy), "|",
      config.tracer.adaptive_packet_size, "|", config.tracer.live_content,
      "|", config.tracer.tcp_sack, "|", config.tracer.faults.enabled, "|",
      config.tracer.faults.seed, "|",
      config.tracer.faults.mechanistic_unavailability, "|",
      to_seconds(config.tracer.faults.campaign_duration), "|",
      to_seconds(config.tracer.faults.mean_outage_duration), "|",
      config.tracer.faults.outage_scale, "|",
      config.tracer.faults.overload_probability, "|",
      config.tracer.faults.overload_stall_lo_sec, "|",
      config.tracer.faults.overload_stall_hi_sec, "|",
      config.tracer.faults.link_down_probability, "|",
      config.tracer.faults.mean_link_down_sec, "|",
      config.tracer.faults.corruption_probability, "|",
      config.tracer.faults.corruption_loss_rate);
  // The congestion-control knob postdates the pinned cache format: it joins
  // the dump only for non-default algorithms, so every existing reno cache
  // keeps its exact filename and bytes (the study md5 gate depends on it).
  if (config.tracer.tcp_cc != transport::CcAlgorithm::kReno) {
    return util::stable_hash(util::str_cat(
        dump, "|cc=", static_cast<int>(config.tracer.tcp_cc)));
  }
  return util::stable_hash(dump);
}

std::string default_cache_path(const StudyConfig& config,
                               const std::string& cache_dir) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "rv_study_%016llx.cache",
                static_cast<unsigned long long>(config_fingerprint(config)));
  const std::string& dir = cache_dir.empty() ? kDefaultCacheDir : cache_dir;
  return dir + "/" + buf;
}

bool save_result(const std::string& path, const StudyConfig& config,
                 const StudyResult& result) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  util::ByteWriter w(os);
  fields(w, result, config_fingerprint(config));
  return w.flush();
}

std::optional<StudyResult> load_result(const std::string& path,
                                       const StudyConfig& config) {
  std::string bytes;
  if (!util::read_file(path, bytes)) return std::nullopt;
  util::ByteReader r(bytes);
  StudyResult result;
  fields(r, result, config_fingerprint(config));
  if (!r.at_end()) return std::nullopt;
  return result;
}

StudyResult run_study_cached(const StudyConfig& config, bool force_run,
                             const std::string& cache_dir) {
  const std::string path = default_cache_path(config, cache_dir);
  if (!force_run) {
    if (auto cached = load_result(path, config)) {
      obs::metrics_add(obs::Metric::kCacheHits);
      return std::move(*cached);
    }
  }
  obs::metrics_add(obs::Metric::kCacheMisses);
  StudyResult result = run_study(config);
  // Cache files live in a dedicated directory (never the repo root); create
  // it on demand so a fresh checkout works without setup.
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  save_result(path, config, result);
  return result;
}

}  // namespace rv::study
