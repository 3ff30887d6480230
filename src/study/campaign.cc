#include "study/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "obs/metrics.h"
#include "study/spill.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/md5.h"
#include "util/strings.h"
#include "world/types.h"

namespace rv::study {
namespace {

constexpr std::uint32_t kRollupMagic = 0x55525652;  // "RVRU" little-endian
constexpr std::uint32_t kRollupVersion = 1;

std::int64_t micro(double v) {
  return static_cast<std::int64_t>(std::llround(v * 1e6));
}

double from_micro(std::int64_t u) { return static_cast<double>(u) / 1e6; }

using util::CodecRef;

// The RVRU field lists, one per type; each drives both serialize and
// parse. Histograms code sparsely: geometry, then the nonzero bins. Every
// rollup histogram has a fixed geometry, which the reader's freshly built
// target already carries; a file with any other geometry is refused here,
// since merge() could not combine it.
template <typename IO>
void fields(IO& io, CodecRef<IO, stats::MergeableHistogram> h) {
  double lo = h.lo(), hi = h.hi();
  auto bins = static_cast<std::uint32_t>(h.bins());
  std::uint32_t nonzero = 0;
  for (std::size_t b = 0; b < h.bins(); ++b) {
    if (h.bin_count(b) != 0) ++nonzero;
  }
  io.fixed(lo);
  io.fixed(hi);
  io.fixed(bins);
  io.fixed(nonzero);
  if constexpr (IO::kReads) {
    if (lo != h.lo() || hi != h.hi() || bins != h.bins() || nonzero > bins) {
      io.fail();
    }
    for (std::uint32_t i = 0; i < nonzero && io.ok(); ++i) {
      const auto bin = io.template fixed<std::uint32_t>();
      const auto weight = io.template fixed<std::uint64_t>();
      if (bin >= bins) io.fail();
      if (io.ok()) h.add_bin(bin, weight);
    }
  } else {
    for (std::size_t b = 0; b < h.bins(); ++b) {
      if (h.bin_count(b) == 0) continue;
      io.fixed(static_cast<std::uint32_t>(b));
      io.fixed(h.bin_count(b));
    }
  }
}

template <typename IO>
void fields(IO& io, CodecRef<IO, CampaignGroup> g) {
  io.fixed(g.plays);
  fields(io, g.fps);
  fields(io, g.bw);
}

template <typename IO>
void fields(IO& io, CodecRef<IO, GroupSketch> g) {
  fields(io, g.fps);
  fields(io, g.bw);
}

// Everything after the magic and version, trailing magic included.
template <typename IO>
void fields(IO& io, CodecRef<IO, CampaignRollup> v) {
  io.fixed(v.user_first);
  io.fixed(v.user_count);
  io.fixed(v.records);
  io.fixed(v.accesses);
  io.fixed(v.unavailable);
  io.fixed(v.played);
  io.fixed(v.rated);
  io.fixed(v.udp_plays);
  io.fixed(v.tcp_plays);
  io.fixed(v.tcp_fallbacks);
  io.fixed(v.http_fallbacks);
  io.fixed(v.rtsp_retries);
  io.fixed(v.rebuffer_events);
  io.fixed(v.frames_played);
  io.fixed(v.frames_dropped);
  io.fixed(v.frames_cpu_scaled);
  io.fixed(v.bytes_received);
  io.fixed(v.packets_received);
  io.fixed(v.repairs_received);
  io.fixed(v.sum_fps_u);
  io.fixed(v.sum_bw_kbps_u);
  io.fixed(v.sum_jitter_ms_u);
  io.fixed(v.sum_preroll_s_u);
  io.fixed(v.sum_rebuffer_s_u);
  io.fixed(v.sum_play_s_u);
  io.fixed(v.sum_rating_u);
  fields(io, v.h_fps);
  fields(io, v.h_bw);
  fields(io, v.h_jitter);
  fields(io, v.h_preroll);
  fields(io, v.h_rating);
  const auto each = [&io](auto& value) { fields(io, value); };
  io.map(v.by_class, 1u << 20, each);
  io.map(v.by_region, 1u << 20, each);
  io.map(v.by_server, 1u << 20, each);
  auto& tel = v.telemetry;
  io.fixed(tel.plays);
  io.fixed(tel.samples);
  io.map(tel.by_class, 1u << 20, each);
  io.map(tel.by_region, 1u << 20, each);
  io.map(tel.by_server, 1u << 20, each);
  io.map(tel.bottleneck, 1u << 20, [&io](auto& row) {
    io.seq(row, 1u << 10,
           [&io](auto& n) { util::fixed_as<std::int64_t>(io, n); });
  });
  io.expect(kRollupMagic);
}

// The 16 md5 bytes a rollup file appends to its serialized bytes, so a
// flipped or torn byte anywhere fails load() instead of merging silently.
std::string file_digest(std::string_view bytes) {
  util::Md5 md5;
  md5.update(bytes);
  const auto digest = md5.digest();
  return std::string(digest.begin(), digest.end());
}

std::string pad_left(const std::string& s, std::size_t width) {
  return s.size() >= width ? s : std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
  return s.size() >= width ? s : s + std::string(width - s.size(), ' ');
}

std::string quantile_triplet(const stats::MergeableHistogram& h,
                             int decimals) {
  if (h.total() == 0) return "-";
  return util::str_cat(util::format_double(h.quantile(0.50), decimals), "/",
                       util::format_double(h.quantile(0.95), decimals), "/",
                       util::format_double(h.quantile(0.99), decimals));
}

std::string mean_of(std::int64_t sum_u, std::uint64_t n, int decimals) {
  if (n == 0) return "-";
  return util::format_double(from_micro(sum_u) / static_cast<double>(n),
                             decimals);
}

std::string percent_of(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "-";
  return util::format_double(
      100.0 * static_cast<double>(part) / static_cast<double>(whole), 1);
}

void append_group_table(std::string& out, const std::string& title,
                        const std::map<std::string, CampaignGroup>& groups) {
  out += "  by ";
  out += title;
  out += ":\n";
  for (const auto& [label, g] : groups) {
    out += util::str_cat("    ", pad_right(label, 18),
                         pad_left(std::to_string(g.plays), 10),
                         pad_left(quantile_triplet(g.fps, 1), 18),
                         pad_left(quantile_triplet(g.bw, 0), 18), "\n");
  }
}

}  // namespace

void CampaignGroup::fold(const tracer::TraceRecord& rec) {
  ++plays;
  fps.add(rec.stats.measured_fps);
  bw.add(to_kbps(rec.stats.measured_bandwidth));
}

void CampaignGroup::merge(const CampaignGroup& other) {
  plays += other.plays;
  fps.merge(other.fps);
  bw.merge(other.bw);
}

void CampaignRollup::fold(const tracer::TraceRecord& rec) {
  ++records;
  telemetry.fold(rec);
  if (rec.rtsp_blocked_user) return;  // excluded from analysis, as in §IV
  ++accesses;
  if (!rec.available) {
    ++unavailable;
    return;
  }
  if (!rec.stats.played_any_frame) return;
  const auto& st = rec.stats;
  ++played;
  if (st.protocol == net::Protocol::kUdp) {
    ++udp_plays;
  } else {
    ++tcp_plays;
  }
  if (st.fell_back_to_tcp) ++tcp_fallbacks;
  if (st.fell_back_to_http) ++http_fallbacks;
  rtsp_retries += static_cast<std::uint64_t>(st.rtsp_retries);
  rebuffer_events += static_cast<std::uint64_t>(st.rebuffer_events);
  frames_played += static_cast<std::uint64_t>(st.frames_played);
  frames_dropped += static_cast<std::uint64_t>(st.frames_dropped);
  frames_cpu_scaled += static_cast<std::uint64_t>(st.frames_cpu_scaled);
  bytes_received += static_cast<std::uint64_t>(st.bytes_received);
  packets_received += static_cast<std::uint64_t>(st.packets_received);
  repairs_received += static_cast<std::uint64_t>(st.repairs_received);
  const double bw_kbps = to_kbps(st.measured_bandwidth);
  sum_fps_u += micro(st.measured_fps);
  sum_bw_kbps_u += micro(bw_kbps);
  sum_jitter_ms_u += micro(st.jitter_ms);
  sum_preroll_s_u += micro(st.preroll_seconds);
  sum_rebuffer_s_u += micro(st.rebuffer_seconds);
  sum_play_s_u += micro(st.play_seconds);
  h_fps.add(st.measured_fps);
  h_bw.add(bw_kbps);
  h_jitter.add(st.jitter_ms);
  h_preroll.add(st.preroll_seconds);
  if (rec.rated()) {
    ++rated;
    sum_rating_u += micro(rec.rating);
    h_rating.add(rec.rating);
  }
  by_class[std::string(world::connection_class_name(rec.connection))].fold(
      rec);
  by_region[std::string(world::user_region_group_name(rec.user_group))].fold(
      rec);
  by_server[rec.server_name].fold(rec);
}

bool CampaignRollup::merge(const CampaignRollup& other, std::string* error) {
  if (other.user_first != user_first + user_count) {
    if (error != nullptr) {
      *error = util::str_cat("shard rollups are not contiguous: have users [",
                             user_first, ", ", user_first + user_count,
                             "), next shard starts at ", other.user_first);
    }
    return false;
  }
  user_count += other.user_count;
  records += other.records;
  accesses += other.accesses;
  unavailable += other.unavailable;
  played += other.played;
  rated += other.rated;
  udp_plays += other.udp_plays;
  tcp_plays += other.tcp_plays;
  tcp_fallbacks += other.tcp_fallbacks;
  http_fallbacks += other.http_fallbacks;
  rtsp_retries += other.rtsp_retries;
  rebuffer_events += other.rebuffer_events;
  frames_played += other.frames_played;
  frames_dropped += other.frames_dropped;
  frames_cpu_scaled += other.frames_cpu_scaled;
  bytes_received += other.bytes_received;
  packets_received += other.packets_received;
  repairs_received += other.repairs_received;
  sum_fps_u += other.sum_fps_u;
  sum_bw_kbps_u += other.sum_bw_kbps_u;
  sum_jitter_ms_u += other.sum_jitter_ms_u;
  sum_preroll_s_u += other.sum_preroll_s_u;
  sum_rebuffer_s_u += other.sum_rebuffer_s_u;
  sum_play_s_u += other.sum_play_s_u;
  sum_rating_u += other.sum_rating_u;
  h_fps.merge(other.h_fps);
  h_bw.merge(other.h_bw);
  h_jitter.merge(other.h_jitter);
  h_preroll.merge(other.h_preroll);
  h_rating.merge(other.h_rating);
  const auto merge_groups = [](std::map<std::string, CampaignGroup>& into,
                               const std::map<std::string, CampaignGroup>&
                                   from) {
    for (const auto& [label, group] : from) {
      into.try_emplace(label).first->second.merge(group);
    }
  };
  merge_groups(by_class, other.by_class);
  merge_groups(by_region, other.by_region);
  merge_groups(by_server, other.by_server);
  telemetry.merge(other.telemetry);
  return true;
}

std::string CampaignRollup::render() const {
  std::string out = util::str_cat(
      "Campaign rollup: users [", user_first, ", ", user_first + user_count,
      "), ", records, " records\n");
  out += util::str_cat("  accesses ", accesses, " (unavailable ", unavailable,
                       ", ", percent_of(unavailable, accesses),
                       "%), played ", played, ", rated ", rated, "\n");
  out += util::str_cat("  transport: udp ", udp_plays, " / tcp ", tcp_plays,
                       " (fell back to tcp ", tcp_fallbacks, ", http ",
                       http_fallbacks, ")\n");
  out += util::str_cat("  frames: ", frames_played, " played, ",
                       frames_dropped, " dropped, ", frames_cpu_scaled,
                       " cpu-scaled; ", rebuffer_events, " rebuffers, ",
                       rtsp_retries, " rtsp retries\n");
  out += util::str_cat("  volume: ", bytes_received, " bytes, ",
                       packets_received, " packets, ", repairs_received,
                       " repairs\n");
  out += util::str_cat("  means: ", mean_of(sum_fps_u, played, 2), " fps, ",
                       mean_of(sum_bw_kbps_u, played, 1), " kbps, jitter ",
                       mean_of(sum_jitter_ms_u, played, 2),
                       " ms, preroll ", mean_of(sum_preroll_s_u, played, 2),
                       " s, rebuffer ", mean_of(sum_rebuffer_s_u, played, 3),
                       " s, rating ", mean_of(sum_rating_u, rated, 2), "\n");
  out += util::str_cat("  p50/p95/p99: fps ", quantile_triplet(h_fps, 1),
                       ", kbps ", quantile_triplet(h_bw, 0), ", jitter ms ",
                       quantile_triplet(h_jitter, 1), ", preroll s ",
                       quantile_triplet(h_preroll, 1), ", rating ",
                       quantile_triplet(h_rating, 1), "\n");
  out += util::str_cat("    ", pad_right("group", 18), pad_left("plays", 10),
                       pad_left("fps p50/p95/p99", 18),
                       pad_left("kbps p50/p95/p99", 18), "\n");
  append_group_table(out, "connection class", by_class);
  append_group_table(out, "user region", by_region);
  append_group_table(out, "server", by_server);
  const std::string tel = telemetry.render();
  if (!tel.empty()) {
    out += tel;
  }
  return out;
}

std::string CampaignRollup::serialize() const {
  util::ByteWriter w;
  w.fixed(kRollupMagic);
  w.fixed(kRollupVersion);
  fields(w, *this);
  return w.take();
}

bool CampaignRollup::parse(const std::string& bytes, CampaignRollup* out,
                           std::string* error) {
  const auto fail = [error](std::string what) {
    if (error != nullptr) *error = std::move(what);
    return false;
  };
  util::ByteReader r(bytes);
  if (r.fixed<std::uint32_t>() != kRollupMagic) {
    return fail("not a campaign rollup (bad magic)");
  }
  if (r.fixed<std::uint32_t>() != kRollupVersion) {
    return fail("unsupported rollup version");
  }
  CampaignRollup v;
  fields(r, v);
  if (!r.at_end()) {
    return fail(util::str_cat("corrupt rollup at byte ", r.pos(), " of ",
                              bytes.size()));
  }
  *out = std::move(v);
  return true;
}

bool CampaignRollup::save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os.good()) return false;
  std::string bytes = serialize();
  bytes += file_digest(bytes);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.flush();
  return os.good();
}

bool CampaignRollup::load(const std::string& path, CampaignRollup* out,
                          std::string* error) {
  std::string bytes;
  if (!util::read_file(path, bytes)) {
    if (error != nullptr) *error = "cannot open rollup file: " + path;
    return false;
  }
  const std::size_t body = bytes.size() - std::min<std::size_t>(bytes.size(), 16);
  if (bytes.size() < 16 ||
      bytes.compare(body, 16, file_digest({bytes.data(), body})) != 0) {
    if (error != nullptr) *error = "rollup checksum mismatch in " + path;
    return false;
  }
  bytes.resize(body);
  if (parse(bytes, out, error)) return true;
  if (error != nullptr) *error += " in " + path;
  return false;
}

std::uint64_t peak_rss_kb() {
  return static_cast<std::uint64_t>(obs::proc_status_kb("VmHWM"));
}

namespace {

using Clock = std::chrono::steady_clock;

double wall_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void scale_plays(world::UserProfile& u, double play_scale) {
  if (play_scale < 1.0) {
    u.clips_to_play = std::max(
        1, static_cast<int>(std::lround(u.clips_to_play * play_scale)));
    u.clips_to_rate = std::min(u.clips_to_rate, u.clips_to_play);
  }
}

// Validates the knobs every play run shares and resolves the worker count
// (0 = hardware concurrency).
int play_threads(const StudyConfig& config) {
  RV_CHECK(config.play_scale > 0.0 && config.play_scale <= 1.0)
      << "play_scale must be in (0, 1], got " << config.play_scale;
  RV_CHECK_GE(config.threads, 0)
      << "threads must be >= 0 (0 = hardware concurrency)";
  const int n = config.threads > 0
                    ? config.threads
                    : static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(n, 1, 64);
}

// Receives each finished chunk: its users and their records in slot
// (user-major, play-minor) order. It may move from either vector.
using ChunkSink = std::function<void(std::vector<world::UserProfile>& users,
                                     std::vector<tracer::TraceRecord>& records)>;

// The one play driver behind run_study and run_campaign: runs users
// [first, last) of the `replicas`-fold population `chunk_users` at a time
// and hands each chunk to `sink`. Results depend only on the config and the
// user range, never on the thread count or chunking. Returns the worker
// profile (empty unless config.profile; when off, no clock is read).
StudyProfile run_plays(const StudyConfig& config, std::uint64_t replicas,
                       std::uint64_t first, std::uint64_t last,
                       std::uint64_t chunk_users, const ChunkSink& sink) {
  const int n_threads = play_threads(config);
  const media::Catalog catalog = make_catalog(config);
  const world::RegionGraph graph;
  tracer::TracerConfig tracer_cfg = config.tracer;
  // Tie the fault universe to the study seed unless pinned explicitly.
  if (tracer_cfg.faults.seed == 0) tracer_cfg.faults.seed = config.seed;
  tracer::RealTracer tracer(catalog, graph, tracer_cfg);

  const bool profiling = config.profile;
  StudyProfile profile;
  profile.enabled = profiling;
  if (profiling) profile.workers.resize(static_cast<std::size_t>(n_threads));
  Clock::time_point phase{};
  if (profiling) phase = Clock::now();

  if (tracer_cfg.faults.enabled &&
      tracer_cfg.faults.mechanistic_unavailability) {
    // Mechanistic unavailability grids each site's accesses over the whole
    // population, so the range needs every user's per-site totals and its
    // own users' starting ranks. Profile generation is ~1000x cheaper than
    // play execution, so one streaming pass is affordable; only users in
    // range keep a per-user base, bounding memory.
    tracer.access_plan_begin();
    world::PopulationStream all(config.population, replicas);
    for (std::uint64_t id = 0; id < all.size(); ++id) {
      world::UserProfile u = all.next();
      scale_plays(u, config.play_scale);
      tracer.access_plan_add(u, /*keep_base=*/id >= first && id < last);
    }
  }
  if (profiling) profile.plan_seconds += wall_since(phase);

  // Contexts persist across chunks, so steady-state chunks allocate
  // ~nothing. Each is created by the worker that uses it: it lands in that
  // thread's malloc arena, apart from the other workers' and the caller's.
  std::vector<std::unique_ptr<tracer::PlayContext>> contexts(
      static_cast<std::size_t>(n_threads));
  world::PopulationStream stream(config.population, replicas);
  stream.skip(first);
  std::vector<world::UserProfile> users;
  std::vector<tracer::TraceRecord> records;
  // Each slot is written by exactly one worker; a TraceRecord spans several
  // cache lines, so neighbouring writers cannot ping-pong a line.
  static_assert(sizeof(tracer::TraceRecord) >= 64,
                "result slots narrower than a cache line: give the executor "
                "per-worker spans or align the slots");

  for (std::uint64_t pos = first; pos < last;) {
    const std::uint64_t count = std::min(chunk_users, last - pos);
    users.clear();
    users.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      users.push_back(stream.next());
      scale_plays(users.back(), config.play_scale);
    }
    pos += count;

    // Plan, then execute: the serial plan fixes every input a play consumes
    // and a preassigned record slot, so workers may drain the tasks
    // cost-descending in any interleaving and the output stays
    // byte-identical for any thread count.
    if (profiling) phase = Clock::now();
    const tracer::StudyPlan plan = tracer.build_plan(users, config.seed);
    if (profiling) profile.plan_seconds += wall_since(phase);
    records.resize(plan.tasks.size());

    // Claims need no ordering: workers only read state published before
    // the threads started and publish records via join; fetch_add is still
    // a total order on the counter, so each task is claimed exactly once.
    // Line-aligned so no neighbouring stack slot shares its cache line.
    alignas(64) std::atomic<std::size_t> next{0};
    const auto worker = [&](int worker_index) {
      const auto w = static_cast<std::size_t>(worker_index);
      if (contexts[w] == nullptr) {
        contexts[w] = std::make_unique<tracer::PlayContext>();
      }
      tracer::PlayContext& ctx = *contexts[w];
      WorkerProfile* wp = profiling ? &profile.workers[w] : nullptr;
      while (true) {
        const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
        if (k >= plan.order.size()) return;
        const tracer::PlayTask& task = plan.tasks[plan.order[k]];
        if (wp == nullptr) {
          records[task.record_slot] =
              tracer.run_play(task, users[task.user_index], ctx);
          continue;
        }
        const auto play_start = Clock::now();
        records[task.record_slot] =
            tracer.run_play(task, users[task.user_index], ctx);
        const double dt = wall_since(play_start);
        ++wp->plays;
        wp->busy_seconds += dt;
        wp->max_play_seconds = std::max(wp->max_play_seconds, dt);
      }
    };
    if (profiling) phase = Clock::now();
    if (n_threads == 1 || plan.tasks.size() < 2) {
      worker(0);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(n_threads));
      for (int i = 0; i < n_threads; ++i) pool.emplace_back(worker, i);
      for (auto& t : pool) t.join();
    }
    if (profiling) profile.execute_seconds += wall_since(phase);
    sink(users, records);
  }

  // Idle = starvation: execute wall a worker spent off-task (queue drained,
  // or waiting on the last straggler play).
  for (auto& wp : profile.workers) {
    wp.idle_seconds = std::max(0.0, profile.execute_seconds - wp.busy_seconds);
  }
  return profile;
}

}  // namespace

StudyResult run_study(const StudyConfig& config) {
  // One chunk, so the cost-descending execution order spans every play.
  const std::uint64_t n_users =
      world::PopulationStream(config.population, 1).size();
  StudyResult result;
  result.profile = run_plays(
      config, 1, 0, n_users, n_users,
      [&result](std::vector<world::UserProfile>& users,
                std::vector<tracer::TraceRecord>& records) {
        result.users = std::move(users);
        result.records = std::move(records);
      });
  return result;
}

CampaignResult run_campaign(const CampaignConfig& config) {
  RV_CHECK_GE(config.plays_scale, 1u) << "plays_scale must be >= 1";
  RV_CHECK_GE(config.shard_count, 1u) << "shard_count must be >= 1";
  RV_CHECK_LT(config.shard_index, config.shard_count)
      << "shard_index must be < shard_count";
  RV_CHECK_GE(config.chunk_users, 1u) << "chunk_users must be >= 1";
  const StudyConfig& study = config.study;
  CampaignResult res;
  res.threads = play_threads(study);

  const std::uint64_t total_users =
      world::PopulationStream(study.population, config.plays_scale).size();
  const std::uint64_t first =
      total_users * config.shard_index / config.shard_count;
  const std::uint64_t last =
      total_users * (config.shard_index + 1) / config.shard_count;
  res.rollup.user_first = first;
  res.rollup.user_count = last - first;
  res.users = last - first;

  // Wall-clock-side liveness metrics (no-ops unless a registry is
  // installed; never feeds back into sim state or the RNG tree).
  obs::metrics_gauge_set(obs::MetricGauge::kUsersPlanned,
                         static_cast<std::int64_t>(last - first));
  obs::metrics_gauge_set(obs::MetricGauge::kShardIndex, config.shard_index);
  obs::metrics_gauge_set(obs::MetricGauge::kShardCount, config.shard_count);
  obs::metrics_gauge_set(obs::MetricGauge::kLastFoldUser,
                         static_cast<std::int64_t>(first));
  obs::metrics_gauge_set(obs::MetricGauge::kWorkers, res.threads);

  std::unique_ptr<SpillWriter> writer;
  if (!config.spill_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config.spill_dir, ec);
    if (ec) {
      throw std::runtime_error("cannot create spill dir: " + config.spill_dir);
    }
    res.spill_path = config.spill_dir + "/records.spill";
    res.rollup_path = config.spill_dir + "/rollup.bin";
    writer = std::make_unique<SpillWriter>(res.spill_path);
    if (!writer->ok()) {
      throw std::runtime_error("cannot write spill file: " + res.spill_path);
    }
  }

  std::uint64_t users_done = 0;
  std::uint64_t spill_bytes_fed = 0, spill_frames_fed = 0;
  // Fold + spill in slot (user-major, play-minor) order: the global record
  // sequence across chunks and shards is the user-id order, which is what
  // makes the merged spill byte-identical to a single-process run.
  const auto fold_chunk = [&](std::vector<world::UserProfile>& users,
                              std::vector<tracer::TraceRecord>& records) {
    for (const auto& rec : records) {
      res.rollup.fold(rec);
      if (writer != nullptr) writer->append(rec);
      if (rec.analyzable()) {
        obs::metrics_observe(obs::MetricHist::kPlayFps,
                             rec.stats.measured_fps);
        obs::metrics_observe(obs::MetricHist::kPlayBandwidthKbps,
                             to_kbps(rec.stats.measured_bandwidth));
      }
    }
    res.plays += records.size();
    users_done += users.size();
    obs::metrics_add(obs::Metric::kPlaysCompleted, records.size());
    obs::metrics_add(obs::Metric::kUsersCompleted, users.size());
    obs::metrics_add(obs::Metric::kChunksCompleted);
    obs::metrics_gauge_set(obs::MetricGauge::kLastFoldUser,
                           static_cast<std::int64_t>(first + users_done));
    if (writer != nullptr) {
      obs::metrics_add(obs::Metric::kSpillBytesWritten,
                       writer->bytes_written() - spill_bytes_fed);
      obs::metrics_add(obs::Metric::kSpillFramesWritten,
                       writer->frames_written() - spill_frames_fed);
      spill_bytes_fed = writer->bytes_written();
      spill_frames_fed = writer->frames_written();
    }
    obs::metrics_gauge_set(obs::MetricGauge::kRssKb, obs::current_rss_kb());
    if (config.progress) config.progress(res.plays, users_done, res.users);
  };

  const auto t0 = std::chrono::steady_clock::now();
  run_plays(study, config.plays_scale, first, last, config.chunk_users,
            fold_chunk);
  res.execute_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (writer != nullptr) {
    if (!writer->finish()) {
      throw std::runtime_error("cannot finalize spill file: " +
                               res.spill_path);
    }
    // The footer written by finish() is part of the spill byte count.
    obs::metrics_add(obs::Metric::kSpillBytesWritten,
                     writer->bytes_written() - spill_bytes_fed);
    obs::metrics_add(obs::Metric::kSpillFramesWritten,
                     writer->frames_written() - spill_frames_fed);
  }
  if (!res.rollup_path.empty() && !res.rollup.save(res.rollup_path)) {
    throw std::runtime_error("cannot write rollup file: " + res.rollup_path);
  }
  res.peak_rss_kb = peak_rss_kb();
  return res;
}

}  // namespace rv::study
