// perfbench, the ReTracer benchmark program. Runs one workload through the
// public study API (study::run_study, study::run_campaign, and
// RealTracer::build_plan/run_play for the traced pass), checks every output
// against a reference digest, and prints its metrics; the last stdout line
// is one JSON object.
//
//   perfbench --workload paper-study|clean-tcp|campaign-spill --seed N
//             --seconds S --trace 0|1 [--scale X] [--work-dir DIR]
//             [--self-test]
//
// --trace 0 prints the end-to-end metrics (tracing off); --trace 1 runs the
// traced pass and prints the per-layer metrics. --self-test checks the
// output check itself instead (see run_self_test). perfbench/README.md
// describes the workloads and which end-to-end metric each layer metric
// should move.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "study/cache.h"
#include "study/campaign.h"
#include "study/spill.h"
#include "study/study.h"
#include "tracer/real_tracer.h"
#include "util/args.h"
#include "util/md5.h"
#include "world/users.h"

namespace {

using namespace rv;
using Clock = std::chrono::steady_clock;

// The core count the committed baseline was measured on. A run on fewer
// cores is labelled so its figures are not compared with that baseline.
constexpr int kRecordedCores = 4;
// The seed whose outputs are pinned (see kPinned) and the default --seed.
constexpr std::uint64_t kPinnedSeed = 2001;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t ns_since(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// CPU time the hypervisor gave to other guests while this process's CPUs
// had work: the steal column of the per-CPU lines of /proc/stat, summed
// over the CPUs the process may run on, in seconds. 0 where the kernel does
// not report it or the affinity mask is unknown.
double steal_seconds() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0.0;
  std::ifstream is("/proc/stat");
  std::string line;
  double ticks = 0;
  while (std::getline(is, line) && line.rfind("cpu", 0) == 0) {
    // "cpuN user nice system idle iowait irq softirq steal ..."; the
    // aggregate "cpu " line has no N and is skipped.
    if (line.size() < 4 || !std::isdigit(static_cast<unsigned char>(line[3]))) {
      continue;
    }
    std::istringstream fields(line.substr(3));
    int cpu = 0;
    double column[8] = {};
    fields >> cpu;
    for (double& t : column) fields >> t;
    if (fields && cpu < CPU_SETSIZE && CPU_ISSET(cpu, &set)) {
      ticks += column[7];
    }
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile (p in [0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  std::uint64_t seed = 0;  // --seed (what it draws depends on the workload)
  bool campaign = false;
  study::CampaignConfig config;  // config.study alone for study workloads
};

// Sizes: one untraced repetition takes 0.5-3.5 s on four cores, so a run
// holds several and reports their median.
constexpr double kPaperStudyScale = 0.1;
constexpr double kCleanTcpScale = 0.1;
constexpr double kCampaignScale = 0.02;
constexpr std::uint64_t kCampaignReplicas = 20;
constexpr std::uint64_t kCampaignChunkUsers = 32;
// Cross-traffic loads top out at 1.15 (congestion episodes); a threshold
// above that builds no cross-traffic source while drawing the same rng
// values, so the foreground sessions see clean paths.
constexpr double kNoCrossTrafficLoad = 2.0;

// What --seed draws differs by workload, so that every seed asks for about
// the same amount of simulation (the spread across seeds is the benchmark's
// noise floor):
//   paper-study     the study seed (clip catalog, per-play network draws);
//                   the population stays the paper's 63 volunteers.
//   clean-tcp       the fault universe; catalog, population and plays stay
//                   the seed-2001 ones. Without cross traffic a play's cost
//                   follows its clip's bit rate, so a re-drawn catalog alone
//                   moves the run time by ~20%.
//   campaign-spill  the synthesized population (20 replicas, so its mix of
//                   connection classes averages out); catalog fixed.
bool make_workload(const std::string& name, std::uint64_t seed, double scale,
                   int threads, const std::string& work_dir, Workload* out) {
  Workload w;
  w.name = name;
  w.seed = seed;
  study::StudyConfig& s = w.config.study;
  s.threads = threads;
  if (name == "paper-study") {
    s.seed = seed;
    s.play_scale = scale > 0 ? scale : kPaperStudyScale;
  } else if (name == "clean-tcp") {
    s.play_scale = scale > 0 ? scale : kCleanTcpScale;
    s.tracer.direct_tcp_probability = 1.0;
    s.tracer.tcp_sack = true;
    s.tracer.tcp_cc = transport::CcAlgorithm::kBbr;
    s.tracer.faults.enabled = true;
    s.tracer.faults.seed = seed;
    s.tracer.faults.overload_probability = 0.05;
    s.tracer.faults.link_down_probability = 0.05;
    s.tracer.faults.corruption_probability = 0.05;
    s.tracer.path.negligible_load = kNoCrossTrafficLoad;
  } else if (name == "campaign-spill") {
    w.campaign = true;
    s.population.seed = seed;
    s.play_scale = scale > 0 ? scale : kCampaignScale;
    s.tracer.path.negligible_load = kNoCrossTrafficLoad;
    w.config.plays_scale = kCampaignReplicas;
    w.config.chunk_users = kCampaignChunkUsers;
    w.config.spill_dir = work_dir + "/spill";
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

// Output digests pinned at seed 2001, so that a change which alters the
// simulated results deterministically fails the output check there: the
// study-cache md5 of the full-scale default study (ROADMAP), and each
// workload at its default scale.
struct PinnedDigest {
  const char* workload;
  double play_scale;
  const char* md5;
};
constexpr PinnedDigest kPinned[] = {
    {"paper-study", 1.0, "2dd09fa1d1a680ecc17ec6f499699b65"},
    {"paper-study", kPaperStudyScale, "2963058fa638722a3386e30a932b4c84"},
    {"clean-tcp", kCleanTcpScale, "01984513c41a8236aba2c514ff3f8c85"},
    {"campaign-spill", kCampaignScale, "f322beae3b3f9d4f8333bdb5f586c088"},
};

// The pinned digest of `w`, or nullptr when its seed and scale have none.
const char* pinned_digest(const Workload& w) {
  if (w.seed != kPinnedSeed) return nullptr;
  for (const PinnedDigest& p : kPinned) {
    if (w.name == p.workload && w.config.study.play_scale == p.play_scale) {
      return p.md5;
    }
  }
  return nullptr;
}

// Mirrors run_study's play scaling of a generated population.
void scale_user(world::UserProfile& u, double play_scale) {
  if (play_scale < 1.0) {
    u.clips_to_play = std::max(
        1, static_cast<int>(std::lround(u.clips_to_play * play_scale)));
    u.clips_to_rate = std::min(u.clips_to_rate, u.clips_to_play);
  }
}

tracer::TracerConfig tracer_config(const study::StudyConfig& s) {
  tracer::TracerConfig t = s.tracer;
  if (t.faults.seed == 0) t.faults.seed = s.seed;
  return t;
}

// ---------------------------------------------------------------------------
// Output check: every run's outputs reduce to one md5.

// Study workloads: the bytes save_result writes (the study-cache format the
// pinned md5 covers).
std::string study_digest(const study::StudyConfig& config,
                         const study::StudyResult& result,
                         const std::string& work_dir) {
  const std::string path = work_dir + "/study.cache";
  if (!study::save_result(path, config, result)) return "save-failed";
  return util::md5_file_hex(path);
}

// Campaign workloads: the rollup's serialized bytes, then the spill file
// (streamed, so the check adds no spill-sized buffer to the peak RSS).
std::string campaign_digest(const study::CampaignRollup& rollup,
                            const std::string& spill_path) {
  util::Md5 md5;
  md5.update(rollup.serialize());
  std::ifstream is(spill_path, std::ios::binary);
  if (!is) return "no-spill";
  char buf[1 << 16];
  while (is.read(buf, sizeof(buf)) || is.gcount() > 0) {
    md5.update(buf, static_cast<std::size_t>(is.gcount()));
  }
  return md5.hex_digest();
}

// ---------------------------------------------------------------------------
// Fidelity: mean relative error against the paper's headline scalars
// (EXPERIMENTS.md): Fig 11 mean fps 10 and 25% < 3 fps, Fig 16 56% UDP,
// Fig 10 10% unavailable, Fig 20 50% jitter < 50 ms, Fig 26 mean rating 5.
double paper_error(const std::vector<tracer::TraceRecord>& records) {
  double accesses = 0, unavailable = 0, played = 0, fps_sum = 0, low_fps = 0,
         udp = 0, low_jitter = 0, rated = 0, rating_sum = 0;
  for (const auto& r : records) {
    if (r.rtsp_blocked_user) continue;
    ++accesses;
    if (!r.available) ++unavailable;
    if (!r.analyzable()) continue;
    ++played;
    fps_sum += r.stats.measured_fps;
    if (r.stats.measured_fps < 3.0) ++low_fps;
    if (r.stats.protocol == net::Protocol::kUdp) ++udp;
    if (r.stats.jitter_ms < 50.0) ++low_jitter;
    if (r.rated()) {
      ++rated;
      rating_sum += r.rating;
    }
  }
  const auto share = [](double n, double d) { return d > 0 ? n / d : 0.0; };
  const std::pair<double, double> pairs[] = {
      {share(fps_sum, played), 10.0},   {share(low_fps, played), 0.25},
      {share(udp, played), 0.56},       {share(unavailable, accesses), 0.10},
      {share(low_jitter, played), 0.50}, {share(rating_sum, rated), 5.0},
  };
  double err = 0;
  for (const auto& [measured, paper] : pairs) {
    err += std::fabs(measured - paper) / paper;
  }
  return err / static_cast<double>(std::size(pairs));
}

std::vector<tracer::TraceRecord> read_spill(const std::string& path) {
  std::vector<tracer::TraceRecord> all, frame;
  study::SpillReader reader;
  if (!reader.open(path)) return all;
  for (std::size_t f = 0; f < reader.frames(); ++f) {
    if (!reader.read_frame(f, frame)) return {};
    all.insert(all.end(), frame.begin(), frame.end());
  }
  return all;
}

// ---------------------------------------------------------------------------
// One execution of a workload through the library's own executor.

struct RunOutcome {
  bool ok = false;            // completed without throwing
  std::string error;
  std::uint64_t plays = 0;    // records produced
  double wall_s = 0;          // the run_study / run_campaign call alone
  double cpu_s = 0;           // process CPU over the same interval
  double steal_s = 0;         // host steal over the same interval
  std::string digest;
  study::StudyResult study;   // study workloads (kept for post-checks)
  study::CampaignResult campaign;
};

RunOutcome run_once(const Workload& w, int threads, bool profile,
                    const std::string& work_dir,
                    const std::function<void(std::uint64_t, std::uint64_t,
                                             std::uint64_t)>& progress = {}) {
  RunOutcome out;
  try {
    if (w.campaign) {
      study::CampaignConfig cfg = w.config;
      cfg.study.threads = threads;
      cfg.progress = progress;
      const double c0 = cpu_seconds(), s0 = steal_seconds();
      const auto t0 = Clock::now();
      out.campaign = study::run_campaign(cfg);
      out.wall_s = seconds_since(t0);
      out.cpu_s = cpu_seconds() - c0;
      out.steal_s = steal_seconds() - s0;
      out.plays = out.campaign.plays;
      out.digest =
          campaign_digest(out.campaign.rollup, out.campaign.spill_path);
    } else {
      study::StudyConfig cfg = w.config.study;
      cfg.threads = threads;
      cfg.profile = profile;
      const double c0 = cpu_seconds(), s0 = steal_seconds();
      const auto t0 = Clock::now();
      out.study = study::run_study(cfg);
      out.wall_s = seconds_since(t0);
      out.cpu_s = cpu_seconds() - c0;
      out.steal_s = steal_seconds() - s0;
      out.plays = out.study.records.size();
      out.digest = study_digest(cfg, out.study, work_dir);
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

// The digest every run of (workload, seed, scale) must reproduce: the pinned
// one where there is one, otherwise a 1-thread run (thread count never
// changes results).
std::string reference_digest(const Workload& w, const std::string& work_dir) {
  if (const char* pinned = pinned_digest(w)) return pinned;
  const RunOutcome ref = run_once(w, 1, false, work_dir);
  if (!ref.ok) {
    std::printf("# reference run failed: %s\n", ref.error.c_str());
    return "reference-failed";
  }
  return ref.digest;
}

// The digest of a finished run with one output altered in place: one
// record's frame count for a study, the rollup's frame total for a
// campaign. The output check must reject it.
std::string altered_digest(const Workload& w, RunOutcome& run,
                           const std::string& work_dir) {
  if (w.campaign) {
    ++run.campaign.rollup.frames_played;
    return campaign_digest(run.campaign.rollup, run.campaign.spill_path);
  }
  if (run.study.records.empty()) return "no-records";
  ++run.study.records.front().stats.frames_played;
  return study_digest(w.config.study, run.study, work_dir);
}

// ---------------------------------------------------------------------------
// Set-up: everything before the first play can run.

// Seconds from nothing to a plan whose first play can run; negative when
// the plan is empty (a broken set-up).
double setup_once(const Workload& w) {
  const study::StudyConfig& s = w.config.study;
  const auto t0 = Clock::now();
  const media::Catalog catalog = study::make_catalog(s);
  const world::RegionGraph graph;
  tracer::RealTracer tr(catalog, graph, tracer_config(s));
  std::vector<world::UserProfile> users;
  if (w.campaign) {
    world::PopulationStream stream(s.population, w.config.plays_scale);
    const std::uint64_t n = std::min(w.config.chunk_users, stream.size());
    for (std::uint64_t i = 0; i < n; ++i) {
      users.push_back(stream.next());
      scale_user(users.back(), s.play_scale);
    }
  } else {
    users = world::generate_population(s.population);
    for (auto& u : users) scale_user(u, s.play_scale);
    tr.plan_access_times(users);
  }
  const tracer::StudyPlan plan = tr.build_plan(users, s.seed);
  return plan.tasks.empty() ? -1.0 : seconds_since(t0);
}

// ---------------------------------------------------------------------------
// Traced pass: the benchmark's own replay of the executor over
// build_plan/run_play, with one span per call into a layer and the layer
// counters read from the PlayContext after each play.

struct Span {
  const char* name;
  std::uint64_t id;      // request id: the record's global ordinal
  std::uint64_t parent;  // id of the enclosing chunk span (0 = none)
  int tid;
  std::int64_t t0_ns;
  std::int64_t t1_ns;
};

struct PlayCounts {
  bool sim = false;
  std::int64_t ns = 0;
  std::uint64_t events = 0;
  std::uint64_t slot_capacity = 0;
  std::uint64_t link_packets = 0;
  std::uint64_t cross_packets = 0;
  std::uint64_t drops = 0;
  std::uint64_t pool_slots = 0;
};

PlayCounts read_counts(const tracer::PlayContext& ctx) {
  PlayCounts c;
  c.sim = true;
  c.events = ctx.sim.events_executed();
  c.slot_capacity = ctx.sim.slot_capacity();
  const net::Network& net = *ctx.path.network;
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    const net::Link& link = net.link(i);
    for (const net::NodeId end : {link.a(), link.b()}) {
      const net::LinkStats& st = link.direction_from(end).stats();
      c.link_packets += st.packets_sent;
      c.drops += st.packets_dropped;
    }
  }
  for (const auto& src : ctx.path.cross_traffic) {
    c.cross_packets += src->packets_emitted();
  }
  c.pool_slots = net.packet_pool().allocated();
  return c;
}

struct TraceLog {
  Clock::time_point origin = Clock::now();
  std::vector<std::vector<Span>> spans;  // one vector per worker (+ main)
  std::vector<PlayCounts> plays;         // one per executed task
  double busy_s = 0;                     // sum of run_play spans
  double execute_wall_s = 0;             // sum of execute-phase walls
  double population_s = 0;
  double plan_s = 0;
  double fold_s = 0;
  double spill_s = 0;
  double replay_s = 0;  // wall of the replay, set-up included

  explicit TraceLog(int threads)
      : spans(static_cast<std::size_t>(threads) + 1) {}
  std::vector<Span>& main() { return spans.back(); }
  int main_tid() const { return static_cast<int>(spans.size()) - 1; }

  // Writes every span as Chrome trace_event JSON.
  bool write(const std::string& path) const {
    std::ofstream os(path);
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    bool first = true;
    for (const auto& lane : spans) {
      for (const Span& s : lane) {
        os << (first ? "" : ",") << "\n{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
           << ",\"ts\":" << static_cast<double>(s.t0_ns) / 1e3
           << ",\"dur\":" << static_cast<double>(s.t1_ns - s.t0_ns) / 1e3
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << "}}";
        first = false;
      }
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }
};

// Runs every task of `plan` on `threads` workers, writing records into their
// slots, and logs one span + one PlayCounts row per task.
void traced_execute(const tracer::RealTracer& tr, const tracer::StudyPlan& plan,
                    const std::vector<world::UserProfile>& users,
                    std::deque<tracer::PlayContext>& contexts,
                    std::uint64_t first_record, std::uint64_t parent,
                    std::vector<tracer::TraceRecord>& records, TraceLog& log) {
  const int threads = static_cast<int>(contexts.size());
  records.assign(plan.tasks.size(), tracer::TraceRecord{});
  std::vector<PlayCounts> rows(plan.tasks.size());
  std::vector<double> busy(static_cast<std::size_t>(threads), 0.0);
  std::atomic<std::size_t> next{0};
  // A play that throws stops every worker; the first error is rethrown
  // after the join.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  auto work = [&](int wi) {
    tracer::PlayContext& ctx = contexts[static_cast<std::size_t>(wi)];
    std::vector<Span>& lane = log.spans[static_cast<std::size_t>(wi)];
    while (true) {
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= plan.order.size()) return;
      const tracer::PlayTask& task = plan.tasks[plan.order[k]];
      const std::int64_t t0 = ns_since(log.origin);
      records[task.record_slot] =
          tr.run_play(task, users[task.user_index], ctx);
      const std::int64_t t1 = ns_since(log.origin);
      PlayCounts& row = rows[task.record_slot];
      if (task.needs_sim) row = read_counts(ctx);
      row.ns = t1 - t0;
      busy[static_cast<std::size_t>(wi)] += static_cast<double>(t1 - t0) / 1e9;
      lane.push_back({"run_play", first_record + task.record_slot, parent, wi,
                      t0, t1});
    }
  };
  auto worker = [&](int wi) {
    try {
      work(wi);
    } catch (...) {
      errors[static_cast<std::size_t>(wi)] = std::current_exception();
      next.store(plan.order.size(), std::memory_order_relaxed);
    }
  };
  const auto t0 = Clock::now();
  if (threads == 1 || plan.tasks.size() < 2) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    for (int i = 0; i < threads; ++i) pool.emplace_back(worker, i);
    for (auto& t : pool) t.join();
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  log.execute_wall_s += seconds_since(t0);
  for (double b : busy) log.busy_s += b;
  log.plays.insert(log.plays.end(), rows.begin(), rows.end());
}

// Times `fn` as one span on the main lane; returns its seconds.
template <typename Fn>
double main_span(TraceLog& log, const char* name, std::uint64_t id,
                 std::uint64_t parent, Fn&& fn) {
  const std::int64_t t0 = ns_since(log.origin);
  fn();
  const std::int64_t t1 = ns_since(log.origin);
  log.main().push_back({name, id, parent, log.main_tid(), t0, t1});
  return static_cast<double>(t1 - t0) / 1e9;
}

// Replays a study workload; returns the digest of its records.
std::string traced_study(const Workload& w, int threads,
                         const std::string& work_dir, TraceLog& log) {
  study::StudyConfig cfg = w.config.study;
  cfg.threads = threads;
  study::StudyResult result;
  log.population_s += main_span(log, "population", 0, 0, [&] {
    result.users = world::generate_population(cfg.population);
    for (auto& u : result.users) scale_user(u, cfg.play_scale);
  });
  const media::Catalog catalog = study::make_catalog(cfg);
  const world::RegionGraph graph;
  tracer::RealTracer tr(catalog, graph, tracer_config(cfg));
  tracer::StudyPlan plan;
  log.plan_s += main_span(log, "plan", 0, 0, [&] {
    tr.plan_access_times(result.users);
    plan = tr.build_plan(result.users, cfg.seed);
  });
  std::deque<tracer::PlayContext> contexts(static_cast<std::size_t>(threads));
  traced_execute(tr, plan, result.users, contexts, 0, 0, result.records, log);
  log.replay_s = seconds_since(log.origin);
  return study_digest(cfg, result, work_dir);
}

// Replays a campaign workload chunk by chunk (mirroring run_campaign for a
// campaign without mechanistic outages, whose access plan this skips);
// returns the digest of its rollup and spill.
std::string traced_campaign(const Workload& w, int threads,
                            const std::string& work_dir, TraceLog& log) {
  const study::StudyConfig& s = w.config.study;
  const media::Catalog catalog = study::make_catalog(s);
  const world::RegionGraph graph;
  tracer::RealTracer tr(catalog, graph, tracer_config(s));
  world::PopulationStream stream(s.population, w.config.plays_scale);
  const std::uint64_t total = stream.size();
  study::CampaignRollup rollup;
  rollup.user_first = 0;
  rollup.user_count = total;
  const std::string spill_path = work_dir + "/traced.spill";
  study::SpillWriter writer(spill_path);
  std::deque<tracer::PlayContext> contexts(static_cast<std::size_t>(threads));
  std::vector<world::UserProfile> users;
  std::vector<tracer::TraceRecord> records;
  std::uint64_t chunk = 0;
  for (std::uint64_t pos = 0; pos < total; ++chunk) {
    const std::uint64_t count = std::min(w.config.chunk_users, total - pos);
    const std::uint64_t chunk_id = chunk + 1;
    const std::uint64_t first_record = log.plays.size();
    const std::int64_t c0 = ns_since(log.origin);
    log.population_s += main_span(log, "population", chunk_id, 0, [&] {
      users.clear();
      for (std::uint64_t i = 0; i < count; ++i) {
        users.push_back(stream.next());
        scale_user(users.back(), s.play_scale);
      }
    });
    tracer::StudyPlan plan;
    log.plan_s += main_span(log, "plan", chunk_id, 0,
                            [&] { plan = tr.build_plan(users, s.seed); });
    traced_execute(tr, plan, users, contexts, first_record, chunk_id, records,
                   log);
    log.fold_s += main_span(log, "fold", chunk_id, 0, [&] {
      for (const auto& r : records) rollup.fold(r);
    });
    log.spill_s += main_span(log, "spill", chunk_id, 0, [&] {
      for (const auto& r : records) writer.append(r);
    });
    log.main().push_back(
        {"chunk", chunk_id, 0, log.main_tid(), c0, ns_since(log.origin)});
    pos += count;
  }
  if (!writer.finish()) return "spill-failed";
  log.replay_s = seconds_since(log.origin);
  return campaign_digest(rollup, spill_path);
}

// ---------------------------------------------------------------------------
// Result printing.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-30s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Context {
  Workload w;
  std::uint64_t seed = kPinnedSeed;
  int cores = 1;
  int threads = 1;
  double seconds = 10;
  std::string work_dir;
};

// Output-check accounting shared by both passes.
struct Check {
  std::string reference;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void fail(const std::string& what) {
    correct = false;
    std::printf("# output check failed: %s\n", what.c_str());
  }
  // Counts one run's plays; a run that threw or whose digest differs from
  // the reference fails all of them.
  void count(const RunOutcome& r, std::uint64_t expected_plays,
             const char* label) {
    const std::uint64_t plays = r.ok ? r.plays : expected_plays;
    attempted += plays;
    if (!r.ok) {
      failed += plays;
      fail(std::string(label) + " threw: " + r.error);
    } else if (r.digest != reference) {
      failed += plays;
      fail(std::string(label) + " digest " + r.digest + " != reference " +
           reference);
    }
  }
};

// --trace 0: the end-to-end metrics.
int run_untraced(const Context& c) {
  const Workload& w = c.w;
  // Set-up, many times over the whole run (before and between the timed
  // calls, so one slow stretch of the host does not set the median).
  std::vector<double> setups;
  const auto measure_setups = [&](int n) {
    for (int i = 0; i < n; ++i) setups.push_back(setup_once(w));
  };
  measure_setups(15);
  Check check;
  if (*std::min_element(setups.begin(), setups.end()) < 0) {
    check.fail("set-up planned no plays");
  }
  check.reference = reference_digest(w, c.work_dir);

  // In a virtual machine the hypervisor can take CPU time from every core
  // for many seconds at a time (steal). A call's time is its wall minus the
  // mean time stolen from the process's CPUs during it (one worker per
  // CPU), so that run_s and core_util measure ReTracer rather than the
  // neighbours.
  std::vector<double> walls, utils;
  std::uint64_t plays = 0;
  RunOutcome last;
  std::printf("# timed calls, wall s (steal %%):");
  const auto loop_start = Clock::now();
  do {
    last = RunOutcome{};  // free the previous outputs before measuring
    last = run_once(w, c.threads, false, c.work_dir);
    check.count(last, plays, "timed run");
    if (last.ok) {
      plays = last.plays;
      const double steal_share = last.steal_s / (last.wall_s * c.threads);
      const double wall = last.wall_s * (1.0 - std::min(steal_share, 0.9));
      walls.push_back(wall);
      utils.push_back(last.cpu_s / (wall * c.threads));
      std::printf(" %.4f (%.0f%%)", last.wall_s, 100 * steal_share);
    }
    measure_setups(5);
  } while (seconds_since(loop_start) < c.seconds && check.correct);
  const double peak_rss_mb =
      static_cast<double>(study::peak_rss_kb()) / 1024.0;
  std::printf("\n# %zu calls of %llu plays; digest %s reference %s%s\n",
              walls.size(), static_cast<unsigned long long>(plays),
              last.digest.c_str(), check.reference.c_str(),
              pinned_digest(w) ? " (pinned)" : "");

  // Fidelity and a negative test of the output check, on the last run.
  double paper_err = 0;
  if (last.ok) {
    paper_err = paper_error(w.campaign ? read_spill(last.campaign.spill_path)
                                       : last.study.records);
    if (altered_digest(w, last, c.work_dir) == check.reference) {
      check.fail("an altered output passed the output check");
    }
  }
  const double failed_frac =
      check.attempted ? static_cast<double>(check.failed) /
                            static_cast<double>(check.attempted)
                      : 1.0;
  // Neither is a bounded end-to-end metric: failed_frac is 0 on a healthy
  // run (the result line's failed/attempted carry it), and paper_err moves
  // with the seed's sample (the traced pass reports it as study.paper_err).
  std::printf("# failed_frac %.6g (%llu of %llu plays)\n# paper_err %.6g\n",
              failed_frac, static_cast<unsigned long long>(check.failed),
              static_cast<unsigned long long>(check.attempted), paper_err);
  const double run_s = median(walls);
  print_result(check.correct, std::max<std::uint64_t>(check.attempted, 1),
               check.failed,
               {{"setup_s", median(setups), "s"},
                {"run_s", run_s, "s"},
                {"plays_per_s", run_s > 0 ? plays / run_s : 0, "1/s"},
                {"core_util", median(utils), "ratio"},
                {"peak_rss_mb", peak_rss_mb, "MB"}});
  return check.correct ? 0 : 1;
}

// --trace 1: the per-layer metrics.
int run_traced(const Context& c) {
  const Workload& w = c.w;
  Check check;
  check.reference = reference_digest(w, c.work_dir);

  // Untraced run: the base for trace_overhead.
  const RunOutcome base = run_once(w, c.threads, false, c.work_dir);
  check.count(base, 0, "untraced run");

  // Traced replay.
  TraceLog log(c.threads);
  const std::string replay_digest =
      w.campaign ? traced_campaign(w, c.threads, c.work_dir, log)
                 : traced_study(w, c.threads, c.work_dir, log);
  const std::uint64_t replayed = log.plays.size();
  check.attempted += replayed;
  if (replay_digest != check.reference) {
    check.failed += replayed;
    check.fail("traced replay digest " + replay_digest + " != reference " +
               check.reference);
  }

  // The library executor with its own instrumentation: the study profile,
  // or the campaign's progress hook (one timestamp per chunk).
  std::vector<double> chunk_ms;
  auto last_chunk = Clock::now();
  const RunOutcome hooked = run_once(
      w, c.threads, true, c.work_dir,
      [&](std::uint64_t, std::uint64_t, std::uint64_t) {
        const auto now = Clock::now();
        chunk_ms.push_back(
            std::chrono::duration<double, std::milli>(now - last_chunk)
                .count());
        last_chunk = now;
      });
  check.count(hooked, replayed, "instrumented run");

  double busy_frac = 0, idle_s = 0, max_play_ms = 0;
  if (w.campaign) {
    // run_campaign has no worker profile; the replay's workers stand in.
    const double capacity = log.execute_wall_s * c.threads;
    busy_frac = capacity > 0 ? log.busy_s / capacity : 0;
    idle_s = std::max(0.0, capacity - log.busy_s);
    for (const PlayCounts& p : log.plays) {
      max_play_ms = std::max(max_play_ms, static_cast<double>(p.ns) / 1e6);
    }
  } else if (hooked.ok) {
    const study::StudyProfile& prof = hooked.study.profile;
    double busy = 0;
    for (const auto& wp : prof.workers) {
      busy += wp.busy_seconds;
      idle_s += wp.idle_seconds;
      max_play_ms = std::max(max_play_ms, wp.max_play_seconds * 1e3);
    }
    const double capacity =
        prof.execute_seconds * static_cast<double>(prof.workers.size());
    busy_frac = capacity > 0 ? busy / capacity : 0;
  }

  std::vector<double> play_ms, events_per_play;
  PlayCounts sum;
  std::uint64_t sim_plays = 0, slot_cap_max = 0, pool_max = 0;
  double sim_ns = 0;
  for (const PlayCounts& p : log.plays) {
    if (!p.sim) continue;
    ++sim_plays;
    play_ms.push_back(static_cast<double>(p.ns) / 1e6);
    events_per_play.push_back(static_cast<double>(p.events));
    sim_ns += static_cast<double>(p.ns);
    sum.events += p.events;
    sum.link_packets += p.link_packets;
    sum.cross_packets += p.cross_packets;
    sum.drops += p.drops;
    slot_cap_max = std::max(slot_cap_max, p.slot_capacity);
    pool_max = std::max(pool_max, p.pool_slots);
  }

  // Work counts from the records (the last untraced run's outputs).
  std::vector<tracer::TraceRecord> spilled;
  const std::vector<tracer::TraceRecord>* records = &base.study.records;
  if (w.campaign) {
    spilled = read_spill(base.campaign.spill_path);
    records = &spilled;
  }
  double tcp = 0, udp = 0, tcp_fb = 0, retries = 0, http_fb = 0, rebuf = 0,
         frames = 0, dropped = 0, pkts = 0, repairs = 0;
  for (const auto& r : *records) {
    if (r.analyzable()) {
      (r.stats.protocol == net::Protocol::kUdp ? udp : tcp) += 1;
    }
    tcp_fb += r.stats.fell_back_to_tcp;
    http_fb += r.stats.fell_back_to_http;
    retries += r.stats.rtsp_retries;
    rebuf += r.stats.rebuffer_events;
    frames += static_cast<double>(r.stats.frames_played);
    dropped += static_cast<double>(r.stats.frames_dropped);
    pkts += static_cast<double>(r.stats.packets_received);
    repairs += static_cast<double>(r.stats.repairs_received);
  }
  double spill_bytes = 0, rollup_bytes = 0;
  if (hooked.ok && w.campaign) {
    spill_bytes = static_cast<double>(
        std::filesystem::file_size(hooked.campaign.spill_path));
    rollup_bytes =
        static_cast<double>(hooked.campaign.rollup.serialize().size());
  }

  const std::string trace_path = c.work_dir + "/trace-" + w.name + "-" +
                                 std::to_string(c.seed) + ".json";
  if (!log.write(trace_path)) check.fail("cannot write " + trace_path);
  std::printf("# spans written to %s\n", trace_path.c_str());

  const auto per_record_us = [&](double s) {
    return replayed ? s * 1e6 / static_cast<double>(replayed) : 0;
  };
  const double events = static_cast<double>(sum.events);
  const double link_packets = static_cast<double>(sum.link_packets);
  print_result(
      check.correct, std::max<std::uint64_t>(check.attempted, 1), check.failed,
      {{"world.population_ms", log.population_s * 1e3, "ms"},
       {"tracer.plan_ms", log.plan_s * 1e3, "ms"},
       {"tracer.play_ms_p50", percentile(play_ms, 0.50), "ms"},
       {"tracer.play_ms_p99", percentile(play_ms, 0.99), "ms"},
       {"tracer.play_ms_max", percentile(play_ms, 1.0), "ms"},
       {"tracer.sim_plays", static_cast<double>(sim_plays), "count"},
       {"sim.events", events, "count"},
       {"sim.events_per_play_p50", percentile(events_per_play, 0.50), "count"},
       {"sim.ns_per_event", events > 0 ? sim_ns / events : 0, "ns"},
       {"sim.slot_capacity_max", static_cast<double>(slot_cap_max), "count"},
       {"net.link_packets", link_packets, "count"},
       {"net.cross_packets", static_cast<double>(sum.cross_packets), "count"},
       {"net.cross_share",
        link_packets > 0 ? static_cast<double>(sum.cross_packets) / link_packets
                         : 0,
        "ratio"},
       {"net.drops", static_cast<double>(sum.drops), "count"},
       {"net.ns_per_packet", link_packets > 0 ? sim_ns / link_packets : 0,
        "ns"},
       {"net.pool_slots_max", static_cast<double>(pool_max), "count"},
       {"transport.tcp_plays", tcp, "count"},
       {"transport.udp_plays", udp, "count"},
       {"transport.tcp_fallbacks", tcp_fb, "count"},
       {"rtsp.retries", retries, "count"},
       {"rtsp.http_fallbacks", http_fb, "count"},
       {"client.rebuffers", rebuf, "count"},
       {"client.frames_played", frames, "count"},
       {"client.frames_dropped", dropped, "count"},
       {"media.packets_received", pkts, "count"},
       {"media.repairs_received", repairs, "count"},
       {"study.busy_frac", busy_frac, "ratio"},
       {"study.idle_s", idle_s, "s"},
       {"study.max_play_ms", max_play_ms, "ms"},
       {"study.paper_err", paper_error(*records), "ratio"},
       {"campaign.chunks", static_cast<double>(chunk_ms.size()), "count"},
       {"campaign.chunk_ms_p50", percentile(chunk_ms, 0.50), "ms"},
       {"campaign.chunk_ms_p99", percentile(chunk_ms, 0.99), "ms"},
       {"campaign.spill_bytes", spill_bytes, "bytes"},
       {"campaign.rollup_bytes", rollup_bytes, "bytes"},
       {"campaign.fold_us_per_record", per_record_us(log.fold_s), "us"},
       {"campaign.spill_us_per_record", per_record_us(log.spill_s), "us"},
       {"trace_overhead", base.ok ? log.replay_s / base.wall_s : 0, "ratio"}});
  return check.correct ? 0 : 1;
}

// --self-test: the output check must reject a wrong output and tell seeds
// apart. Runs each workload at a small scale.
int run_self_test(const Context& c) {
  bool ok = true;
  const auto expect = [&ok](bool cond, const std::string& what) {
    std::printf("# self-test %s: %s\n", cond ? "ok  " : "FAIL", what.c_str());
    ok = ok && cond;
  };
  for (const char* name : {"paper-study", "clean-tcp", "campaign-spill"}) {
    Workload a, b;
    make_workload(name, c.seed, 0.05, c.threads, c.work_dir, &a);
    make_workload(name, c.seed + 1, 0.05, c.threads, c.work_dir, &b);
    const std::string ref = reference_digest(a, c.work_dir);
    RunOutcome ra = run_once(a, c.threads, false, c.work_dir);
    const RunOutcome rb = run_once(b, c.threads, false, c.work_dir);
    expect(ra.ok && ra.digest == ref,
           std::string(name) + ": threads=1 and threads=" +
               std::to_string(c.threads) + " give one digest");
    expect(ra.ok && rb.ok && ra.digest != rb.digest,
           std::string(name) + ": another seed gives another digest");
    Check check;
    check.reference = ref;
    if (ra.ok) ra.digest = altered_digest(a, ra, c.work_dir);
    check.count(ra, 0, "altered run");
    expect(!check.correct && check.failed == check.attempted &&
               check.attempted > 0,
           std::string(name) + ": one altered record fails every play");
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  Context c;
  const std::string workload = args.get_or("workload", "");
  const auto seed =
      args.get_int("seed", static_cast<std::int64_t>(kPinnedSeed));
  c.seconds = args.get_double("seconds", 10);
  const auto trace = args.get_int("trace", 0);
  const double scale = args.get_double("scale", 0);
  c.work_dir = args.get_or("work-dir", ".bench_build/work");
  const bool self_test = args.has("self-test");
  if (!args.errors().empty() || seed < 0 || c.seconds <= 0 ||
      (trace != 0 && trace != 1) || scale < 0 || scale > 1) {
    for (const auto& e : args.errors()) std::cerr << e << "\n";
    std::cerr << "usage: perfbench --workload paper-study|clean-tcp|"
                 "campaign-spill --seed N --seconds S --trace 0|1 "
                 "[--scale X] [--work-dir DIR] [--self-test]\n";
    return 2;
  }
  c.seed = static_cast<std::uint64_t>(seed);
  c.cores = usable_cores();
  c.threads = c.cores;  // one worker per core the process may run on
  std::error_code ec;
  std::filesystem::create_directories(c.work_dir, ec);
  if (ec) {
    std::cerr << "cannot create work dir " << c.work_dir << "\n";
    return 2;
  }
  if (!make_workload(self_test && workload.empty() ? "paper-study" : workload,
                     c.seed, scale, c.threads, c.work_dir, &c.w)) {
    std::cerr << "unknown workload '" << workload << "'\n";
    return 2;
  }
  std::printf("# perfbench workload=%s seed=%lld play_scale=%g cores=%d "
              "threads=%d recorded_cores=%d trace=%lld\n",
              c.w.name.c_str(), static_cast<long long>(seed),
              c.w.config.study.play_scale, c.cores, c.threads, kRecordedCores,
              static_cast<long long>(trace));
  if (c.cores < kRecordedCores) {
    std::printf("# LABEL: %d cores < the %d the baseline was recorded on; "
                "do not compare these figures with it\n",
                c.cores, kRecordedCores);
  }
  std::fflush(stdout);
  try {
    if (self_test) return run_self_test(c);
    return trace ? run_traced(c) : run_untraced(c);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
