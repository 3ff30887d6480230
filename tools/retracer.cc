// retracer — play one clip through the simulator and print the RealTracer
// record, like running the paper's instrumented player once.
//
// Usage:
//   retracer [--connection modem|dsl|t1] [--pc <fig19-class>]
//            [--region us-east|us-west|europe|asia|japan|australia|
//                      s-america|middle-east]
//            [--clip <playlist-index 0..97>] [--protocol auto|tcp]
//            [--cc reno|cubic|bbr]
//            [--live] [--watch <seconds>] [--seed <n>] [--samples]
//            [--trace <path>] [--telemetry] [--telemetry-interval-ms <n>]
//            [--series-csv <path>]
//   retracer --spill-read <path> [--spill-record <k>]
//
// --spill-read seeks record k out of a campaign spill file (see
// docs/DESIGN.md on the columnar format) and prints it — the random-access
// path over spilled records.
//
// --trace writes the play's event trace as Chrome trace_event JSON (load in
// chrome://tracing or ui.perfetto.dev; see docs/OBSERVABILITY.md).
// --telemetry samples the play's time series (default every 500 ms of
// sim-time); with --trace the series also becomes "C"-phase counter tracks,
// and --series-csv exports it as CSV. Malformed numeric flag values and
// unknown flags exit 2 instead of silently using the default.
//
// Examples:
//   retracer --connection modem --clip 8
//   retracer --connection dsl --region australia --protocol tcp --samples
// --status-port <0..65535> serves GET /metrics, /progress and /healthz on
// 127.0.0.1 while the play runs (0 = ephemeral, announced on stderr);
// --status-hold-ms keeps serving after the play finishes so a scraper can
// observe the final counters. --watch must be a positive number of seconds.
// An unknown --connection, --region or --protocol name exits 2.
#include <exception>
#include <iostream>
#include <string_view>
#include <vector>

#include "cli_options.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "study/spill.h"
#include "study/study.h"
#include "study/telemetry_report.h"
#include "tracer/real_tracer.h"
#include "util/args.h"
#include "util/strings.h"
#include "world/region_graph.h"

using namespace rv;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: retracer [--connection modem|dsl|t1] [--pc <class>]"
                 " [--region <name>] [--clip <0..97>] [--protocol auto|tcp]"
                 " [--cc reno|cubic|bbr]"
                 " [--live] [--watch <sec>] [--seed <n>] [--samples]"
                 " [--trace <path>] [--telemetry]"
                 " [--telemetry-interval-ms <n>] [--series-csv <path>]"
                 " [--status-port <p> [--status-hold-ms <n>]]\n"
                 "       retracer --spill-read <path> [--spill-record <k>]\n";
    return 0;
  }
  std::vector<std::string_view> allowed =
      tools::shared_flag_names(/*with_watch=*/true);
  allowed.insert(allowed.end(),
                 {"spill-read", "spill-record", "connection", "pc", "region",
                  "clip", "protocol", "live", "seed", "samples"});
  args.reject_unknown(allowed);  // reported with the flag errors below

  if (args.has("spill-read")) {
    const std::string spill_path = args.get_or("spill-read", "");
    if (spill_path.empty()) {
      std::cerr << "--spill-read requires a file path\n";
      return 2;
    }
    const auto record_index = args.get_int("spill-record", 0);
    if (record_index < 0) {
      std::cerr << "--spill-record must be a non-negative integer (got "
                << record_index << ")\n";
      return 2;
    }
    if (!args.errors().empty()) {
      for (const auto& err : args.errors()) std::cerr << err << "\n";
      return 2;
    }
    study::SpillReader reader;
    if (!reader.open(spill_path)) {
      std::cerr << reader.error() << "\n";
      return 1;
    }
    if (static_cast<std::uint64_t>(record_index) >= reader.records()) {
      std::cerr << "--spill-record " << record_index << " out of range ("
                << reader.records() << " records in " << spill_path << ")\n";
      return 2;
    }
    tracer::TraceRecord rec;
    if (!reader.read_record(static_cast<std::uint64_t>(record_index), rec)) {
      std::cerr << "corrupt spill frame in " << spill_path << "\n";
      return 1;
    }
    using util::format_double;
    std::cout << "spill:       " << spill_path << " (" << reader.records()
              << " records, " << reader.frames() << " frames)\n";
    std::cout << "record:      #" << record_index << " user " << rec.user_id
              << " clip " << rec.clip_id << " via " << rec.server_name << " ("
              << rec.server_country << ")\n";
    std::cout << "user:        " << rec.country
              << (rec.us_state.empty() ? "" : "/") << rec.us_state << ", "
              << world::connection_class_name(rec.connection) << ", "
              << rec.pc_class << "\n";
    if (!rec.available) {
      std::cout << "result:      clip unavailable\n";
      return 0;
    }
    std::cout << "transport:   " << net::protocol_name(rec.stats.protocol)
              << (rec.stats.fell_back_to_tcp ? " (fell back from UDP)" : "")
              << "\n";
    std::cout << "measured:    "
              << format_double(to_kbps(rec.stats.measured_bandwidth), 0)
              << " Kbps @ " << format_double(rec.stats.measured_fps, 1)
              << " fps, jitter " << format_double(rec.stats.jitter_ms, 1)
              << " ms\n";
    std::cout << "frames:      " << rec.stats.frames_played << " played, "
              << rec.stats.frames_dropped << " dropped; rebuffers "
              << rec.stats.rebuffer_events << " ("
              << format_double(rec.stats.rebuffer_seconds, 1) << " s); "
              << rec.stats.samples.size() << " samples\n";
    if (rec.rated()) {
      std::cout << "rating:      " << format_double(rec.rating, 1) << "\n";
    }
    return 0;
  }

  tools::SinglePlay play;
  if (!tools::parse_single_play(args, &play, std::cerr)) return 2;
  study::StudyConfig study_cfg;
  study_cfg.seed = play.seed;
  const media::Catalog catalog = study::make_catalog(study_cfg);
  const world::RegionGraph graph;

  tracer::TracerConfig tracer_cfg;
  tracer_cfg.live_content = args.has("live");
  tools::SharedFlags flags;
  if (!tools::parse_shared_flags(args, /*with_watch=*/true, &tracer_cfg,
                                 &flags, std::cerr)) {
    return 2;
  }
  const tracer::RealTracer tracer(catalog, graph, tracer_cfg);
  const world::UserProfile& user = play.user;
  const std::size_t playlist_index = play.playlist_index(catalog);

  if (!args.errors().empty()) {
    for (const auto& err : args.errors()) std::cerr << err << "\n";
    return 2;
  }

  tools::StatusExporter status;
  if (!status.start(flags, std::cerr)) return 2;
  obs::metrics_gauge_set(obs::MetricGauge::kUsersPlanned, 1);

  const auto rec = play.run(tracer, catalog);
  obs::metrics_add(obs::Metric::kPlaysCompleted);
  obs::metrics_add(obs::Metric::kUsersCompleted);
  if (rec.analyzable()) {
    obs::metrics_observe(obs::MetricHist::kPlayFps, rec.stats.measured_fps);
    obs::metrics_observe(obs::MetricHist::kPlayBandwidthKbps,
                         to_kbps(rec.stats.measured_bandwidth));
  }
  obs::metrics_gauge_set(obs::MetricGauge::kRssKb, obs::current_rss_kb());

  if (!flags.trace_path.empty() && rec.obs.enabled) {
    obs::PlayTrack track;
    track.pid = static_cast<std::uint32_t>(user.id);
    track.tid = static_cast<std::uint32_t>(playlist_index);
    track.process_name =
        "user " + std::to_string(user.id) + " (" +
        std::string(world::connection_class_name(user.connection)) + ")";
    track.thread_name = "clip " + std::to_string(rec.clip_id) + " " +
                        rec.server_name.str();
    track.obs = &rec.obs;
    track.counters = study::chrome_counter_series(rec.series);
    if (!obs::write_chrome_trace(flags.trace_path, {track})) {
      std::cerr << "cannot write trace file: " << flags.trace_path << "\n";
      return 2;
    }
    std::cout << "trace:       " << flags.trace_path << " ("
              << rec.obs.events.size() << " events)\n";
  }
  if (!flags.series_csv.empty()) {
    try {
      study::write_series_csv(flags.series_csv, {rec});
    } catch (const std::exception& e) {
      std::cerr << "cannot write series CSV: " << e.what() << "\n";
      return 2;
    }
    std::cout << "series:      " << flags.series_csv << " ("
              << rec.series.data.size() << " samples)\n";
  }
  if (rec.series.enabled) {
    std::cout << "telemetry:   " << rec.series.data.size()
              << " samples every "
              << util::format_double(to_seconds(rec.series.interval) * 1e3, 0)
              << " ms\n";
  }

  const auto& clip = catalog.clip(playlist_index);
  const auto& stats = rec.stats;
  using util::format_double;
  std::cout << "clip:        " << clip.title() << " ("
            << to_seconds(clip.duration()) << " s, "
            << clip.levels().size() << " levels, served by "
            << rec.server_name << ")\n";
  std::cout << "connection:  "
            << world::connection_class_name(user.connection) << " / "
            << user.pc_class << " / "
            << world::region_name(user.region) << "\n";
  if (!rec.available) {
    std::cout << "result:      clip unavailable (the Fig 10 case)\n";
    return 1;
  }
  std::cout << "transport:   " << net::protocol_name(stats.protocol)
            << (stats.fell_back_to_tcp ? " (fell back from UDP)" : "")
            << (tracer_cfg.live_content ? ", live" : "") << "\n";
  std::cout << "encoded:     "
            << format_double(to_kbps(stats.encoded_bandwidth), 0) << " Kbps @ "
            << format_double(stats.encoded_fps, 1) << " fps\n";
  std::cout << "measured:    "
            << format_double(to_kbps(stats.measured_bandwidth), 0)
            << " Kbps @ " << format_double(stats.measured_fps, 1)
            << " fps\n";
  std::cout << "jitter:      " << format_double(stats.jitter_ms, 1)
            << " ms\n";
  std::cout << "pre-roll:    " << format_double(stats.preroll_seconds, 1)
            << " s, rebuffers: " << stats.rebuffer_events << " ("
            << format_double(stats.rebuffer_seconds, 1) << " s)\n";
  std::cout << "frames:      " << stats.frames_played << " played, "
            << stats.frames_dropped << " dropped, "
            << stats.frames_cpu_scaled << " cpu-scaled\n";
  std::cout << "cpu:         "
            << format_double(stats.cpu_utilization * 100.0, 0) << "%\n";
  if (args.has("samples")) {
    std::cout << "\n t(s)  Kbps   fps\n";
    for (const auto& s : stats.samples) {
      std::cout << "  " << format_double(s.t_seconds, 0) << "\t"
                << format_double(to_kbps(s.bandwidth), 0) << "\t"
                << format_double(s.frame_rate, 0) << "\n";
    }
  }
  return stats.played_any_frame ? 0 : 1;
}
