#include "study/figures.h"

#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>

#include "stats/correlation.h"
#include "stats/csv.h"
#include "stats/render.h"
#include "stats/summary.h"
#include "study/analysis.h"
#include "tracer/real_tracer.h"
#include "util/strings.h"
#include "world/servers.h"
#include "world/users.h"

namespace rv::study {
namespace {

std::string g_csv_dir;

using stats::Cdf;
using stats::ComparisonRow;
using stats::LabeledCdf;
using stats::RenderOptions;
using util::format_double;
using util::str_cat;

std::string pct(double fraction) {
  return str_cat(format_double(fraction * 100.0, 1), "%");
}

void export_cdfs(const std::string& stem,
                 const std::vector<LabeledCdf>& series) {
  if (g_csv_dir.empty()) return;
  std::filesystem::create_directories(g_csv_dir);
  stats::CsvWriter csv(g_csv_dir + "/" + stem + ".csv");
  csv.write_row({"series", "x", "cdf"});
  for (const auto& s : series) {
    for (const auto& pt : s.cdf.sample(120)) {
      csv.write_row({s.label, format_double(pt.x, 4),
                     format_double(pt.f, 5)});
    }
  }
}

void export_counts(const std::string& stem, const stats::CountTable& table) {
  if (g_csv_dir.empty()) return;
  std::filesystem::create_directories(g_csv_dir);
  stats::CsvWriter csv(g_csv_dir + "/" + stem + ".csv");
  csv.write_row({"label", "count"});
  for (const auto& [label, n] : table.sorted_by_count()) {
    csv.write_row({label, std::to_string(n)});
  }
}

RenderOptions fps_options(const std::string& title) {
  RenderOptions opts;
  opts.title = title;
  opts.x_label = "Frame Rate (fps)";
  opts.x_min = 0.0;
  opts.x_max = 30.0;
  return opts;
}

RenderOptions jitter_options(const std::string& title) {
  RenderOptions opts;
  opts.title = title;
  opts.x_label = "Jitter (ms)";
  opts.x_min = 0.0;
  opts.x_max = 3050.0;
  return opts;
}

RenderOptions bw_options(const std::string& title, double x_max) {
  RenderOptions opts;
  opts.title = title;
  opts.x_label = "Average Bandwidth (Kbps)";
  opts.x_min = 0.0;
  opts.x_max = x_max;
  return opts;
}

std::string render_one_cdf(const std::string& title,
                           const std::vector<double>& values,
                           RenderOptions opts, const std::string& stem) {
  std::vector<LabeledCdf> series;
  series.push_back({"all", Cdf(values)});
  export_cdfs(stem, series);
  opts.title = title;
  return stats::render_cdfs(series, opts);
}

}  // namespace

void set_csv_export_dir(const std::string& dir) { g_csv_dir = dir; }

std::string fig01_buffering(const StudyConfig& config) {
  // One instrumented playout: a DSL/Cable user in Massachusetts streaming a
  // broadband SureStream clip from a U.S. server (the paper's Figure 1
  // setting: 13 s of buffering, then steady playout).
  const media::Catalog catalog = make_catalog(config);
  const world::RegionGraph graph;
  tracer::TracerConfig tcfg = config.tracer;
  tcfg.watch_duration = sec(70);
  const tracer::RealTracer tracer(catalog, graph, tcfg);

  world::UserProfile user;
  user.id = 0;
  user.country = "US";
  user.us_state = "MA";
  user.region = world::Region::kUsEast;
  user.group = world::UserRegionGroup::kUsCanada;
  user.connection = world::ConnectionClass::kDslCable;
  user.pc_class = "Pentium III / 256-512MB";
  user.isp_load_lo = 0.3;
  user.isp_load_hi = 0.5;
  user.seed = config.seed;

  // Pick a SureStream clip from a US site (site 0 or 1).
  std::size_t playlist_index = 0;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (media::Catalog::site_of(catalog.clip(i).id()) <= 1 &&
        catalog.clip(i).is_surestream()) {
      playlist_index = i;
      break;
    }
  }
  const auto rec =
      tracer.run_single(user, playlist_index, config.seed ^ 0xF161ull);

  std::ostringstream os;
  os << "Figure 1: Buffering and Playout of a RealVideo Clip\n";
  os << "  clip " << rec.clip_id << " from " << rec.server_name
     << ", encoded " << format_double(to_kbps(rec.stats.encoded_bandwidth), 0)
     << " Kbps / " << format_double(rec.stats.encoded_fps, 1)
     << " fps; preroll " << format_double(rec.stats.preroll_seconds, 1)
     << " s\n";
  os << "  t(s)  bandwidth(Kbps)  frame-rate(fps)\n";
  for (const auto& s : rec.stats.samples) {
    os << "  " << format_double(s.t_seconds, 0) << "\t"
       << format_double(to_kbps(s.bandwidth), 1) << "\t"
       << format_double(s.frame_rate, 1) << "\n";
  }
  if (!g_csv_dir.empty()) {
    std::filesystem::create_directories(g_csv_dir);
    stats::CsvWriter csv(g_csv_dir + "/fig01_buffering.csv");
    csv.write_row({"t_seconds", "bandwidth_kbps", "frame_rate_fps",
                   "coded_bandwidth_kbps", "coded_fps"});
    for (const auto& s : rec.stats.samples) {
      csv.write_row({format_double(s.t_seconds, 1),
                     format_double(to_kbps(s.bandwidth), 2),
                     format_double(s.frame_rate, 2),
                     format_double(to_kbps(rec.stats.encoded_bandwidth), 1),
                     format_double(rec.stats.encoded_fps, 2)});
    }
  }
  const std::vector<ComparisonRow> rows = {
      {"initial buffering", "~13 s",
       str_cat(format_double(rec.stats.preroll_seconds, 1), " s")},
      {"frame rate steadier than bandwidth", "yes (buffer smooths playout)",
       rec.stats.jitter_ms < 100 ? "yes" : "partially"},
  };
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig03_geography() {
  std::ostringstream os;
  os << "Figure 3: RealServer sites (11 servers, 8 countries)\n";
  std::map<std::string, std::vector<std::string>> by_region;
  std::set<std::string> server_countries;
  for (const auto& site : world::server_sites()) {
    by_region[std::string(world::region_name(site.region))].push_back(
        site.name);
    server_countries.insert(site.country);
  }
  for (const auto& [region, names] : by_region) {
    os << "  " << region << ":";
    for (const auto& n : names) os << " " << n;
    os << "\n";
  }

  os << "\nFigure 4: participating users by country (12 countries)\n";
  const auto users = world::generate_population({});
  std::map<std::string, int> by_country;
  for (const auto& u : users) ++by_country[u.country];
  for (const auto& [country, n] : by_country) {
    os << "  " << country << ": " << n << " user" << (n > 1 ? "s" : "")
       << "\n";
  }
  const std::vector<ComparisonRow> rows = {
      {"server countries", "8", std::to_string(server_countries.size())},
      {"user countries", "12", std::to_string(by_country.size())},
      {"users", "63", std::to_string(users.size())},
  };
  os << "\n" << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

namespace {

std::string fig05_clips_per_user(const StudyResult& result) {
  const auto values = plays_per_user(result.accesses());
  std::ostringstream os;
  RenderOptions opts;
  opts.x_label = "Clips Per User";
  opts.x_min = 0.0;
  opts.x_max = 100.0;
  os << render_one_cdf("Figure 5: CDF of video clips played per user", values,
                       opts, "fig05_clips_per_user");
  const Cdf cdf(values);
  const std::vector<ComparisonRow> rows = {
      {"users", "63", std::to_string(values.size())},
      {"median clips/user", ">= 40", format_double(cdf.median(), 0)},
      {"max clips/user", "98", format_double(cdf.max(), 0)},
  };
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig06_rated_per_user(const StudyResult& result) {
  const auto values = ratings_per_user(result.accesses());
  std::ostringstream os;
  RenderOptions opts;
  opts.x_label = "Rated Clips Per User";
  opts.x_min = 0.0;
  opts.x_max = 36.0;
  os << render_one_cdf("Figure 6: CDF of video clips rated per user", values,
                       opts, "fig06_rated_per_user");
  const Cdf cdf(values);
  const std::vector<ComparisonRow> rows = {
      {"median rated/user", "3", format_double(cdf.median(), 0)},
      {"users rating 0 clips", "some",
       pct(stats::fraction_below(values, 1.0))},
  };
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig07_user_countries(const StudyResult& result) {
  const auto table = clips_played_by_country(result.played());
  export_counts("fig07_user_countries", table);
  std::ostringstream os;
  os << stats::render_bars(table,
                           "Figure 7: video clips played by users from each "
                           "country");
  const std::vector<ComparisonRow> rows = {
      {"countries", "12", std::to_string(table.entries().size())},
      {"US clips", "2100 of 2855", str_cat(table.count("US"), " of ",
                                           table.total())},
      {"largest non-US", "China (142)",
       str_cat("China (", table.count("China"), ")")},
  };
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig08_server_countries(const StudyResult& result) {
  const auto table = clips_served_by_country(result.played());
  export_counts("fig08_server_countries", table);
  std::ostringstream os;
  os << stats::render_bars(table,
                           "Figure 8: video clips served by RealServers from "
                           "each country");
  const std::vector<ComparisonRow> rows = {
      {"countries", "8", std::to_string(table.entries().size())},
      {"US share", "1075 of 2892 (~37%)",
       str_cat(table.count("US"), " of ", table.total())},
  };
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig09_us_states(const StudyResult& result) {
  const auto table = clips_played_by_us_state(result.played());
  export_counts("fig09_us_states", table);
  std::ostringstream os;
  os << stats::render_bars(
      table, "Figure 9: video clips played by U.S. users from each state");
  const std::vector<ComparisonRow> rows = {
      {"dominant state", "MA (~1100)",
       str_cat("MA (", table.count("MA"), ")")},
      {"states", "17", std::to_string(table.entries().size())},
  };
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig10_availability(const StudyResult& result) {
  const auto by_server = unavailability_by_server(result.accesses());
  std::ostringstream os;
  os << "Figure 10: fraction of unavailable clips per server\n";
  double total = 0.0;
  for (const auto& [name, frac] : by_server) {
    os << "  " << name << std::string(name.size() < 14 ? 14 - name.size() : 1,
                                      ' ')
       << format_double(frac, 3) << "\n";
    total += frac;
  }
  const double mean =
      by_server.empty() ? 0.0 : total / static_cast<double>(by_server.size());
  if (!g_csv_dir.empty()) {
    std::filesystem::create_directories(g_csv_dir);
    stats::CsvWriter csv(g_csv_dir + "/fig10_availability.csv");
    csv.write_row({"server", "fraction_unavailable"});
    for (const auto& [name, frac] : by_server) {
      csv.write_row({name, format_double(frac, 4)});
    }
  }
  const std::vector<ComparisonRow> rows = {
      {"average unavailability", "~10%", pct(mean)},
      {"worst server", "CHI/CCTV (~22%)",
       str_cat("CHI/CCTV (",
               pct(by_server.count("CHI/CCTV") != 0u
                       ? by_server.at("CHI/CCTV")
                       : 0.0),
               ")")},
  };
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig11_framerate_all(const StudyResult& result) {
  const auto values = frame_rates(result.played());
  std::ostringstream os;
  os << render_one_cdf("Figure 11: CDF of frame rate for all video clips",
                       values, fps_options(""), "fig11_framerate_all");
  const std::vector<ComparisonRow> rows = {
      {"mean frame rate", "10 fps",
       str_cat(format_double(stats::mean_of(values), 1), " fps")},
      {"% below 3 fps", "~25%", pct(stats::fraction_below(values, 3.0))},
      {"% at/above 15 fps", "~25%",
       pct(stats::fraction_at_or_above(values, 15.0))},
      {"% at/above 24 fps", "< 1%",
       pct(stats::fraction_at_or_above(values, 24.0))},
  };
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig12_framerate_by_net(const StudyResult& result) {
  const auto groups = by_connection(result.played());
  const auto series = group_cdfs(groups, frame_rates);
  export_cdfs("fig12_framerate_by_net", series);
  std::ostringstream os;
  os << stats::render_cdfs(
      series,
      fps_options(
          "Figure 12: CDF of frame rate by end-host network configuration"));
  std::vector<ComparisonRow> rows;
  for (const auto& [label, records] : groups) {
    const auto values = frame_rates(records);
    rows.push_back({str_cat(label, " % < 3 fps"),
                    label == "56k Modem" ? "> 50%" : "~20%",
                    pct(stats::fraction_below(values, 3.0))});
    rows.push_back({str_cat(label, " % >= 15 fps"),
                    label == "56k Modem" ? "< 10%" : "~30%",
                    pct(stats::fraction_at_or_above(values, 15.0))});
  }
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig13_bandwidth_by_net(const StudyResult& result) {
  const auto groups = by_connection(result.played());
  const auto series = group_cdfs(groups, bandwidths_kbps);
  export_cdfs("fig13_bandwidth_by_net", series);
  std::ostringstream os;
  os << stats::render_cdfs(
      series, bw_options("Figure 13: CDF of bandwidth by end-host network "
                         "configuration",
                         500.0));
  std::vector<ComparisonRow> rows;
  if (groups.count("DSL/Cable") != 0u) {
    const auto dsl = bandwidths_kbps(groups.at("DSL/Cable"));
    rows.push_back({"DSL/Cable near capacity (>= 256 Kbps)", "< 10%",
                    pct(stats::fraction_at_or_above(dsl, 256.0))});
  }
  if (groups.count("56k Modem") != 0u) {
    const auto modem = bandwidths_kbps(groups.at("56k Modem"));
    rows.push_back({"modem median bandwidth", "~30 Kbps",
                    str_cat(format_double(stats::quantile(modem, 0.5), 0),
                            " Kbps")});
  }
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig14_framerate_by_server_region(const StudyResult& result) {
  const auto groups = by_server_group(result.played());
  const auto series = group_cdfs(groups, frame_rates);
  export_cdfs("fig14_framerate_by_server_region", series);
  std::ostringstream os;
  os << stats::render_cdfs(
      series, fps_options("Figure 14: CDF of frame rate for RealServers in "
                          "different geographic regions"));
  std::vector<ComparisonRow> rows;
  double best = 0.0;
  double worst = 100.0;
  for (const auto& [label, records] : groups) {
    const double mean = stats::mean_of(frame_rates(records));
    best = std::max(best, mean);
    worst = std::min(worst, mean);
    rows.push_back({str_cat(label, " mean fps"), "8-13 fps",
                    format_double(mean, 1)});
  }
  rows.push_back({"spread of means", "~5 fps (regions similar)",
                  format_double(best - worst, 1)});
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig15_framerate_by_user_region(const StudyResult& result) {
  const auto groups = by_user_group(result.played());
  const auto series = group_cdfs(groups, frame_rates);
  export_cdfs("fig15_framerate_by_user_region", series);
  std::ostringstream os;
  os << stats::render_cdfs(
      series, fps_options("Figure 15: CDF of frame rate for users in "
                          "different geographic regions"));
  std::vector<ComparisonRow> rows;
  for (const auto& [label, records] : groups) {
    const auto values = frame_rates(records);
    const char* paper = "-";
    if (label == "Australia/NZ") paper = "75% < 3 fps (worst)";
    if (label == "Europe") paper = "15% < 3 fps (best)";
    rows.push_back({str_cat(label, " % < 3 fps"), paper,
                    pct(stats::fraction_below(values, 3.0))});
  }
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig16_protocol_mix(const StudyResult& result) {
  const auto played = result.played();
  std::size_t udp = 0;
  for (const auto* r : played) {
    if (r->stats.protocol == net::Protocol::kUdp) ++udp;
  }
  const double udp_frac =
      played.empty() ? 0.0
                     : static_cast<double>(udp) /
                           static_cast<double>(played.size());
  std::ostringstream os;
  os << "Figure 16: fraction of transport protocols observed\n";
  os << "  UDP " << pct(udp_frac) << "   TCP " << pct(1.0 - udp_frac)
     << "\n";
  if (!g_csv_dir.empty()) {
    std::filesystem::create_directories(g_csv_dir);
    stats::CsvWriter csv(g_csv_dir + "/fig16_protocol_mix.csv");
    csv.write_row({"protocol", "fraction"});
    csv.write_row({"UDP", format_double(udp_frac, 4)});
    csv.write_row({"TCP", format_double(1.0 - udp_frac, 4)});
  }
  const std::vector<ComparisonRow> rows = {
      {"UDP share", "~56%", pct(udp_frac)},
      {"TCP share", "~44%", pct(1.0 - udp_frac)},
  };
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig17_framerate_by_protocol(const StudyResult& result) {
  const auto groups = by_protocol(result.played());
  const auto series = group_cdfs(groups, frame_rates);
  export_cdfs("fig17_framerate_by_protocol", series);
  std::ostringstream os;
  os << stats::render_cdfs(
      series, fps_options("Figure 17: CDF of frame rate by transport "
                          "protocol"));
  std::vector<ComparisonRow> rows;
  for (const auto& [label, records] : groups) {
    rows.push_back({str_cat(label, " % < 3 fps"),
                    label == "TCP" ? "~28%" : "~22%",
                    pct(stats::fraction_below(frame_rates(records), 3.0))});
  }
  os << stats::render_comparison(
      "paper vs measured (distributions nearly identical)", rows);
  return os.str();
}

std::string fig18_bandwidth_by_protocol(const StudyResult& result) {
  const auto groups = by_protocol(result.played());
  const auto series = group_cdfs(groups, bandwidths_kbps);
  export_cdfs("fig18_bandwidth_by_protocol", series);
  std::ostringstream os;
  os << stats::render_cdfs(
      series, bw_options("Figure 18: CDF of bandwidth by transport protocol",
                         600.0));
  std::vector<ComparisonRow> rows;
  for (const auto& [label, records] : groups) {
    const auto values = bandwidths_kbps(records);
    rows.push_back({str_cat(label, " median Kbps"),
                    "comparable (UDP slightly above)",
                    format_double(stats::quantile(values, 0.5), 0)});
  }
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig19_framerate_by_pc(const StudyResult& result) {
  const auto groups = by_pc_class(result.played());
  const auto series = group_cdfs(groups, frame_rates);
  export_cdfs("fig19_framerate_by_pc", series);
  std::ostringstream os;
  os << stats::render_cdfs(
      series,
      fps_options("Figure 19: CDF of frame rate for classes of user PCs"));
  std::vector<ComparisonRow> rows;
  for (const auto& [label, records] : groups) {
    const auto values = frame_rates(records);
    const bool ancient = label == "Intel Pentium MMX / 24MB";
    rows.push_back(
        {str_cat(label, " % > 3 fps"), ancient ? "10-20%" : "mixed, high",
         pct(stats::fraction_at_or_above(values, 3.0))});
  }
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig20_jitter_all(const StudyResult& result) {
  const auto values = jitters_ms(result.played());
  std::ostringstream os;
  os << render_one_cdf("Figure 20: CDF of overall jitter", values,
                       jitter_options(""), "fig20_jitter_all");
  const std::vector<ComparisonRow> rows = {
      {"% below 50 ms (imperceptible)", "~50%",
       pct(stats::fraction_below(values, 50.0))},
      {"% at/above 300 ms (unacceptable)", "~15%",
       pct(stats::fraction_at_or_above(values, 300.0))},
  };
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig21_jitter_by_net(const StudyResult& result) {
  const auto groups = by_connection(result.played());
  const auto series = group_cdfs(groups, jitters_ms);
  export_cdfs("fig21_jitter_by_net", series);
  std::ostringstream os;
  os << stats::render_cdfs(
      series, jitter_options("Figure 21: CDF of jitter by network "
                             "configuration"));
  std::vector<ComparisonRow> rows;
  for (const auto& [label, records] : groups) {
    const auto values = jitters_ms(records);
    const char* below = "-";
    const char* above = "-";
    if (label == "56k Modem") {
      below = "~10%";
      above = "~45%";
    } else if (label == "DSL/Cable") {
      below = "~55%";
      above = "~15%";
    } else if (label == "T1/LAN") {
      below = "~55%";
      above = "~20%";
    }
    rows.push_back({str_cat(label, " % < 50 ms"), below,
                    pct(stats::fraction_below(values, 50.0))});
    rows.push_back({str_cat(label, " % >= 300 ms"), above,
                    pct(stats::fraction_at_or_above(values, 300.0))});
  }
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig22_jitter_by_server_region(const StudyResult& result) {
  const auto groups = by_server_group(result.played());
  const auto series = group_cdfs(groups, jitters_ms);
  export_cdfs("fig22_jitter_by_server_region", series);
  std::ostringstream os;
  os << stats::render_cdfs(
      series, jitter_options("Figure 22: CDF of jitter for RealServers in "
                             "different geographic regions"));
  std::vector<ComparisonRow> rows;
  for (const auto& [label, records] : groups) {
    rows.push_back({str_cat(label, " % < 50 ms"),
                    label == "Asia" ? "~45% (worst)" : "~55%",
                    pct(stats::fraction_below(jitters_ms(records), 50.0))});
  }
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig23_jitter_by_user_region(const StudyResult& result) {
  const auto groups = by_user_group(result.played());
  const auto series = group_cdfs(groups, jitters_ms);
  export_cdfs("fig23_jitter_by_user_region", series);
  std::ostringstream os;
  os << stats::render_cdfs(
      series, jitter_options("Figure 23: CDF of jitter for users in "
                             "different geographic regions"));
  std::vector<ComparisonRow> rows;
  for (const auto& [label, records] : groups) {
    const char* paper = "-";
    if (label == "Australia/NZ") paper = "worst";
    if (label == "Asia") paper = "second worst";
    if (label == "Europe" || label == "US/Canada") paper = "comparable, best";
    rows.push_back({str_cat(label, " % >= 300 ms"), paper,
                    pct(stats::fraction_at_or_above(jitters_ms(records),
                                                    300.0))});
  }
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig24_jitter_by_protocol(const StudyResult& result) {
  const auto groups = by_protocol(result.played());
  const auto series = group_cdfs(groups, jitters_ms);
  export_cdfs("fig24_jitter_by_protocol", series);
  std::ostringstream os;
  os << stats::render_cdfs(
      series, jitter_options("Figure 24: CDF of jitter by transport "
                             "protocol"));
  std::vector<ComparisonRow> rows;
  for (const auto& [label, records] : groups) {
    rows.push_back({str_cat(label, " % < 50 ms"), "nearly identical",
                    pct(stats::fraction_below(jitters_ms(records), 50.0))});
  }
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig25_jitter_by_bandwidth(const StudyResult& result) {
  const auto groups = by_bandwidth_bucket(result.played());
  const auto series = group_cdfs(groups, jitters_ms);
  export_cdfs("fig25_jitter_by_bandwidth", series);
  std::ostringstream os;
  os << stats::render_cdfs(
      series,
      jitter_options("Figure 25: CDF of jitter for observed bandwidth"));
  std::vector<ComparisonRow> rows;
  for (const auto& [label, records] : groups) {
    const auto values = jitters_ms(records);
    const char* free_paper = "-";
    const char* ok_paper = "-";
    if (label == "< 10K") {
      free_paper = "~10%";
      ok_paper = "~20%";
    } else if (label == "> 100K") {
      free_paper = "~80%";
      ok_paper = "~95%";
    }
    rows.push_back({str_cat(label, " % jitter-free (<50ms)"), free_paper,
                    pct(stats::fraction_below(values, 50.0))});
    rows.push_back({str_cat(label, " % acceptable (<300ms)"), ok_paper,
                    pct(stats::fraction_below(values, 300.0))});
  }
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig26_quality_all(const StudyResult& result) {
  const auto values = ratings(result.rated());
  std::ostringstream os;
  RenderOptions opts;
  opts.x_label = "Quality Rating";
  opts.x_min = 0.0;
  opts.x_max = 10.0;
  os << render_one_cdf("Figure 26: CDF of overall quality", values, opts,
                       "fig26_quality_all");
  const std::vector<ComparisonRow> rows = {
      {"mean rating", "~5", format_double(stats::mean_of(values), 2)},
      {"25th percentile", "~2.5 (uniform-ish)",
       format_double(stats::quantile(values, 0.25), 2)},
      {"75th percentile", "~7.5 (uniform-ish)",
       format_double(stats::quantile(values, 0.75), 2)},
  };
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig27_quality_by_net(const StudyResult& result) {
  const auto groups = by_connection(result.rated());
  const auto series = group_cdfs(groups, ratings);
  export_cdfs("fig27_quality_by_net", series);
  std::ostringstream os;
  RenderOptions opts;
  opts.title =
      "Figure 27: CDF of quality by end-host network configuration";
  opts.x_label = "Quality Rating";
  opts.x_min = 0.0;
  opts.x_max = 10.0;
  os << stats::render_cdfs(series, opts);
  std::vector<ComparisonRow> rows;
  double modem_mean = 0.0;
  double dsl_mean = 0.0;
  for (const auto& [label, records] : groups) {
    const auto values = ratings(records);
    if (values.empty()) continue;
    const double mean = stats::mean_of(values);
    if (label == "56k Modem") modem_mean = mean;
    if (label == "DSL/Cable") dsl_mean = mean;
    rows.push_back({str_cat(label, " mean rating"), "-",
                    format_double(mean, 2)});
  }
  if (dsl_mean > 0) {
    rows.push_back({"modem mean / DSL mean", "~0.5",
                    format_double(modem_mean / dsl_mean, 2)});
  }
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

std::string fig28_quality_vs_bandwidth(const StudyResult& result) {
  const auto rated = result.rated();
  std::vector<double> xs;
  std::vector<double> ys;
  for (const auto* r : rated) {
    xs.push_back(to_kbps(r->stats.measured_bandwidth));
    ys.push_back(r->rating);
  }
  std::ostringstream os;
  RenderOptions opts;
  opts.title = "Figure 28: quality rating vs network bandwidth";
  opts.x_label = "Average Bandwidth (Kbps)";
  opts.x_min = 0.0;
  opts.x_max = 600.0;
  os << stats::render_scatter(xs, ys, opts, "Quality Rating");
  if (!g_csv_dir.empty()) {
    std::filesystem::create_directories(g_csv_dir);
    stats::CsvWriter csv(g_csv_dir + "/fig28_quality_vs_bandwidth.csv");
    csv.write_row({"bandwidth_kbps", "rating"});
    for (std::size_t i = 0; i < xs.size(); ++i) {
      csv.write_row({format_double(xs[i], 1), format_double(ys[i], 2)});
    }
  }
  double min_high_bw_rating = 10.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] >= 200.0) min_high_bw_rating = std::min(min_high_bw_rating,
                                                      ys[i]);
  }
  const double r = xs.size() > 2 ? stats::pearson(xs, ys) : 0.0;
  const std::vector<ComparisonRow> rows = {
      {"correlation", "weak positive trend", format_double(r, 2)},
      {"lowest rating at >= 200 Kbps", "no low ratings at high bandwidth",
       format_double(min_high_bw_rating, 1)},
  };
  os << stats::render_comparison("paper vs measured", rows);
  return os.str();
}

}  // namespace

const Figure kFigures[24] = {
    {5, &fig05_clips_per_user},
    {6, &fig06_rated_per_user},
    {7, &fig07_user_countries},
    {8, &fig08_server_countries},
    {9, &fig09_us_states},
    {10, &fig10_availability},
    {11, &fig11_framerate_all},
    {12, &fig12_framerate_by_net},
    {13, &fig13_bandwidth_by_net},
    {14, &fig14_framerate_by_server_region},
    {15, &fig15_framerate_by_user_region},
    {16, &fig16_protocol_mix},
    {17, &fig17_framerate_by_protocol},
    {18, &fig18_bandwidth_by_protocol},
    {19, &fig19_framerate_by_pc},
    {20, &fig20_jitter_all},
    {21, &fig21_jitter_by_net},
    {22, &fig22_jitter_by_server_region},
    {23, &fig23_jitter_by_user_region},
    {24, &fig24_jitter_by_protocol},
    {25, &fig25_jitter_by_bandwidth},
    {26, &fig26_quality_all},
    {27, &fig27_quality_by_net},
    {28, &fig28_quality_vs_bandwidth},
};

std::string study_summary(const StudyResult& result) {
  const auto accesses = result.accesses();
  const auto played = result.played();
  const auto rated = result.rated();
  std::size_t unavailable = 0;
  for (const auto* r : accesses) {
    if (!r->available) ++unavailable;
  }
  std::ostringstream os;
  const std::vector<ComparisonRow> rows = {
      {"participating users", "63", std::to_string(result.users.size())},
      {"clips played", "2855", std::to_string(played.size())},
      {"clips watched & rated", "388", std::to_string(rated.size())},
      {"accesses finding clip unavailable", "~10%",
       pct(accesses.empty() ? 0.0
                            : static_cast<double>(unavailable) /
                                  static_cast<double>(accesses.size()))},
  };
  os << stats::render_comparison("Study totals (paper section IV)", rows);
  return os.str();
}

}  // namespace rv::study
