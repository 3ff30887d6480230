#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/strings.h"

namespace rv::obs {
namespace {

// Renders a double the way Prometheus clients expect: plain decimal, no
// exponent for the magnitudes we emit, trailing zeros trimmed.
std::string prom_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const char* metric_name(Metric m) {
  switch (m) {
    case Metric::kPlaysCompleted: return "rv_plays_completed_total";
    case Metric::kUsersCompleted: return "rv_users_completed_total";
    case Metric::kChunksCompleted: return "rv_chunks_completed_total";
    case Metric::kSpillBytesWritten: return "rv_spill_bytes_written_total";
    case Metric::kSpillFramesWritten: return "rv_spill_frames_written_total";
    case Metric::kCacheHits: return "rv_study_cache_hits_total";
    case Metric::kCacheMisses: return "rv_study_cache_misses_total";
    case Metric::kHeartbeatsWritten: return "rv_heartbeats_written_total";
    case Metric::kHttpRequests: return "rv_status_http_requests_total";
    case Metric::kCount: break;
  }
  return "rv_unknown_total";
}

const char* metric_help(Metric m) {
  switch (m) {
    case Metric::kPlaysCompleted:
      return "Simulated plays finished and folded into the rollup";
    case Metric::kUsersCompleted: return "Users fully executed";
    case Metric::kChunksCompleted: return "Campaign chunks folded";
    case Metric::kSpillBytesWritten:
      return "Bytes appended to the columnar record spill";
    case Metric::kSpillFramesWritten:
      return "Spill frames (extents) flushed to disk";
    case Metric::kCacheHits: return "Study cache hits";
    case Metric::kCacheMisses: return "Study cache misses (study re-ran)";
    case Metric::kHeartbeatsWritten:
      return "Shard heartbeat files atomically renamed into place";
    case Metric::kHttpRequests:
      return "HTTP requests served by the embedded status exporter";
    case Metric::kCount: break;
  }
  return "";
}

const char* gauge_name(MetricGauge g) {
  switch (g) {
    case MetricGauge::kUsersPlanned: return "rv_users_planned";
    case MetricGauge::kShardIndex: return "rv_shard_index";
    case MetricGauge::kShardCount: return "rv_shard_count";
    case MetricGauge::kWorkers: return "rv_worker_threads";
    case MetricGauge::kRssKb: return "rv_resident_memory_kilobytes";
    case MetricGauge::kLastFoldUser: return "rv_last_fold_user";
    case MetricGauge::kCount: break;
  }
  return "rv_unknown";
}

const char* gauge_help(MetricGauge g) {
  switch (g) {
    case MetricGauge::kUsersPlanned:
      return "Users this process will execute (ETA denominator)";
    case MetricGauge::kShardIndex: return "This process's shard index";
    case MetricGauge::kShardCount: return "Total shards in the campaign";
    case MetricGauge::kWorkers: return "Resolved worker-thread count";
    case MetricGauge::kRssKb: return "Resident set size in KiB";
    case MetricGauge::kLastFoldUser:
      return "Absolute user id the fold position has reached";
    case MetricGauge::kCount: break;
  }
  return "";
}

const char* hist_name(MetricHist h) {
  switch (h) {
    case MetricHist::kPlayFps: return "rv_play_fps";
    case MetricHist::kPlayBandwidthKbps: return "rv_play_bandwidth_kbps";
    case MetricHist::kCount: break;
  }
  return "rv_unknown_hist";
}

const char* hist_help(MetricHist h) {
  switch (h) {
    case MetricHist::kPlayFps:
      return "Measured frame rate per analyzable play";
    case MetricHist::kPlayBandwidthKbps:
      return "Measured bandwidth per analyzable play (Kbps)";
    case MetricHist::kCount: break;
  }
  return "";
}

std::string prom_escape_label(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string prom_escape_help(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

MetricsRegistry::MetricsRegistry()
    : hists_{Hist(kMetricFpsLo, kMetricFpsHi, kMetricFpsBins),
             Hist(kMetricBwLo, kMetricBwHi, kMetricBwBins)},
      start_(std::chrono::steady_clock::now()) {}

void MetricsRegistry::observe(MetricHist h, double value) {
  Hist& slot = hists_[static_cast<std::size_t>(h)];
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.h.add(value);
  slot.sum += value;
}

std::uint64_t MetricsRegistry::hist_count(MetricHist h) const {
  const Hist& slot = hists_[static_cast<std::size_t>(h)];
  std::lock_guard<std::mutex> lock(slot.mu);
  return slot.h.total();
}

double MetricsRegistry::hist_quantile(MetricHist h, double q) const {
  const Hist& slot = hists_[static_cast<std::size_t>(h)];
  std::lock_guard<std::mutex> lock(slot.mu);
  return slot.h.quantile(q);
}

void MetricsRegistry::set_common_label(std::string name, std::string value) {
  std::lock_guard<std::mutex> lock(label_mu_);
  label_name_ = std::move(name);
  label_value_ = std::move(value);
}

double MetricsRegistry::elapsed_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

std::string MetricsRegistry::encode_prometheus() const {
  std::string label;       // `{name="value"}` or ""
  std::string label_open;  // `{name="value",` or "{" — for histogram le
  {
    std::lock_guard<std::mutex> lock(label_mu_);
    if (!label_name_.empty()) {
      const std::string pair =
          label_name_ + "=\"" + prom_escape_label(label_value_) + "\"";
      label = "{" + pair + "}";
      label_open = "{" + pair + ",";
    } else {
      label_open = "{";
    }
  }

  std::ostringstream os;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Metric::kCount); ++i) {
    const auto m = static_cast<Metric>(i);
    os << "# HELP " << metric_name(m) << ' '
       << prom_escape_help(metric_help(m)) << "\n";
    os << "# TYPE " << metric_name(m) << " counter\n";
    os << metric_name(m) << label << ' ' << value(m) << "\n";
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(MetricGauge::kCount);
       ++i) {
    const auto g = static_cast<MetricGauge>(i);
    os << "# HELP " << gauge_name(g) << ' '
       << prom_escape_help(gauge_help(g)) << "\n";
    os << "# TYPE " << gauge_name(g) << " gauge\n";
    os << gauge_name(g) << label << ' ' << gauge(g) << "\n";
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(MetricHist::kCount);
       ++i) {
    const auto hid = static_cast<MetricHist>(i);
    const Hist& slot = hists_[i];
    std::lock_guard<std::mutex> lock(slot.mu);
    os << "# HELP " << hist_name(hid) << ' '
       << prom_escape_help(hist_help(hid)) << "\n";
    os << "# TYPE " << hist_name(hid) << " histogram\n";
    // Cumulative le-buckets over the sketch's fixed geometry. Values above
    // hi clamp into the last finite bucket by MergeableHistogram::add, so
    // the +Inf bucket always equals the total count.
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < slot.h.bins(); ++b) {
      cumulative += slot.h.bin_count(b);
      const double le =
          slot.h.lo() +
          (slot.h.hi() - slot.h.lo()) *
              (static_cast<double>(b + 1) / static_cast<double>(slot.h.bins()));
      os << hist_name(hid) << "_bucket" << label_open << "le=\""
         << prom_double(le) << "\"} " << cumulative << "\n";
    }
    os << hist_name(hid) << "_bucket" << label_open << "le=\"+Inf\"} "
       << slot.h.total() << "\n";
    os << hist_name(hid) << "_sum" << label << ' ' << prom_double(slot.sum)
       << "\n";
    os << hist_name(hid) << "_count" << label << ' ' << slot.h.total()
       << "\n";
  }
  return os.str();
}

ProgressSnapshot snapshot_progress(const MetricsRegistry& registry) {
  ProgressSnapshot s;
  s.plays = registry.value(Metric::kPlaysCompleted);
  s.users_done = registry.value(Metric::kUsersCompleted);
  s.users_total =
      static_cast<std::uint64_t>(registry.gauge(MetricGauge::kUsersPlanned));
  s.shard_index =
      static_cast<std::uint64_t>(registry.gauge(MetricGauge::kShardIndex));
  const std::int64_t shards = registry.gauge(MetricGauge::kShardCount);
  s.shard_count = shards > 0 ? static_cast<std::uint64_t>(shards) : 1;
  s.elapsed_seconds = registry.elapsed_seconds();
  if (s.elapsed_seconds > 0.0) {
    s.plays_per_sec = static_cast<double>(s.plays) / s.elapsed_seconds;
    s.users_per_sec = static_cast<double>(s.users_done) / s.elapsed_seconds;
  }
  s.done = s.users_total > 0 && s.users_done >= s.users_total;
  if (s.done) {
    s.eta_seconds = 0.0;
  } else if (s.users_total > 0 && s.users_per_sec > 0.0) {
    s.eta_seconds =
        static_cast<double>(s.users_total - s.users_done) / s.users_per_sec;
  }
  s.rss_kb = registry.gauge(MetricGauge::kRssKb);
  return s;
}

std::string progress_json(const ProgressSnapshot& s) {
  std::ostringstream os;
  os << "{\"plays\":" << s.plays << ",\"users_done\":" << s.users_done
     << ",\"users_total\":" << s.users_total
     << ",\"plays_per_sec\":" << prom_double(s.plays_per_sec)
     << ",\"users_per_sec\":" << prom_double(s.users_per_sec)
     << ",\"elapsed_seconds\":" << prom_double(s.elapsed_seconds)
     << ",\"eta_seconds\":";
  if (s.eta_seconds < 0.0) {
    os << "null";
  } else {
    os << prom_double(s.eta_seconds);
  }
  os << ",\"shard_index\":" << s.shard_index
     << ",\"shard_count\":" << s.shard_count << ",\"rss_kb\":" << s.rss_kb
     << ",\"done\":" << (s.done ? "true" : "false") << "}";
  return os.str();
}

namespace detail {
std::atomic<MetricsRegistry*> g_metrics{nullptr};
}  // namespace detail

void install_metrics(MetricsRegistry* registry) {
  detail::g_metrics.store(registry, std::memory_order_release);
}

MetricsRegistry* installed_metrics() {
  return detail::g_metrics.load(std::memory_order_acquire);
}

std::int64_t proc_status_kb(std::string_view field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.size() > field.size() && line.starts_with(field) &&
        line[field.size()] == ':') {
      return std::strtoll(line.c_str() + field.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

std::int64_t current_rss_kb() { return proc_status_kb("VmRSS"); }

}  // namespace rv::obs
