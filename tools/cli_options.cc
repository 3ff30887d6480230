#include "cli_options.h"

#include <chrono>
#include <ostream>
#include <thread>

#include "transport/congestion_control.h"

namespace rv::tools {
namespace {

// One name a flag accepts and the value it sets.
template <typename T>
struct Named {
  std::string_view name;
  T value;
};

constexpr Named<world::ConnectionClass> kConnections[] = {
    {"modem", world::ConnectionClass::kModem56k},
    {"dsl", world::ConnectionClass::kDslCable},
    {"t1", world::ConnectionClass::kT1Lan},
    {"lan", world::ConnectionClass::kT1Lan},
};

constexpr Named<world::Region> kRegions[] = {
    {"us-east", world::Region::kUsEast},
    {"us-west", world::Region::kUsWest},
    {"europe", world::Region::kEurope},
    {"asia", world::Region::kAsia},
    {"japan", world::Region::kJapan},
    {"australia", world::Region::kAustralia},
    {"s-america", world::Region::kSouthAmerica},
    {"middle-east", world::Region::kMiddleEast},
};

// --protocol: whether the play skips the UDP attempt.
constexpr Named<bool> kProtocols[] = {{"auto", false}, {"tcp", true}};

// Sets *out to the value `flag` names in `table`; leaves it alone when the
// flag is absent. Any other name, an empty one included, is an error.
template <typename T, std::size_t N>
bool parse_named(const util::Args& args, const char* flag,
                 const Named<T> (&table)[N], T* out, std::ostream& err) {
  const auto given = args.get(flag);
  if (!given) return true;
  for (const auto& [name, value] : table) {
    if (*given == name) {
      *out = value;
      return true;
    }
  }
  err << "--" << flag << " expects one of " << table[0].name;
  for (std::size_t i = 1; i < N; ++i) err << "|" << table[i].name;
  err << " (got '" << *given << "')\n";
  return false;
}

}  // namespace

bool parse_shared_flags(const util::Args& args, bool with_watch,
                        tracer::TracerConfig* tracer, SharedFlags* out,
                        std::ostream& err) {
  // The numeric accessors record malformed values in args.errors(); only
  // the ones this call adds are its own.
  const std::size_t errors_before = args.errors().size();
  if (const auto cc = args.get("cc")) {
    const auto parsed = transport::parse_cc_algorithm(*cc);
    if (!parsed) {
      err << "--cc expects one of reno|cubic|bbr (got '" << *cc << "')\n";
      return false;
    }
    tracer->tcp_cc = *parsed;
  }
  if (args.has("trace")) {
    out->trace_path = args.get_or("trace", "");
    if (out->trace_path.empty()) {
      err << "--trace requires a file path\n";
      return false;
    }
    tracer->obs.enabled = true;
  }
  if (args.has("series-csv")) {
    out->series_csv = args.get_or("series-csv", "");
    if (out->series_csv.empty()) {
      err << "--series-csv requires a file path\n";
      return false;
    }
  }
  const auto interval_ms = args.get_int("telemetry-interval-ms", 500);
  if (interval_ms <= 0) {
    err << "--telemetry-interval-ms must be a positive integer (got "
        << interval_ms << ")\n";
    return false;
  }
  tracer->telemetry.interval = msec(interval_ms);
  if (args.has("telemetry") || !out->series_csv.empty()) {
    tracer->telemetry.enabled = true;
  }
  if (with_watch && args.has("watch")) {
    const double watch = args.get_double("watch", 60.0);
    if (!(watch > 0.0)) {
      err << "--watch must be a positive number of seconds (got " << watch
          << ")\n";
      return false;
    }
    tracer->watch_duration = seconds_to_sim(watch);
  }
  if (args.has("status-port")) {
    const std::string raw = args.get_or("status-port", "");
    const auto parsed = obs::parse_status_port(raw);
    if (!parsed) {
      err << "--status-port expects an integer in [0, 65535] (got '" << raw
          << "')\n";
      return false;
    }
    out->status_port = *parsed;
  }
  out->status_hold_ms = args.get_int("status-hold-ms", 0);
  if (out->status_hold_ms < 0) {
    err << "--status-hold-ms must be a non-negative integer (got "
        << out->status_hold_ms << ")\n";
    return false;
  }
  for (std::size_t i = errors_before; i < args.errors().size(); ++i) {
    err << args.errors()[i] << "\n";
  }
  return args.errors().size() == errors_before;
}

std::vector<std::string_view> shared_flag_names(bool with_watch) {
  std::vector<std::string_view> names = {
      "cc",          "trace",          "series-csv", "telemetry",
      "status-port", "status-hold-ms", "telemetry-interval-ms"};
  if (with_watch) names.push_back("watch");
  return names;
}

bool parse_single_play(const util::Args& args, SinglePlay* out,
                       std::ostream& err) {
  out->seed = static_cast<std::uint64_t>(args.get_int("seed", 2001));
  out->clip = args.get_int("clip", 0);
  world::UserProfile& user = out->user;
  user.country = "US";
  user.us_state = "MA";
  user.region = world::Region::kUsEast;
  user.group = world::UserRegionGroup::kUsCanada;
  user.connection = world::ConnectionClass::kDslCable;
  user.pc_class = args.get_or("pc", "Pentium II / 128-256");
  user.isp_load_lo = 0.3;
  user.isp_load_hi = 0.6;
  user.seed = out->seed;
  return parse_named(args, "connection", kConnections, &user.connection,
                     err) &&
         parse_named(args, "region", kRegions, &user.region, err) &&
         parse_named(args, "protocol", kProtocols, &out->force_tcp, err);
}

tracer::TraceRecord SinglePlay::run(const tracer::RealTracer& tracer,
                                    const media::Catalog& catalog,
                                    net::Network::DeliveryTap tap) const {
  const std::size_t index = playlist_index(catalog);
  return tracer.run_single(user, index, seed * 7919 + index, force_tcp,
                           /*play_faults=*/nullptr, std::move(tap));
}

StatusExporter::StatusExporter() { obs::install_metrics(&metrics_); }

StatusExporter::~StatusExporter() {
  if (server_ != nullptr && hold_ms_ > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms_));
  }
  server_.reset();
  obs::install_metrics(nullptr);
}

bool StatusExporter::start(const SharedFlags& flags, std::ostream& err) {
  if (flags.status_port < 0) return true;
  server_ = std::make_unique<obs::StatusServer>(&metrics_);
  std::string error;
  if (!server_->start(flags.status_port, &error)) {
    err << "--status-port: " << error << "\n";
    server_.reset();
    return false;
  }
  hold_ms_ = flags.status_hold_ms;
  err << "status: serving http://127.0.0.1:" << server_->port()
      << "/{metrics,progress,healthz}\n";
  return true;
}

}  // namespace rv::tools
