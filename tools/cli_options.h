// The command-line flags the tools share, parsed and validated in one
// place: realdata's and retracer's run flags, the single play retracer and
// rtspdump both run, and the live status exporter.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/http_exporter.h"
#include "media/catalog.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "tracer/real_tracer.h"
#include "util/args.h"

namespace rv::tools {

struct SharedFlags {
  std::string trace_path;  // --trace <path>: Chrome trace output ("" = off)
  std::string series_csv;  // --series-csv <path>: series CSV ("" = off)
  int status_port = -1;    // --status-port <0..65535> (-1 = no exporter)
  std::int64_t status_hold_ms = 0;  // --status-hold-ms <n>
};

// Reads --cc, --trace, --telemetry, --telemetry-interval-ms, --series-csv,
// --status-port and --status-hold-ms, plus --watch when `with_watch` is set
// (commands that do not play a configurable window never read it). Tracer
// knobs land in `tracer`, the rest in `out`. A malformed value prints one
// line naming the flag to `err` and returns false; the tools then exit 2.
bool parse_shared_flags(const util::Args& args, bool with_watch,
                        tracer::TracerConfig* tracer, SharedFlags* out,
                        std::ostream& err);

// The flag names parse_shared_flags reads with the same `with_watch`, for
// a tool's Args::reject_unknown list.
std::vector<std::string_view> shared_flag_names(bool with_watch);

// The one play retracer reports and rtspdump monitors: a U.S. test user
// with the --connection, --region and --pc given, playing playlist entry
// --clip of the --seed catalog, over TCP from the start with --protocol
// tcp. A tool that does not take --region or --pc plays their defaults, so
// the same flags give both tools the same play.
struct SinglePlay {
  std::uint64_t seed = 2001;  // the catalog's, the user's and the play's
  world::UserProfile user;
  std::int64_t clip = 0;  // playlist index, taken modulo the catalog size
  bool force_tcp = false;

  std::size_t playlist_index(const media::Catalog& catalog) const {
    return static_cast<std::size_t>(clip) % catalog.size();
  }
  // Plays it through `tracer`, whose catalog is `catalog`; `tap`
  // (optional) sees every packet the play's network delivers.
  tracer::TraceRecord run(const tracer::RealTracer& tracer,
                          const media::Catalog& catalog,
                          net::Network::DeliveryTap tap = nullptr) const;
};

// Reads --seed, --connection, --region, --pc, --clip and --protocol. An
// unknown name prints one line naming the flag and the names it accepts to
// `err` and returns false; the tools then exit 2. Malformed numbers land in
// args.errors().
bool parse_single_play(const util::Args& args, SinglePlay* out,
                       std::ostream& err);

// Installs a metrics registry for the process and, once start() is given a
// port, serves it on 127.0.0.1 (GET /metrics, /progress, /healthz). The
// destructor keeps serving for status_hold_ms, so a scraper can read the
// final state, then stops the server before the registry goes away.
class StatusExporter {
 public:
  StatusExporter();
  ~StatusExporter();
  StatusExporter(const StatusExporter&) = delete;
  StatusExporter& operator=(const StatusExporter&) = delete;

  // No-op without --status-port. Returns false, after printing the reason
  // to `err`, when the port cannot be bound.
  bool start(const SharedFlags& flags, std::ostream& err);

 private:
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::StatusServer> server_;
  std::int64_t hold_ms_ = 0;
};

}  // namespace rv::tools
