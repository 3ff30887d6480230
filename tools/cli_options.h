// The command-line flags realdata and retracer share, parsed and validated
// in one place, plus the live status exporter both tools run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/http_exporter.h"
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
