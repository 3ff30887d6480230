// rtspdump — an mmdump-style monitor ([MCCS00], the paper's related work):
// taps the network of the play `retracer` runs for the same flags and dumps
// the control-protocol conversation plus per-second data flow totals, as a
// monitoring box on the path would see them. The closing line reports that
// play's record, so it agrees with retracer's.
//
// Usage:
//   rtspdump [--connection modem|dsl|t1] [--clip <0..97>] [--protocol auto|tcp]
//            [--seed <n>] [--packets]   (--packets: every media packet too)
// Unknown flags, unknown names and malformed numbers exit 2.
#include <iostream>
#include <map>

#include "cli_options.h"
#include "media/packetizer.h"
#include "media/stream_wire.h"
#include "study/study.h"
#include "tracer/real_tracer.h"
#include "util/args.h"
#include "util/strings.h"
#include "world/region_graph.h"

namespace {

using namespace rv;

int run(const util::Args& args) {
  tools::SinglePlay play;
  if (!tools::parse_single_play(args, &play, std::cerr)) return 2;
  if (!args.errors().empty()) {
    for (const auto& err : args.errors()) std::cerr << err << "\n";
    return 2;
  }
  study::StudyConfig study_cfg;
  study_cfg.seed = play.seed;
  const media::Catalog catalog = study::make_catalog(study_cfg);
  const world::RegionGraph graph;
  const tracer::RealTracer tracer(catalog, graph, tracer::TracerConfig{});

  // The tap: control messages verbatim; data flow as per-second counters.
  const bool dump_packets = args.has("packets");
  std::map<std::pair<net::NodeId, net::NodeId>, std::int64_t> second_bytes;
  SimTime current_second = 0;
  auto flush_second = [&] {
    for (const auto& [flow, bytes] : second_bytes) {
      if (bytes > 0) {
        std::cout << util::format_double(to_seconds(current_second), 0)
                  << "s  data " << flow.first << "->" << flow.second << "  "
                  << util::format_double(bytes * 8.0 / 1000.0, 1)
                  << " Kbit\n";
      }
    }
    second_bytes.clear();
  };
  auto media_packet = [&](const net::Packet& p, SimTime when,
                          const net::PayloadMeta* meta) {
    const auto* m = dynamic_cast<const media::MediaPacketMeta*>(meta);
    if (m == nullptr) return;
    second_bytes[{p.src, p.dst}] += m->payload_bytes;
    if (dump_packets) {
      std::cout << util::format_double(to_seconds(when), 3) << "s  "
                << net::protocol_name(p.proto) << " " << p.src << "->"
                << p.dst << "  seq=" << m->seq << " frame=" << m->frame_index
                << " level=" << m->level << " bytes=" << m->payload_bytes
                << "\n";
    }
  };
  const auto tap = [&](const net::Packet& p, net::NodeId at_node,
                       SimTime when) {
    // Each packet once, at the hop into its destination; cross traffic
    // carries no payload description, so only the session shows.
    if (at_node != p.dst) return;
    if (when / kUsecPerSec != current_second / kUsecPerSec) {
      flush_second();
      current_second = when;
    }
    // UDP media rides in the packet's meta; media and control sent over
    // TCP ride as the chunks that end in this segment.
    media_packet(p, when, p.meta.get());
    for (const auto& chunk : p.chunks) {
      if (const auto* text = dynamic_cast<const media::RtspTextMeta*>(
              chunk.meta.get())) {
        const auto first_line = util::split(text->text, '\r')[0];
        std::cout << util::format_double(to_seconds(when), 3) << "s  "
                  << net::protocol_name(p.proto) << " " << p.src << "->"
                  << p.dst << "  " << first_line << "\n";
      }
      media_packet(p, when, chunk.meta.get());
    }
  };

  const tracer::TraceRecord rec = play.run(tracer, catalog, tap);
  flush_second();
  std::cout << "\nsession: "
            << (!rec.available               ? "clip unavailable"
                : rec.stats.played_any_frame ? "played"
                                             : "did not play")
            << ", " << rec.stats.packets_received
            << " media packets received\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: rtspdump [--connection modem|dsl|t1] [--clip N]"
                 " [--protocol auto|tcp] [--seed N] [--packets]\n";
    return 0;
  }
  args.reject_unknown(
      {"connection", "clip", "protocol", "seed", "packets", "help"});
  if (!args.errors().empty()) {
    for (const auto& err : args.errors()) std::cerr << err << "\n";
    return 2;
  }
  return run(args);
}
