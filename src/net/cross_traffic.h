// Background cross-traffic: exponential on/off UDP packet trains between two
// adjacent nodes, loading the shared link so foreground flows see realistic
// queueing delay and loss.
//
// During an ON burst the source emits fixed-size packets at `burst_rate`;
// burst and idle durations are exponentially distributed. The long-run
// offered load is burst_rate * mean_on / (mean_on + mean_off).
//
// Fast path: background traffic is most of the simulated packets, so the
// source skips the generic forwarding path. It injects each packet straight
// into the src -> dst link direction (no Network::send, no route lookup at
// the source node), and when dst would only discard the packet — no local
// sink and no delivery tap, checked per packet — it marks the packet so
// the link schedules no delivery event. The link still serialises it and
// still schedules its tx-done, so every surviving event keeps its time and
// relative order (DESIGN.md §7.2).
#pragma once

#include <cstdint>

#include "net/network.h"
#include "util/rng.h"
#include "util/units.h"

namespace rv::net {

struct CrossTrafficConfig {
  BitsPerSec burst_rate = 0;      // send rate while ON
  SimTime mean_on = msec(500);    // mean burst duration
  SimTime mean_off = msec(500);   // mean idle duration
  std::int32_t packet_bytes = 1000;
  // 0 = exponential ON durations (Markovian). > 1 = Pareto-distributed ON
  // durations with this shape (heavy-tailed bursts, the self-similar
  // traffic shape of the period's measurement literature); the mean stays
  // mean_on.
  double pareto_on_shape = 0.0;
};

class CrossTrafficSource {
 public:
  // Traffic flows src -> dst, which must be adjacent so that exactly the
  // link between them is loaded. The sink node drops the packets.
  CrossTrafficSource(Network& network, NodeId src, NodeId dst,
                     const CrossTrafficConfig& config, util::Rng rng);

  // Resolves the src -> dst link direction (checks that a link joins the
  // two nodes and is the route between them, so call after
  // Network::compute_routes) and starts the on/off process; runs until the
  // simulation ends.
  void start();

  std::uint64_t packets_emitted() const { return packets_emitted_; }

 private:
  void begin_burst();
  void emit_packet();

  Network& network_;
  NodeId src_;
  NodeId dst_;
  LinkDirection* out_ = nullptr;  // src -> dst, resolved in start()
  const Node* far_end_ = nullptr;  // dst
  CrossTrafficConfig config_;
  util::Rng rng_;
  SimTime burst_end_ = 0;
  std::uint64_t packets_emitted_ = 0;
};

}  // namespace rv::net
