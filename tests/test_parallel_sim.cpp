// Parallel kernel: island partitioner, barrier-window scheduler, and the
// twin-run determinism property — the same seed must produce bit-identical
// results on the serial kernel and on the parallel kernel at any thread
// count (DESIGN.md §10).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/traffic.h"
#include "scenario/campus.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "topology/island_partition.h"

// GCC 12 reports a -Wrestrict false positive inside libstdc++ for
// "literal" + std::string (GCC bug 105651), which this file concatenates.
#pragma GCC diagnostic ignored "-Wrestrict"

namespace livesec {
namespace {

// --- island partitioner ------------------------------------------------------

/// Small campus-shaped graph: a core, two risers, four switches per riser.
topo::IslandGraph two_building_graph() {
  topo::IslandGraph g;
  const std::uint32_t core = g.add_node(1);
  for (int b = 0; b < 2; ++b) {
    const std::uint32_t riser = g.add_node(1);
    g.add_edge(core, riser, 20 * kMicrosecond);
    for (int s = 0; s < 4; ++s) {
      const std::uint32_t sw = g.add_node(8);
      g.add_edge(riser, sw, 2 * kMicrosecond);
    }
  }
  return g;
}

TEST(IslandPartition, AssignsEveryNodeToExactlyOneIsland) {
  const topo::IslandGraph g = two_building_graph();
  const topo::IslandPartition p = topo::IslandPartition::compute(g, 4);
  ASSERT_EQ(p.island_of.size(), g.node_count());
  ASSERT_GE(p.island_count, 1u);
  ASSERT_LE(p.island_count, 4u);
  std::vector<std::uint64_t> weight(p.island_count, 0);
  for (std::uint32_t n = 0; n < g.node_count(); ++n) {
    ASSERT_LT(p.island_of[n], p.island_count);  // exactly one island, in range
    weight[p.island_of[n]] += g.weight(n);
  }
  for (std::uint32_t i = 0; i < p.island_count; ++i) {
    EXPECT_GT(weight[i], 0u) << "island " << i << " is empty";
    EXPECT_EQ(weight[i], p.island_weight[i]);
  }
}

TEST(IslandPartition, LookaheadIsTheMinimumCrossIslandEdge) {
  const topo::IslandGraph g = two_building_graph();
  const topo::IslandPartition p = topo::IslandPartition::compute(g, 4);
  SimTime min_cross = sim::kTimeMax;
  for (const topo::IslandGraph::Edge& e : g.edges()) {
    if (p.island_of[e.a] == p.island_of[e.b]) continue;
    EXPECT_GE(e.delay, p.lookahead);  // no cross edge undercuts the window
    min_cross = std::min(min_cross, e.delay);
  }
  if (p.island_count > 1) {
    EXPECT_EQ(p.lookahead, min_cross);
    EXPECT_GT(p.lookahead, 0);
  }
}

TEST(IslandPartition, SingleSwitchGraphIsOneIslandWithUnboundedLookahead) {
  topo::IslandGraph g;
  g.add_node(4);
  const topo::IslandPartition p = topo::IslandPartition::compute(g, 8);
  EXPECT_EQ(p.island_count, 1u);
  EXPECT_EQ(p.island_of[0], 0u);
  // No cross-island edges: every window is a full drain.
  EXPECT_GT(p.lookahead, 365LL * 24 * 3600 * kSecond);
}

TEST(IslandPartition, DisconnectedHostStaysPartitionedWithoutCrossEdges) {
  topo::IslandGraph g;
  const std::uint32_t sw = g.add_node(8);
  const std::uint32_t attached = g.add_node(1);
  g.add_edge(sw, attached, 5 * kMicrosecond);
  g.add_node(1);  // detached host: no edges at all
  const topo::IslandPartition p = topo::IslandPartition::compute(g, 8);
  ASSERT_EQ(p.island_of.size(), 3u);
  for (std::uint32_t n = 0; n < 3; ++n) EXPECT_LT(p.island_of[n], p.island_count);
  // If the detached node landed in its own island the cut crosses no edge,
  // so the lookahead must stay unbounded rather than degrade the window.
  if (p.island_of[2] != p.island_of[sw]) {
    EXPECT_GT(p.lookahead, 365LL * 24 * 3600 * kSecond);
  }
}

TEST(IslandPartition, ZeroDelayEdgesForceMergedIslands) {
  topo::IslandGraph g;
  const std::uint32_t a = g.add_node(8);
  const std::uint32_t b = g.add_node(8);
  const std::uint32_t c = g.add_node(8);
  const std::uint32_t far = g.add_node(8);
  g.add_edge(a, b, 0);  // same-hypervisor virtual wire
  g.add_edge(b, c, 0);
  g.add_edge(c, far, 10 * kMicrosecond);
  const topo::IslandPartition p = topo::IslandPartition::compute(g, 8);
  EXPECT_EQ(p.island_of[a], p.island_of[b]);  // zero-delay chain is one atom
  EXPECT_EQ(p.island_of[b], p.island_of[c]);
  if (p.island_of[far] != p.island_of[c]) {
    EXPECT_EQ(p.lookahead, 10 * kMicrosecond);
  }
}

TEST(IslandPartition, SameGraphAlwaysYieldsSamePartition) {
  const topo::IslandGraph g = two_building_graph();
  const topo::IslandPartition p1 = topo::IslandPartition::compute(g, 4);
  const topo::IslandPartition p2 = topo::IslandPartition::compute(g, 4);
  EXPECT_EQ(p1.island_of, p2.island_of);
  EXPECT_EQ(p1.lookahead, p2.lookahead);
  EXPECT_EQ(p1.island_weight, p2.island_weight);
}

TEST(IslandPartition, PromoteRelabelsTargetIslandToZero) {
  const topo::IslandGraph g = two_building_graph();
  topo::IslandPartition p = topo::IslandPartition::compute(g, 4);
  const std::uint32_t node = g.node_count() - 1;
  const topo::IslandPartition before = p;
  p.promote_island_of(node);
  EXPECT_EQ(p.island_of[node], 0u);
  EXPECT_EQ(p.island_count, before.island_count);
  // Relabeling must be a permutation: co-residency is unchanged.
  for (std::uint32_t x = 0; x < g.node_count(); ++x) {
    for (std::uint32_t y = x + 1; y < g.node_count(); ++y) {
      EXPECT_EQ(before.island_of[x] == before.island_of[y],
                p.island_of[x] == p.island_of[y]);
    }
  }
}

TEST(IslandPartition, CampusGeneratorGraphPartitionsAlongBuildings) {
  scenario::CampusConfig config;
  config.hosts = 4096;
  config.hosts_per_switch = 64;  // 64 switches over 16 buildings
  scenario::CampusGenerator campus(config);
  const topo::IslandGraph g = campus.island_graph();
  const topo::IslandPartition p = topo::IslandPartition::compute(g, 8);
  ASSERT_EQ(p.island_of.size(), g.node_count());
  EXPECT_LE(p.island_count, 8u);
  EXPECT_GE(p.island_count, 2u);
  EXPECT_GE(p.lookahead, config.riser_delay);  // never below the graph's min edge
}

// --- barrier-window kernel ---------------------------------------------------

TEST(ParallelKernel, DrainsLocalChainsAcrossWindows) {
  sim::Simulator a, b;
  sim::ParallelSimulator par({.threads = 2, .lookahead = 100});
  par.add_island(a);
  par.add_island(b);
  std::uint64_t ticks_a = 0, ticks_b = 0;
  // 1000-tick chains span 10 windows each; both islands stay busy per round.
  std::function<void()> chain_a = [&] {
    if (++ticks_a < 1000) a.schedule(10, [&] { chain_a(); });
  };
  std::function<void()> chain_b = [&] {
    if (++ticks_b < 1000) b.schedule(10, [&] { chain_b(); });
  };
  a.schedule(10, [&] { chain_a(); });
  b.schedule(10, [&] { chain_b(); });
  const std::uint64_t events = par.run();
  EXPECT_EQ(ticks_a, 1000u);
  EXPECT_EQ(ticks_b, 1000u);
  EXPECT_EQ(events, 2000u);
  const sim::ParallelSimulator::Stats stats = par.stats();
  EXPECT_EQ(stats.events, 2000u);
  EXPECT_GE(stats.rounds, 2u);  // lookahead 100 cannot drain 10000 ns at once
  EXPECT_EQ(stats.island_events[0], 1000u);
  EXPECT_EQ(stats.island_events[1], 1000u);
}

TEST(ParallelKernel, CrossIslandMessageArrivesAtExactTime) {
  sim::Simulator a, b;
  sim::ParallelSimulator par({.threads = 2, .lookahead = 100});
  par.add_island(a);
  par.add_island(b);
  SimTime arrived_at = -1;
  a.schedule(5, [&] {
    // Conservative contract: the cross delay is >= the lookahead.
    a.schedule_cross(b, 150, [&] { arrived_at = b.now(); });
  });
  par.run_until(1000);
  EXPECT_EQ(arrived_at, 155);
  EXPECT_EQ(a.now(), 1000);  // run_until advances every island clock
  EXPECT_EQ(b.now(), 1000);
  EXPECT_EQ(par.stats().remote_messages, 1u);
}

TEST(ParallelKernel, FarFutureLocalEventIsStagedAndStillRuns) {
  sim::Simulator a, b;
  sim::ParallelSimulator par({.threads = 1, .lookahead = 10});
  par.add_island(a);
  par.add_island(b);
  bool far_ran = false;
  int near_ticks = 0;
  std::function<void()> tick = [&] {
    // Once inside a 10 ns window, the 500 ns target is past the window end
    // and must take the staging path instead of the calendar queue.
    if (++near_ticks == 1) a.schedule(500, [&] { far_ran = true; });
    if (near_ticks < 5) a.schedule(1, [&] { tick(); });
  };
  a.schedule(1, [&] { tick(); });
  par.run();
  EXPECT_TRUE(far_ran);
  EXPECT_EQ(near_ticks, 5);
  EXPECT_GE(par.stats().staged_messages, 1u);
}

/// Equal-time messages into one island must execute in an order that is a
/// pure function of the event timeline — (parent dispatch time, source
/// island, FIFO index) — never of the thread schedule.
std::vector<int> merge_order_at(unsigned threads) {
  sim::Simulator hub, left, right;
  sim::ParallelSimulator par({.threads = threads, .lookahead = 50});
  par.add_island(hub);   // island 0
  par.add_island(left);  // island 1
  par.add_island(right);  // island 2
  std::vector<int> order;
  // All four messages land on the hub at t = 200 with distinct (parent, src,
  // idx) keys: parents 10/20 on each side, two FIFO posts from `right`.
  left.schedule(10, [&] { left.schedule_cross(hub, 190, [&] { order.push_back(1); }); });
  right.schedule(10, [&] {
    right.schedule_cross(hub, 190, [&] { order.push_back(2); });
    right.schedule_cross(hub, 190, [&] { order.push_back(3); });
  });
  left.schedule(20, [&] { left.schedule_cross(hub, 180, [&] { order.push_back(4); }); });
  par.run();
  return order;
}

TEST(ParallelKernel, EqualTimeMergeOrderIsThreadCountInvariant) {
  const std::vector<int> expected = {1, 2, 3, 4};  // parent asc, then src, then FIFO
  EXPECT_EQ(merge_order_at(1), expected);
  EXPECT_EQ(merge_order_at(2), expected);
  EXPECT_EQ(merge_order_at(4), expected);
}

TEST(ParallelKernel, BackToBackRunsResumeWhereTheLastStopped) {
  sim::Simulator a, b;
  sim::ParallelSimulator par({.threads = 2, .lookahead = 100});
  par.add_island(a);
  par.add_island(b);
  // One counter per island: events on different islands run concurrently,
  // so cross-island state must go through messages, never shared writes.
  int ran_a = 0, ran_b = 0;
  a.schedule(50, [&] { ++ran_a; });
  b.schedule(250, [&] { ++ran_b; });
  par.run_until(100);
  EXPECT_EQ(ran_a, 1);
  EXPECT_EQ(ran_b, 0);
  // Scheduling between runs goes straight to the calendar queue.
  a.schedule(120, [&] { ++ran_a; });  // absolute t = 220
  par.run_until(300);
  EXPECT_EQ(ran_a, 2);
  EXPECT_EQ(ran_b, 1);
  EXPECT_EQ(a.now(), 300);
  EXPECT_EQ(b.now(), 300);
}

// --- twin-run determinism over a full deployment -----------------------------

/// Everything observable a run produces. Two runs are "bit-identical" iff
/// their RunOutcomes compare equal.
struct RunOutcome {
  std::vector<std::uint64_t> sink_packets;
  std::vector<std::uint64_t> sink_bytes;
  std::uint64_t port_tx = 0, port_rx = 0, port_drops = 0;
  std::uint64_t packet_ins = 0, flows_installed = 0, flows_redirected = 0;
  std::uint64_t verdicts = 0;
  std::uint32_t islands = 0;
  // Event-pipeline fingerprints. `events_json` is the raw stream (ids and
  // order included): identical across thread counts. Serial vs parallel can
  // reorder *within* one timestamp (DESIGN.md §10's residual tie class:
  // equal-time events whose parents dispatched at the same nanosecond on
  // different islands), so the serial comparison uses `events_canonical` —
  // id-stripped rows sorted within each timestamp — plus the rollups,
  // which aggregate per bucket and must match exactly.
  std::uint64_t events_total = 0;
  std::string events_json;
  std::string rollup_json;
  std::vector<std::pair<SimTime, std::string>> events_canonical;

  bool operator==(const RunOutcome&) const = default;
};

/// FIT-building-style deployment: two backbone switches, an IDS chain, four
/// AS switches with three hosts each, every host streaming UDP to a distinct
/// sink across the backbone. `threads` == 0 runs the serial kernel.
RunOutcome run_deployment(unsigned threads) {
  net::Network network;
  auto& bb0 = network.add_legacy_switch("bb0");
  auto& bb1 = network.add_legacy_switch("bb1");
  network.connect_legacy(bb0, bb1);

  auto& se_sw = network.add_as_switch("se-sw", bb0, 1e9);
  network.add_service_element(svc::ServiceType::kIntrusionDetection, se_sw);
  ctrl::Policy policy;
  policy.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection};
  network.controller().policies().add(policy);

  std::vector<net::Host*> hosts;
  for (int s = 0; s < 4; ++s) {
    auto& as_sw = network.add_as_switch("as" + std::to_string(s), s < 2 ? bb0 : bb1, 1e9);
    for (int h = 0; h < 3; ++h) {
      hosts.push_back(&network.add_host("h" + std::to_string(s) + "_" + std::to_string(h),
                                        as_sw, 100e6));
    }
  }

  if (threads > 0) {
    network.enable_parallel(net::Network::ParallelConfig{.threads = threads, .max_islands = 6});
  }
  network.start();

  const SimTime duration = 150 * kMillisecond;
  std::vector<std::unique_ptr<net::UdpCbrApp>> apps;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const std::size_t sink = (i + 5) % hosts.size();  // crosses the backbone
    apps.push_back(std::make_unique<net::UdpCbrApp>(
        *hosts[i],
        net::UdpCbrApp::Config{.dst = hosts[sink]->ip(),
                               .dst_port = static_cast<std::uint16_t>(9000 + i),
                               .src_port = static_cast<std::uint16_t>(40000 + i),
                               .rate_bps = 4e6,
                               .packet_payload = 600,
                               .duration = duration}));
  }
  for (auto& app : apps) app->start();
  network.run_for(duration + 50 * kMillisecond);

  RunOutcome out;
  for (auto* host : hosts) {
    out.sink_packets.push_back(host->rx_ip_packets());
    out.sink_bytes.push_back(host->rx_ip_bytes());
  }
  // Aggregating Port counters from the driving thread between runs is the
  // supported read-side merge; under TSan this doubles as the proof that the
  // single-writer counter discipline holds.
  auto absorb = [&out](const sim::Node& node) {
    for (std::size_t p = 0; p < node.port_count(); ++p) {
      const sim::Port& port = node.port(static_cast<PortId>(p));
      out.port_tx += port.tx_packets();
      out.port_rx += port.rx_packets();
      out.port_drops += port.dropped();
    }
  };
  for (const auto& sw : network.legacy_switches()) absorb(*sw);
  for (const auto& sw : network.as_switches()) absorb(*sw);
  for (const auto& host : network.hosts()) absorb(*host);
  for (const auto& se : network.service_elements()) absorb(*se);

  const ctrl::Controller::Stats& stats = network.controller().stats();
  out.packet_ins = stats.packet_ins;
  out.flows_installed = stats.flows_installed;
  out.flows_redirected = stats.flows_redirected;
  out.verdicts = stats.verdict_messages;
  out.islands = network.partition() != nullptr ? network.partition()->island_count : 0;
  const auto& events = network.controller().events();
  out.events_total = events.counters().appended;
  out.events_json = events.to_json(0, network.sim().now() + 1);
  out.rollup_json = events.rollup_json(0, network.sim().now() + 1);
  events.replay(0, network.sim().now() + 1, [&out](const mon::NetworkEvent& e) {
    out.events_canonical.emplace_back(
        e.time, std::string(mon::event_type_name(e.type)) + "|" + e.subject + "|" + e.detail +
                    "|" + std::to_string(e.dpid) + "|" + std::to_string(e.se_id) + "|" +
                    std::to_string(e.severity));
  });
  std::sort(out.events_canonical.begin(), out.events_canonical.end());
  return out;
}

TEST(ParallelNetwork, TwinRunsAreBitIdenticalAcrossThreadCounts) {
  const RunOutcome serial = run_deployment(0);
  // Sanity: the workload actually moved traffic through the redirect chain.
  std::uint64_t total = 0;
  for (std::uint64_t p : serial.sink_packets) total += p;
  ASSERT_GT(total, 100u);
  ASSERT_GT(serial.flows_redirected, 0u);

  RunOutcome par1 = run_deployment(1);
  RunOutcome par2 = run_deployment(2);
  RunOutcome par4 = run_deployment(4);
  EXPECT_GT(par1.islands, 1u);  // the partition actually sharded the fabric
  // Island structure is a function of the topology, not the thread count...
  EXPECT_EQ(par1.islands, par2.islands);
  EXPECT_EQ(par2.islands, par4.islands);
  // ...and every observable is a function of the seed, not the kernel.
  par1.islands = par2.islands = par4.islands = serial.islands;
  // Event streams are byte-identical across thread counts (ids included).
  EXPECT_GT(par1.events_total, 0u);
  EXPECT_EQ(par2.events_json, par1.events_json);
  EXPECT_EQ(par4.events_json, par1.events_json);
  // Serial vs parallel: same events at every timestamp and identical
  // rollups; within-timestamp order may differ (the §10 residual tie
  // class), so the raw-stream fields are aligned before the struct compare.
  EXPECT_EQ(par1.events_total, serial.events_total);
  EXPECT_EQ(par1.events_canonical, serial.events_canonical);
  EXPECT_EQ(par1.rollup_json, serial.rollup_json);
  par1.events_json = par2.events_json = par4.events_json = serial.events_json;
  par1.events_canonical.clear();
  par2.events_canonical.clear();
  par4.events_canonical.clear();
  RunOutcome serial_aligned = serial;
  serial_aligned.events_canonical.clear();
  EXPECT_EQ(par1, serial_aligned);
  EXPECT_EQ(par2, serial_aligned);
  EXPECT_EQ(par4, serial_aligned);
}

TEST(ParallelNetwork, PortCountersSurviveCrossThreadAggregation) {
  // All counter writes happen island-side during the run; this read-side
  // merge afterwards must be race-free (the TSan CI job enforces it) and
  // conservation must hold: nothing received that was never transmitted.
  const RunOutcome out = run_deployment(4);
  EXPECT_GT(out.port_tx, 0u);
  EXPECT_GE(out.port_tx, out.port_rx);
  EXPECT_GE(out.port_rx, 1000u);
}

TEST(ParallelNetwork, SingleSwitchDeploymentDegeneratesGracefully) {
  net::Network network;
  auto& bb = network.add_legacy_switch("bb");
  auto& as_sw = network.add_as_switch("as0", bb, 1e9);
  net::Host& a = network.add_host("a", as_sw);
  net::Host& b = network.add_host("b", as_sw);
  network.enable_parallel(net::Network::ParallelConfig{.threads = 4, .max_islands = 8});
  network.start();

  bool done = false;
  a.ping(b.ip(), 2, 10 * kMillisecond, [&](const net::Host::PingStats& stats) {
    done = true;
    EXPECT_EQ(stats.received, 2u);
  });
  network.run_for(100 * kMillisecond);
  EXPECT_TRUE(done);
  ASSERT_NE(network.partition(), nullptr);
  EXPECT_GE(network.partition()->island_count, 1u);
}

}  // namespace
}  // namespace livesec
