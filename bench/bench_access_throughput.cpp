// E1 — Access throughput (paper §V.B.1).
//
// Paper: "single OvS can get up to 100Mbps access performance for wired
// users, and single Pantou can reach 43Mbps for wireless users" (UDP flows).
//
// Reproduction: one wired user behind an OvS and one wireless user behind an
// OF Wi-Fi AP each blast UDP upstream to a sink for 5 simulated seconds;
// goodput is measured at the sink.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_json.h"
#include "net/network.h"
#include "net/traffic.h"

// GCC 12 reports a -Wrestrict false positive inside libstdc++ for
// "literal" + std::string (GCC bug 105651), which this file concatenates.
#pragma GCC diagnostic ignored "-Wrestrict"

using namespace livesec;

namespace {

double run_wired() {
  net::Network network;
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs = network.add_as_switch("ovs1", backbone);
  auto& ovs2 = network.add_as_switch("ovs2", backbone);
  auto& user = network.add_host("wired-user", ovs, 100e6);  // paper: 100 Mbps access
  auto& sink = network.add_host("sink", ovs2, 1e9);
  network.start();

  const SimTime duration = 5 * kSecond;
  net::UdpCbrApp app(user, {.dst = sink.ip(),
                            .rate_bps = 200e6,  // oversubscribe: the link is the limit
                            .packet_payload = 1400,
                            .duration = duration});
  sink.reset_counters();
  const SimTime start = network.sim().now();
  app.start();
  network.run_for(duration + 500 * kMillisecond);
  const double seconds = to_seconds(network.sim().now() - start);
  return static_cast<double>(sink.rx_ip_bytes()) * 8.0 / seconds;
}

double run_wireless() {
  net::Network network;
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs = network.add_as_switch("ovs1", backbone);
  auto& ap = network.add_wifi_ap("ap1", backbone);
  auto& user = network.add_wifi_host("wifi-user", ap);
  auto& sink = network.add_host("sink", ovs, 1e9);
  network.start();

  const SimTime duration = 5 * kSecond;
  net::UdpCbrApp app(user, {.dst = sink.ip(),
                            .rate_bps = 100e6,
                            .packet_payload = 1400,
                            .duration = duration});
  sink.reset_counters();
  const SimTime start = network.sim().now();
  app.start();
  network.run_for(duration + 500 * kMillisecond);
  const double seconds = to_seconds(network.sim().now() - start);
  return static_cast<double>(sink.rx_ip_bytes()) * 8.0 / seconds;
}

/// Aggregate throughput of n wired users on one OvS (each on a 100 Mbps
/// access link, GbE uplink) — the paper's "bandwidth provided for every
/// user will be no less than 100Mbps" scaling to the OvS NIC.
double run_wired_multi(int users) {
  net::Network network;
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs = network.add_as_switch("ovs1", backbone, 1e9);
  auto& sink_sw = network.add_as_switch("ovs2", backbone, 10e9);
  auto& sink = network.add_host("sink", sink_sw, 10e9);
  std::vector<net::Host*> hosts;
  for (int i = 0; i < users; ++i) {
    hosts.push_back(&network.add_host("u" + std::to_string(i), ovs, 100e6));
  }
  network.start();

  const SimTime duration = 3 * kSecond;
  std::vector<std::unique_ptr<net::UdpCbrApp>> apps;
  for (auto* host : hosts) {
    apps.push_back(std::make_unique<net::UdpCbrApp>(
        *host, net::UdpCbrApp::Config{.dst = sink.ip(), .rate_bps = 150e6, .duration = duration}));
  }
  sink.reset_counters();
  const SimTime start = network.sim().now();
  for (auto& app : apps) app->start();
  network.run_for(duration + 500 * kMillisecond);
  return static_cast<double>(sink.rx_ip_bytes()) * 8.0 / to_seconds(network.sim().now() - start);
}

/// Aggregate throughput of n wireless stations on one Pantou AP: the shared
/// radio pins the total near 43 Mbps no matter how many stations associate.
double run_wireless_multi(int stations) {
  net::Network network;
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs = network.add_as_switch("ovs1", backbone);
  auto& ap = network.add_wifi_ap("ap1", backbone);
  auto& sink = network.add_host("sink", ovs, 1e9);
  std::vector<net::Host*> hosts;
  for (int i = 0; i < stations; ++i) {
    hosts.push_back(&network.add_wifi_host("sta" + std::to_string(i), ap));
  }
  network.start();

  const SimTime duration = 3 * kSecond;
  std::vector<std::unique_ptr<net::UdpCbrApp>> apps;
  for (auto* host : hosts) {
    apps.push_back(std::make_unique<net::UdpCbrApp>(
        *host, net::UdpCbrApp::Config{.dst = sink.ip(), .rate_bps = 60e6, .duration = duration}));
  }
  sink.reset_counters();
  const SimTime start = network.sim().now();
  for (auto& app : apps) app->start();
  network.run_for(duration + 500 * kMillisecond);
  return static_cast<double>(sink.rx_ip_bytes()) * 8.0 / to_seconds(network.sim().now() - start);
}

/// Wall-clock cost of the wired run with the OvS flow table prefilled with
/// `extra` idle exact entries. Simulated goodput is table-size independent;
/// the host-CPU time is not — with the linear-scan table it grew with every
/// resident entry, with the exact-match hash tier it stays flat.
double run_wired_prefilled_wallclock(int extra, double* goodput) {
  net::Network network;
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs = network.add_as_switch("ovs1", backbone);
  auto& ovs2 = network.add_as_switch("ovs2", backbone);
  auto& user = network.add_host("wired-user", ovs, 100e6);
  auto& sink = network.add_host("sink", ovs2, 1e9);
  network.start();

  for (int i = 0; i < extra; ++i) {
    pkt::FlowKey key;
    key.dl_src = MacAddress::from_uint64(0xC000000 + static_cast<std::uint64_t>(i));
    key.dl_dst = MacAddress::from_uint64(0xD);
    key.dl_type = static_cast<std::uint16_t>(pkt::EtherType::kIpv4);
    key.nw_src = Ipv4Address(static_cast<std::uint32_t>((172u << 24) | (i + 1)));
    key.nw_dst = Ipv4Address(172, 16, 0, 1);
    key.nw_proto = 17;
    key.tp_src = static_cast<std::uint16_t>(i % 60000 + 1);
    key.tp_dst = 9999;
    of::FlowEntry e;
    e.match = of::Match::exact(0, key);
    e.actions = of::output_to(1);
    ovs.flow_table().add(e, network.sim().now());
  }

  const SimTime duration = 2 * kSecond;
  net::UdpCbrApp app(user, {.dst = sink.ip(),
                            .rate_bps = 200e6,
                            .packet_payload = 1400,
                            .duration = duration});
  sink.reset_counters();
  const SimTime start = network.sim().now();
  const auto wall_start = std::chrono::steady_clock::now();
  app.start();
  network.run_for(duration + 500 * kMillisecond);
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall_start;
  if (goodput != nullptr) {
    *goodput = static_cast<double>(sink.rx_ip_bytes()) * 8.0 / to_seconds(network.sim().now() - start);
  }
  return wall.count();
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = benchjson::wants_json(argc, argv);
  benchjson::Emitter out("bench_access_throughput");

  if (!json) {
    std::printf("=== E1: access throughput (paper §V.B.1) ===\n");
    std::printf("%-28s %-18s %-18s\n", "access type", "paper", "measured");
  }

  const double wired = run_wired();
  if (json) {
    out.metric("wired_goodput", wired, "bps");
  } else {
    std::printf("%-28s %-18s %-18s\n", "wired user via OvS", "~100 Mbps",
                format_rate_bps(wired).c_str());
  }

  const double wireless = run_wireless();
  if (json) {
    out.metric("wireless_goodput", wireless, "bps");
  } else {
    std::printf("%-28s %-18s %-18s\n", "wireless user via Pantou", "~43 Mbps",
                format_rate_bps(wireless).c_str());

    std::printf("\n-- wired users on one OvS (100 Mbps each, GbE uplink) --\n");
    std::printf("%-10s %-18s %-18s\n", "users", "expected", "measured");
  }
  bool multi_ok = true;
  for (int n : {1, 4, 8, 12}) {
    const double rate = run_wired_multi(n);
    const double expected = std::min(n * 100e6, 1e9);
    if (json) {
      out.metric("wired_multi_" + std::to_string(n), rate, "bps");
    } else {
      std::printf("%-10d %-18s %-18s\n", n, format_rate_bps(expected).c_str(),
                  format_rate_bps(rate).c_str());
    }
    if (rate < expected * 0.85 || rate > expected * 1.05) multi_ok = false;
  }

  if (!json) {
    std::printf("\n-- wireless stations on one AP (shared 43 Mbps radio) --\n");
    std::printf("%-10s %-18s %-18s\n", "stations", "expected", "measured");
  }
  for (int n : {1, 2, 5, 10}) {
    const double rate = run_wireless_multi(n);
    if (json) {
      out.metric("wireless_multi_" + std::to_string(n), rate, "bps");
    } else {
      std::printf("%-10d %-18s %-18s\n", n, "<= ~43 Mbps", format_rate_bps(rate).c_str());
    }
    if (rate > 46e6) multi_ok = false;
  }

  if (!json) {
    std::printf("\n-- wired run wall-clock vs resident flow-table entries --\n");
    std::printf("%-10s %-18s %-14s\n", "entries", "goodput", "wall-clock");
  }
  bool prefill_ok = true;
  double base_goodput = 0;
  for (int extra : {0, 1000, 10000}) {
    double goodput = 0;
    const double wall = run_wired_prefilled_wallclock(extra, &goodput);
    if (json) {
      out.metric("prefill_" + std::to_string(extra) + "_goodput", goodput, "bps");
      out.metric("prefill_" + std::to_string(extra) + "_wall", wall, "s");
    } else {
      std::printf("%-10d %-18s %.3f s\n", extra, format_rate_bps(goodput).c_str(), wall);
    }
    if (extra == 0) base_goodput = goodput;
    // Goodput must not depend on table size (lookup is O(1) either way in
    // sim-time); wall-clock flatness is reported for EXPERIMENTS.md.
    if (goodput < base_goodput * 0.95 || goodput > base_goodput * 1.05) prefill_ok = false;
  }

  const bool ok = wired > 90e6 && wired < 105e6 && wireless > 38e6 && wireless < 46e6 &&
                  multi_ok && prefill_ok;
  if (json) {
    out.flag("shape_ok", ok);
    out.print();
  } else {
    std::printf("\nshape check: %s\n", ok ? "PASS" : "FAIL");
  }
  return ok ? 0 : 1;
}
