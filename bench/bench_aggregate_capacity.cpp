// E3 — Aggregate deployment capacity (paper §V.B.1).
//
// Paper: "we have about 30 wireless users, 20 wired users, and 200 VM-based
// service elements supplying network services of intrusion detection and
// protocol identification. The performance of the LiveSec unit can achieve
// at least 8Gbps for intrusion detection and 2Gbps for protocol
// identification."
//
// Reproduction: 10 OvS SE-hosts x 20 SEs each (8 hosts run IDS, 2 run
// protocol identification), exactly the paper's 200-SE build. Saturating UDP
// flows are steered through each service type; aggregate inspected goodput
// is reported per service. Each SE-host's GbE uplink is the per-host cap, so
// the deployment shape (8 IDS hosts + 2 L7 hosts) yields the 8 + 2 Gbps split.
#include <cstdio>
#include <vector>

#include "bench_json.h"
#include "net/network.h"
#include "net/traffic.h"

// GCC 12 reports a -Wrestrict false positive inside libstdc++ for
// "literal" + std::string (GCC bug 105651), which this file concatenates.
#pragma GCC diagnostic ignored "-Wrestrict"

using namespace livesec;

namespace {

double run_service(svc::ServiceType type, int se_hosts, int ses_per_host) {
  net::Network network;
  auto& backbone = network.add_legacy_switch("backbone");

  std::vector<sw::OpenFlowSwitch*> se_switches;
  for (int h = 0; h < se_hosts; ++h) {
    se_switches.push_back(
        &network.add_as_switch("se-host" + std::to_string(h), backbone, 1e9));
    for (int i = 0; i < ses_per_host; ++i) {
      network.add_service_element(type, *se_switches.back());
    }
  }

  ctrl::Policy policy;
  policy.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {type};
  network.controller().policies().add(policy);

  // Traffic sources/sinks sized well above the SE capacity under test.
  const int pairs = se_hosts * 2;
  std::vector<net::Host*> clients, servers;
  for (int i = 0; i < pairs; ++i) {
    auto& csw = network.add_as_switch("c-sw" + std::to_string(i), backbone, 10e9);
    auto& ssw = network.add_as_switch("s-sw" + std::to_string(i), backbone, 10e9);
    clients.push_back(&network.add_host("c" + std::to_string(i), csw, 10e9));
    servers.push_back(&network.add_host("s" + std::to_string(i), ssw, 10e9));
  }
  network.start(500 * kMillisecond);

  const SimTime duration = 1 * kSecond;
  std::vector<std::unique_ptr<net::UdpCbrApp>> apps;
  for (int i = 0; i < pairs; ++i) {
    for (int f = 0; f < 10; ++f) {
      apps.push_back(std::make_unique<net::UdpCbrApp>(
          *clients[static_cast<std::size_t>(i)],
          net::UdpCbrApp::Config{.dst = servers[static_cast<std::size_t>(i)]->ip(),
                                 .dst_port = static_cast<std::uint16_t>(9000 + f),
                                 .src_port = static_cast<std::uint16_t>(40000 + f),
                                 .rate_bps = 1.5e9 * se_hosts / (pairs * 10),
                                 .packet_payload = 1400,
                                 .duration = duration}));
    }
  }
  for (auto& server : servers) server->reset_counters();
  const SimTime start = network.sim().now();
  for (auto& app : apps) app->start();
  network.run_for(duration);

  std::uint64_t delivered = 0;
  for (auto& server : servers) delivered += server->rx_ip_bytes();
  return static_cast<double>(delivered) * 8.0 / to_seconds(network.sim().now() - start);
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = benchjson::wants_json(argc, argv);
  if (!json) {
    std::printf("=== E3: aggregate capacity, 200 SEs on 10 OvS hosts (paper §V.B.1) ===\n");
    std::printf("%-28s %-14s %-14s %-14s\n", "service", "SE layout", "paper", "measured");
  }

  // 8 of the 10 hosts provide IDS (160 SEs), 2 provide protocol id (40 SEs).
  const double ids = run_service(svc::ServiceType::kIntrusionDetection, 8, 20);
  if (!json) {
    std::printf("%-28s %-14s %-14s %-14s\n", "intrusion detection", "8x20", ">=8 Gbps",
                format_rate_bps(ids).c_str());
  }

  const double l7 = run_service(svc::ServiceType::kProtocolIdentification, 2, 20);
  if (!json) {
    std::printf("%-28s %-14s %-14s %-14s\n", "protocol identification", "2x20", ">=2 Gbps",
                format_rate_bps(l7).c_str());
  }

  const bool ok = ids >= 7.2e9 && l7 >= 1.8e9;
  if (json) {
    benchjson::Emitter out("bench_aggregate_capacity");
    out.metric("ids_aggregate_goodput", ids, "bps");
    out.metric("l7_aggregate_goodput", l7, "bps");
    out.flag("shape_ok", ok);
    out.print();
  } else {
    std::printf("shape check (>=~8 Gbps IDS, >=~2 Gbps protocol id): %s\n", ok ? "PASS" : "FAIL");
  }
  return ok ? 0 : 1;
}
