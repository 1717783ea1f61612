// E2 — Service-element throughput scaling (paper §V.B.1).
//
// Paper: "single VM-based service element can reach about 500 Mbps
// throughput [bypass]... performance of single VM-based service element is
// 421 Mbps [HTTP], and twice VM-based service elements raise the whole
// performance to 827 Mbps... the maximum performance of 20 VMs is limited
// to the Gigabit NIC of the physical host implemented with OvS."
//
// Reproduction: n IDS SEs (n = 1..20) hang off one "SE host" OvS whose GbE
// uplink models the physical NIC. Clients open many parallel HTTP sessions;
// a port-80 redirect policy steers them through the IDS pool (flow-grain
// min-load balancing). We report aggregate goodput per n.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "net/network.h"
#include "net/traffic.h"

// GCC 12 reports a -Wrestrict false positive inside libstdc++ for
// "literal" + std::string (GCC bug 105651), which this file concatenates.
#pragma GCC diagnostic ignored "-Wrestrict"

using namespace livesec;

namespace {

struct Result {
  int se_count;
  double goodput_bps;
};

Result run_one(int se_count, bool bypass_udp) {
  net::Network network;
  auto& backbone = network.add_legacy_switch("backbone");
  auto& client_sw = network.add_as_switch("client-sw", backbone, 10e9);
  auto& server_sw = network.add_as_switch("server-sw", backbone, 10e9);
  auto& se_sw = network.add_as_switch("se-host", backbone, 1e9);  // the GbE NIC cap

  for (int i = 0; i < se_count; ++i) {
    network.add_service_element(svc::ServiceType::kIntrusionDetection, se_sw);
  }

  ctrl::Policy policy;
  policy.name = "inspect-everything";
  policy.nw_proto = static_cast<std::uint8_t>(bypass_udp ? pkt::IpProto::kUdp
                                                         : pkt::IpProto::kTcp);
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection};
  network.controller().policies().add(policy);

  // Enough clients/servers that the sources are never the bottleneck.
  const int pairs = 8;
  std::vector<net::Host*> clients, servers;
  for (int i = 0; i < pairs; ++i) {
    clients.push_back(&network.add_host("c" + std::to_string(i), client_sw, 10e9));
    servers.push_back(&network.add_host("s" + std::to_string(i), server_sw, 10e9));
  }
  network.start();

  const SimTime duration = 2 * kSecond;
  std::vector<std::unique_ptr<net::UdpCbrApp>> udp_apps;
  std::vector<std::unique_ptr<net::HttpServerApp>> server_apps;
  std::vector<std::unique_ptr<net::HttpClientApp>> client_apps;

  if (bypass_udp) {
    // Bypass measurement: raw UDP streams through the IDS (no HTTP deep
    // inspection). Many distinct flows spread over the SE pool.
    for (int i = 0; i < pairs; ++i) {
      for (int f = 0; f < 8; ++f) {
        udp_apps.push_back(std::make_unique<net::UdpCbrApp>(
            *clients[static_cast<std::size_t>(i)],
            net::UdpCbrApp::Config{.dst = servers[static_cast<std::size_t>(i)]->ip(),
                                   .dst_port = static_cast<std::uint16_t>(9000 + f),
                                   .src_port = static_cast<std::uint16_t>(40000 + f),
                                   .rate_bps = 2e9 / (pairs * 8),
                                   .packet_payload = 1400,
                                   .duration = duration}));
      }
    }
  } else {
    for (int i = 0; i < pairs; ++i) {
      server_apps.push_back(std::make_unique<net::HttpServerApp>(
          *servers[static_cast<std::size_t>(i)],
          net::HttpServerApp::Config{.port = 80, .response_size = 256 * 1024}));
      client_apps.push_back(std::make_unique<net::HttpClientApp>(
          *clients[static_cast<std::size_t>(i)],
          net::HttpClientApp::Config{.server = servers[static_cast<std::size_t>(i)]->ip(),
                                     .first_src_port = static_cast<std::uint16_t>(20000 + i * 512),
                                     .sessions = 1000,
                                     .concurrency = 8,
                                     .expected_response = 256 * 1024}));
    }
  }

  for (auto& server : servers) server->reset_counters();
  for (auto& client : clients) client->reset_counters();
  const SimTime start = network.sim().now();
  for (auto& app : udp_apps) app->start();
  for (auto& app : client_apps) app->start();
  network.run_for(duration);

  // Aggregate bytes that made it through inspection to either side.
  std::uint64_t delivered = 0;
  for (auto& server : servers) delivered += server->rx_ip_bytes();
  for (auto& client : clients) delivered += client->rx_ip_bytes();
  const double seconds = to_seconds(network.sim().now() - start);
  return Result{se_count, static_cast<double>(delivered) * 8.0 / seconds};
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = benchjson::wants_json(argc, argv);
  benchjson::Emitter out("bench_se_scaling");
  if (!json) {
    std::printf("=== E2: SE throughput scaling (paper §V.B.1) ===\n");
    std::printf("-- bypass mode (UDP) --\n");
  }
  const Result bypass1 = run_one(1, /*bypass_udp=*/true);
  if (json) {
    out.metric("bypass_1se_goodput", bypass1.goodput_bps, "bps");
  } else {
    std::printf("%-10s %-18s %-18s\n", "n_SE", "paper", "measured");
    std::printf("%-10d %-18s %-18s\n", 1, "~500 Mbps",
                format_rate_bps(bypass1.goodput_bps).c_str());
    std::printf("-- HTTP deep inspection --\n");
    std::printf("%-10s %-18s %-18s %-10s\n", "n_SE", "paper", "measured", "scaling");
  }
  double first = 0;
  bool ok = bypass1.goodput_bps > 430e6 && bypass1.goodput_bps < 540e6;
  for (int n : {1, 2, 4, 8, 12, 16, 20}) {
    const Result r = run_one(n, /*bypass_udp=*/false);
    if (n == 1) first = r.goodput_bps;
    if (json) {
      out.metric("http_" + std::to_string(n) + "se_goodput", r.goodput_bps, "bps");
    } else {
      const char* paper =
          n == 1 ? "421 Mbps" : (n == 2 ? "827 Mbps" : (n >= 3 ? "<=1 Gbps (NIC)" : ""));
      std::printf("%-10d %-18s %-18s %.2fx\n", n, paper, format_rate_bps(r.goodput_bps).c_str(),
                  r.goodput_bps / first);
    }
    if (n == 1) ok = ok && r.goodput_bps > 350e6 && r.goodput_bps < 470e6;
    if (n == 2) ok = ok && r.goodput_bps > 1.7 * first;  // near-linear
    if (n == 20) ok = ok && r.goodput_bps < 1.1e9;       // NIC cap
  }
  if (json) {
    out.flag("shape_ok", ok);
    out.print();
  } else {
    std::printf("shape check (1 SE ~421-500 Mbps, 2 SEs ~2x, 20 SEs NIC-capped): %s\n",
                ok ? "PASS" : "FAIL");
  }
  return ok ? 0 : 1;
}
