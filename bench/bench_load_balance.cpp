// E4 — Load balance quality (paper §V.B.2).
//
// Paper: "The load balance based on the selecting minimum-load method is
// effective in the practical test. The load is judged according to the
// number of received and processed packets. For the normal traffic, the
// real-time load deviation among multiple service elements is no more
// than 5%."
//
// Reproduction: k IDS SEs on separate OvS hosts; many HTTP flows of varying
// size are steered through the pool under each dispatching algorithm the
// paper names (polling, hash, queuing, min-load) at flow granularity, plus
// a user-grain min-load ablation. Deviation is measured over each SE's
// processed-packet counter, exactly the paper's load metric.
#include <algorithm>
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

struct Deviation {
  double relative_spread;   // (max-min)/mean
  double coefficient;       // stddev/mean
};

Deviation run_one(ctrl::LbStrategy strategy, ctrl::LbGranularity granularity, int se_count,
                  int users) {
  ctrl::Controller::Config config;
  config.lb_strategy = strategy;
  net::Network network(config);
  auto& backbone = network.add_legacy_switch("backbone");

  std::vector<svc::ServiceElement*> ses;
  for (int i = 0; i < se_count; ++i) {
    auto& se_sw = network.add_as_switch("se-sw" + std::to_string(i), backbone, 10e9);
    ses.push_back(&network.add_service_element(svc::ServiceType::kIntrusionDetection, se_sw));
  }

  ctrl::Policy policy;
  policy.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection};
  policy.granularity = granularity;
  network.controller().policies().add(policy);

  auto& server_sw = network.add_as_switch("server-sw", backbone, 10e9);
  auto& server = network.add_host("server", server_sw, 10e9);
  std::vector<net::Host*> clients;
  auto& client_sw = network.add_as_switch("client-sw", backbone, 10e9);
  for (int u = 0; u < users; ++u) {
    clients.push_back(&network.add_host("u" + std::to_string(u), client_sw, 10e9));
  }
  network.start();

  // Each user opens several UDP flows ("normal traffic": uniform rate).
  const SimTime duration = 2 * kSecond;
  std::vector<std::unique_ptr<net::UdpCbrApp>> apps;
  for (int u = 0; u < users; ++u) {
    for (int f = 0; f < 6; ++f) {
      apps.push_back(std::make_unique<net::UdpCbrApp>(
          *clients[static_cast<std::size_t>(u)],
          net::UdpCbrApp::Config{.dst = server.ip(),
                                 .dst_port = static_cast<std::uint16_t>(8000 + f),
                                 .src_port = static_cast<std::uint16_t>(41000 + f),
                                 .rate_bps = 8e6,
                                 .packet_payload = 1000,
                                 .duration = duration}));
    }
  }
  for (auto& app : apps) app->start();
  network.run_for(duration + 500 * kMillisecond);

  std::vector<double> loads;
  for (const auto* se : ses) loads.push_back(static_cast<double>(se->processed_packets()));
  const double sum = std::accumulate(loads.begin(), loads.end(), 0.0);
  const double mean = sum / static_cast<double>(loads.size());
  const auto [min_it, max_it] = std::minmax_element(loads.begin(), loads.end());
  double variance = 0;
  for (double l : loads) variance += (l - mean) * (l - mean);
  variance /= static_cast<double>(loads.size());
  return Deviation{mean > 0 ? (*max_it - *min_it) / mean : 1.0,
                   mean > 0 ? std::sqrt(variance) / mean : 1.0};
}

struct HeterogeneousResult {
  std::uint64_t slow_se_drops;
  double fast_flow_share;  // flows assigned to the fast SE / total
};

/// Heterogeneous pool ablation: one full-speed SE (500 Mbps) and one
/// half-speed SE (250 Mbps). Count-based min-load splits flows 1:1 and
/// overloads the slow VM; the capacity-weighted extension splits ~2:1.
HeterogeneousResult run_heterogeneous(ctrl::LbStrategy strategy) {
  ctrl::Controller::Config config;
  config.lb_strategy = strategy;
  net::Network network(config);
  auto& backbone = network.add_legacy_switch("backbone");

  auto& fast_sw = network.add_as_switch("fast-sw", backbone, 10e9);
  auto& slow_sw = network.add_as_switch("slow-sw", backbone, 10e9);
  svc::ServiceElement::Config fast_config;
  fast_config.processing_bps = 500e6;
  fast_config.max_queue_packets = 256;
  auto& fast = network.add_service_element(svc::ServiceType::kIntrusionDetection, fast_sw,
                                           fast_config);
  svc::ServiceElement::Config slow_config;
  slow_config.processing_bps = 250e6;
  slow_config.max_queue_packets = 256;
  auto& slow = network.add_service_element(svc::ServiceType::kIntrusionDetection, slow_sw,
                                           slow_config);

  ctrl::Policy policy;
  policy.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection};
  network.controller().policies().add(policy);

  auto& client_sw = network.add_as_switch("clients", backbone, 10e9);
  auto& server_sw = network.add_as_switch("servers", backbone, 10e9);
  auto& server = network.add_host("server", server_sw, 10e9);
  std::vector<net::Host*> clients;
  for (int u = 0; u < 12; ++u) {
    clients.push_back(&network.add_host("u" + std::to_string(u), client_sw, 10e9));
  }
  network.start();

  // Offered ~600 Mbps total over 48 flows: within the pool's 750 Mbps
  // aggregate, but above what a 1:1 split can carry (300 > 250).
  const SimTime duration = 3 * kSecond;
  std::vector<std::unique_ptr<net::UdpCbrApp>> apps;
  for (int u = 0; u < 12; ++u) {
    for (int f = 0; f < 4; ++f) {
      apps.push_back(std::make_unique<net::UdpCbrApp>(
          *clients[static_cast<std::size_t>(u)],
          net::UdpCbrApp::Config{.dst = server.ip(),
                                 .dst_port = static_cast<std::uint16_t>(8100 + f),
                                 .src_port = static_cast<std::uint16_t>(42000 + f),
                                 .rate_bps = 600e6 / 48,
                                 .packet_payload = 1200,
                                 .duration = duration}));
      apps.back()->start();
    }
  }
  network.run_for(duration + 500 * kMillisecond);

  const auto& counts = network.controller().load_balancer().assignment_counts();
  const double fast_flows =
      counts.contains(fast.se_id()) ? static_cast<double>(counts.at(fast.se_id())) : 0.0;
  double total_flows = 0;
  for (const auto& [id, c] : counts) total_flows += static_cast<double>(c);
  return HeterogeneousResult{slow.overload_drops(),
                             total_flows > 0 ? fast_flows / total_flows : 0.0};
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = benchjson::wants_json(argc, argv);
  benchjson::Emitter out("bench_load_balance");
  if (!json) {
    std::printf("=== E4: load balance deviation across SEs (paper §V.B.2) ===\n");
    std::printf("%d SEs, 12 users x 6 uniform flows, flow-grain unless noted\n\n", 4);
    std::printf("%-22s %-16s %-16s %-14s\n", "algorithm", "spread(max-min)", "stddev/mean",
                "paper bound");
  }

  struct Row {
    const char* name;
    const char* tag;
    ctrl::LbStrategy strategy;
    ctrl::LbGranularity granularity;
  };
  const Row rows[] = {
      {"polling", "polling", ctrl::LbStrategy::kPolling, ctrl::LbGranularity::kPerFlow},
      {"hash", "hash", ctrl::LbStrategy::kHash, ctrl::LbGranularity::kPerFlow},
      {"queuing", "queuing", ctrl::LbStrategy::kQueuing, ctrl::LbGranularity::kPerFlow},
      {"min-load", "min_load", ctrl::LbStrategy::kMinLoad, ctrl::LbGranularity::kPerFlow},
      {"min-load (user-grain)", "min_load_user_grain", ctrl::LbStrategy::kMinLoad,
       ctrl::LbGranularity::kPerUser},
  };

  double min_load_spread = 1.0;
  double hash_spread = 0.0;
  for (const Row& row : rows) {
    const Deviation d = run_one(row.strategy, row.granularity, 4, 12);
    const bool is_min_load_flow =
        row.strategy == ctrl::LbStrategy::kMinLoad && row.granularity == ctrl::LbGranularity::kPerFlow;
    if (is_min_load_flow) min_load_spread = d.relative_spread;
    if (row.strategy == ctrl::LbStrategy::kHash && row.granularity == ctrl::LbGranularity::kPerFlow) {
      hash_spread = d.relative_spread;
    }
    if (json) {
      out.metric(std::string(row.tag) + "_spread", d.relative_spread, "ratio");
      out.metric(std::string(row.tag) + "_stddev_over_mean", d.coefficient, "ratio");
    } else {
      std::printf("%-22s %-16.3f %-16.3f %-14s\n", row.name, d.relative_spread, d.coefficient,
                  is_min_load_flow ? "<=0.05" : "-");
    }
  }

  if (!json) {
    std::printf("\n=== extension ablation: heterogeneous pool (500 + 250 Mbps SEs) ===\n");
    std::printf("%-22s %-22s %-18s\n", "algorithm", "fast-SE flow share", "slow-SE drops");
  }
  const HeterogeneousResult plain = run_heterogeneous(ctrl::LbStrategy::kMinLoad);
  const HeterogeneousResult weighted =
      run_heterogeneous(ctrl::LbStrategy::kWeightedMinLoad);
  if (json) {
    out.metric("hetero_min_load_fast_share", plain.fast_flow_share, "ratio");
    out.metric("hetero_min_load_slow_drops", static_cast<double>(plain.slow_se_drops), "count");
    out.metric("hetero_weighted_fast_share", weighted.fast_flow_share, "ratio");
    out.metric("hetero_weighted_slow_drops", static_cast<double>(weighted.slow_se_drops),
               "count");
  } else {
    std::printf("%-22s %-22.2f %-18llu\n", "min-load", plain.fast_flow_share,
                static_cast<unsigned long long>(plain.slow_se_drops));
    std::printf("%-22s %-22.2f %-18llu\n", "weighted-min-load", weighted.fast_flow_share,
                static_cast<unsigned long long>(weighted.slow_se_drops));
    std::printf("(count-based balancing overloads the half-speed VM; capacity weighting\n"
                " shifts ~2/3 of the flows to the fast VM and removes the drops)\n");
  }

  const bool hetero_ok =
      weighted.fast_flow_share > 0.55 && weighted.slow_se_drops < plain.slow_se_drops;
  const bool ok =
      min_load_spread <= 0.05 && min_load_spread <= hash_spread + 1e-9 && hetero_ok;
  if (json) {
    out.flag("shape_ok", ok);
    out.print();
  } else {
    std::printf("\nshape check (min-load deviation <=5%% and <= hash; weighted fixes hetero): %s\n",
                ok ? "PASS" : "FAIL");
  }
  return ok ? 0 : 1;
}
