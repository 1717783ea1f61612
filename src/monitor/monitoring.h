// Service-aware traffic monitoring and aggregate flow control
// (paper §IV.C: "LiveSec controller know the services status that each user
// is consuming ... and provide more interesting function, such as aggregate
// flow control").
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/mac_address.h"
#include "common/types.h"
#include "services/l7/l7_classifier.h"

namespace livesec::mon {

/// Observability counters of the controller's flow-setup fast path: how the
/// decision cache and the pending-setup (packet-in suppression) table are
/// behaving. Embedded in Controller::Stats and surfaced by the WebUI stats
/// block, so operators can see whether the control plane is absorbing
/// packet-in load or recomputing every flow.
struct FastPathCounters {
  std::uint64_t decision_cache_hits = 0;
  std::uint64_t decision_cache_misses = 0;
  /// Cache-wide flushes caused by policy/topology/SE/host state changes.
  std::uint64_t decision_cache_invalidations = 0;
  /// Packet-ins absorbed because a setup for the same flow was in flight.
  std::uint64_t suppressed_packet_ins = 0;
  /// Packet-ins of a flow already installed (its packets raced the entries
  /// to the switch), released through the flow's ingress actions.
  std::uint64_t released_packet_ins = 0;
  /// Setups parked waiting for a missing host location or LS uplink.
  std::uint64_t pending_setups_parked = 0;
  /// Parked setups that later completed (host announced / link discovered).
  std::uint64_t pending_setups_completed = 0;
  /// Parked setups dropped by the bound or the housekeeping timeout.
  std::uint64_t pending_setups_expired = 0;
  /// Flow-mods delivered inside FlowModBatch messages.
  std::uint64_t batched_flow_mods = 0;
};

/// Per-user, per-application usage counters fed by protocol-identification
/// event reports.
class ServiceAwareMonitor {
 public:
  struct AppUsage {
    std::uint64_t flows = 0;
    std::uint64_t active_flows = 0;
  };

  struct TrafficTotals {
    std::uint64_t flows = 0;
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };

  /// Records that a flow of `user` was identified as `proto`.
  void record_flow_identified(const MacAddress& user, svc::l7::AppProtocol proto);
  /// Records that one of `user`'s `proto` flows ended.
  void record_flow_ended(const MacAddress& user, svc::l7::AppProtocol proto);

  /// Accumulates a finished flow's data-path counters (from FlowRemoved)
  /// into the user's traffic totals.
  void record_flow_traffic(const MacAddress& user, std::uint64_t packets, std::uint64_t bytes);

  /// Cumulative data-path totals for one user (nullptr if never seen).
  const TrafficTotals* traffic(const MacAddress& user) const;
  /// Users ranked by cumulative bytes, heaviest first ("top talkers").
  std::vector<std::pair<MacAddress, TrafficTotals>> top_talkers(std::size_t limit) const;

  /// The application the user currently has the most active flows of
  /// (what the WebUI shows as "user X is browsing / using SSH / BitTorrent").
  std::optional<svc::l7::AppProtocol> dominant_app(const MacAddress& user) const;

  const std::map<svc::l7::AppProtocol, AppUsage>* usage(const MacAddress& user) const;
  std::vector<MacAddress> users() const;

  /// Network-wide flow counts by application (traffic distribution view).
  std::map<svc::l7::AppProtocol, std::uint64_t> network_distribution() const;

 private:
  std::map<MacAddress, std::map<svc::l7::AppProtocol, AppUsage>> per_user_;
  std::map<MacAddress, TrafficTotals> traffic_;
};

/// Aggregate flow control: per-user, per-application cap on concurrently
/// active flows. When a user exceeds the cap for an app, the controller
/// denies new flows of that app (installing drop entries at the ingress).
class AggregateFlowControl {
 public:
  /// No limits by default.
  void set_limit(svc::l7::AppProtocol proto, std::uint32_t max_active_flows);
  std::optional<std::uint32_t> limit(svc::l7::AppProtocol proto) const;

  /// True when `user` may start another `proto` flow.
  bool admits(const ServiceAwareMonitor& monitor, const MacAddress& user,
              svc::l7::AppProtocol proto) const;

  std::uint64_t rejections() const { return rejections_; }
  void record_rejection() { ++rejections_; }

 private:
  std::map<svc::l7::AppProtocol, std::uint32_t> limits_;
  std::uint64_t rejections_ = 0;
};

}  // namespace livesec::mon
