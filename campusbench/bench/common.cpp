#include <algorithm>
#include <iterator>
#include <variant>

#include "ha/replication.h"
#include "workload.h"

namespace campusbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

std::vector<Metric> Workload::control_counters(
    const std::vector<std::unique_ptr<of::SecureChannel>>& channels,
    const std::vector<std::unique_ptr<TimedSwitch>>& switches, const ctrl::Controller& active,
    const ha::HaCluster& cluster) {
  std::uint64_t to_controller = 0, to_switch = 0, forwarded = 0, packet_ins = 0;
  for (const auto& c : channels) {
    to_controller += c->messages_to_controller();
    to_switch += c->messages_to_switch();
  }
  for (const auto& s : switches) {
    forwarded += s->packets_forwarded();
    packet_ins += s->packet_ins_sent();
  }
  const auto& stats = active.stats();
  const auto& ha = cluster.stats();
  return {
      {"openflow.channel.to_controller", double(to_controller), "count"},
      {"openflow.channel.to_switch", double(to_switch), "count"},
      {"switching.packets_forwarded", double(forwarded), "count"},
      {"switching.packet_ins", double(packet_ins), "count"},
      {"controller.decision_cache.hits", double(stats.fastpath.decision_cache_hits), "count"},
      {"controller.decision_cache.misses", double(stats.fastpath.decision_cache_misses), "count"},
      {"controller.flows_installed", double(stats.flows_installed), "count"},
      {"controller.flows_offloaded", double(stats.flows_offloaded), "count"},
      {"controller.setups_suppressed", double(stats.fastpath.suppressed_packet_ins), "count"},
      {"ha.records", double(ha.records_published), "count"},
      {"ha.records_coalesced", double(ha.records_coalesced), "count"},
      {"ha.frames", double(ha.frames_published), "count"},
      {"ha.deliveries", double(ha.deliveries_scheduled), "count"},
      {"monitor.events_ingested", double(active.events().counters().appended), "count"},
  };
}

void Workload::sample_levels(const std::vector<std::unique_ptr<TimedSwitch>>& switches,
                             const ha::HaCluster& cluster) {
  for (const auto& s : switches) {
    entries_max_ = std::max<std::uint64_t>(entries_max_, s->flow_table().size());
  }
  lag_max_ = std::max<std::uint64_t>(lag_max_, cluster.log().head_seq() - cluster.applied_seq(1));
}

namespace {

StandbyComparison standby_matches_active(const ctrl::Controller& active,
                                         const ctrl::Controller& standby) {
  StandbyComparison out;
  // Splits an export into the offload memo's records and the rest.
  const auto split = [](std::vector<ha::RecordBody> records, std::vector<ha::RecordBody>& memo) {
    const auto is_offload = [](const ha::RecordBody& r) {
      return std::holds_alternative<ha::FlowOffloadedRecord>(r);
    };
    std::copy_if(records.begin(), records.end(), std::back_inserter(memo), is_offload);
    records.erase(std::remove_if(records.begin(), records.end(), is_offload), records.end());
    return records;
  };
  std::vector<ha::RecordBody> memo_a, memo_b;
  std::vector<ha::RecordBody> a = split(active.export_state(), memo_a);
  std::vector<ha::RecordBody> b = split(standby.export_state(), memo_b);
  out.active_offloads = memo_a.size();
  out.standby_offloads = memo_b.size();
  out.memo_equal = ha::encode_snapshot_records(memo_a) == ha::encode_snapshot_records(memo_b);
  if (a.size() != b.size()) return out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    auto* ha_rec = std::get_if<ha::HostLearnedRecord>(&a[i]);
    auto* hb_rec = std::get_if<ha::HostLearnedRecord>(&b[i]);
    if (ha_rec == nullptr || hb_rec == nullptr) continue;
    if (ha_rec->seen_at != hb_rec->seen_at) ++out.seen_at_diffs;
    ha_rec->seen_at = 0;
    hb_rec->seen_at = 0;
  }
  out.state_equal = ha::encode_snapshot_records(a) == ha::encode_snapshot_records(b);
  return out;
}

}  // namespace

StandbyComparison quiesce_and_compare(sim::Simulator& sim, ha::HaCluster& cluster) {
  // Idle flows expire first, raising their flow-end events. The controller
  // ships raised events in batches that its housekeeping tick flushes, so
  // the states are compared after each tick until they agree.
  const ctrl::Controller::Config defaults;
  sim.run_until(sim.now() + defaults.flow_idle_timeout + defaults.housekeeping_interval);
  StandbyComparison result;
  for (int tick = 0; tick < 5 && !result.state_equal; ++tick) {
    sim.run_until(sim.now() + defaults.housekeeping_interval);
    for (int i = 0; i < 1000; ++i) {
      cluster.flush_replication();
      sim.run_until(sim.now() + kMillisecond);
      if (cluster.pipeline().empty() && cluster.applied_seq(1) == cluster.log().head_seq()) break;
    }
    result = standby_matches_active(cluster.node_controller(0), cluster.node_controller(1));
  }
  return result;
}

}  // namespace campusbench
