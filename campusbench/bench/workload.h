// Shared pieces of the three workloads: the timing shims placed at each
// layer's public entry points, the metric and check records, and the
// interface main.cpp drives.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "controller/controller.h"
#include "ha/cluster.h"
#include "openflow/channel.h"
#include "sim/simulator.h"
#include "switching/openflow_switch.h"
#include "trace.h"

namespace campusbench {

using namespace livesec;

// --- timing shims ---------------------------------------------------------------

/// Sits between every secure channel and the active controller.
class TimedController : public of::ControllerEndpoint {
 public:
  TimedController(ctrl::Controller& controller, Tracer* tracer)
      : controller_(controller), tracer_(tracer) {}

  void handle_switch_message(DatapathId dpid, const of::Message& message) override {
    Scope scope(tracer_, std::holds_alternative<of::PacketIn>(message)
                             ? SpanName::kControllerPacketIn
                             : SpanName::kControllerMessage);
    controller_.handle_switch_message(dpid, message);
  }
  void handle_switch_connected(DatapathId dpid, const of::FeaturesReply& features) override {
    Scope scope(tracer_, SpanName::kControllerMessage);
    controller_.handle_switch_connected(dpid, features);
  }
  void handle_switch_disconnected(DatapathId dpid) override {
    controller_.handle_switch_disconnected(dpid);
  }

 private:
  ctrl::Controller& controller_;
  Tracer* tracer_;
};

/// Sits between the active controller and the HA cluster.
class TimedReplicationSink : public ha::ReplicationSink {
 public:
  TimedReplicationSink(ha::HaCluster& cluster, Tracer* tracer)
      : cluster_(cluster), tracer_(tracer) {}

  void replicate(ha::RecordBody body) override {
    Scope scope(tracer_, SpanName::kHaReplicate);
    cluster_.replicate(std::move(body));
  }

 private:
  ha::HaCluster& cluster_;
  Tracer* tracer_;
};

/// An AS switch whose controller-message handling is timed.
class TimedSwitch : public sw::OpenFlowSwitch {
 public:
  TimedSwitch(sim::Simulator& sim, std::string name, DatapathId dpid, Tracer* tracer)
      : OpenFlowSwitch(sim, std::move(name), dpid), tracer_(tracer) {}

  void handle_controller_message(const of::Message& message) override {
    Scope scope(tracer_, SpanName::kSwitchControl);
    OpenFlowSwitch::handle_controller_message(message);
  }

 private:
  Tracer* tracer_;
};

/// Runs the simulator to `deadline` inside a sim.run span (the span is
/// skipped when no event is due, so idle clock advances cost nothing).
inline std::uint64_t run_sim_until(sim::Simulator& sim, SimTime deadline, Tracer* tracer) {
  if (sim.next_event_time() > deadline) {
    sim.run_until(deadline);
    return 0;
  }
  Scope scope(tracer, SpanName::kSimRun);
  return sim.run_until(deadline);
}

// --- results ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Checks {
  std::vector<std::string> failed;  // names of the checks that failed
  /// Names of the failed checks that fail on every run because of a program
  /// fault named in the README; they leave the run's outputs correct.
  std::vector<std::string> known_faults;
  std::uint64_t failed_ops = 0;

  /// Records check `name`; when `ok` is false its `ops` operations fail.
  void expect(bool ok, const std::string& name, std::uint64_t ops) {
    if (ok) return;
    failed.push_back(name);
    failed_ops += ops;
  }
  /// Like expect, for a check that a known program fault fails on every run.
  void expect_known_fault(bool ok, const std::string& name, std::uint64_t ops) {
    if (ok) return;
    known_faults.push_back(name);
    failed_ops += ops;
  }
};

struct SetupTimes {
  double build_s = 0;
  double settle_s = 0;  // discovery and ARP learning in simulated time
  double learn_s = 0;   // controller_churn: every host announced
  double total() const { return build_s + settle_s + learn_s; }
};

/// One deployment of one workload. The constructor builds and settles it.
class Workload {
 public:
  virtual ~Workload() = default;

  const SetupTimes& setup_times() const { return setup_; }

  /// Runs one round of the workload's fixed schedule; returns the
  /// operations it attempted (flows, packets or injected events).
  virtual std::uint64_t run_round() = 0;

  /// Runs rounds until the deployment reaches steady state (installed flows
  /// have begun to expire); returns the operations attempted.
  virtual std::uint64_t warm_up() { return 0; }
  /// Marks the start of the measured rounds: `detail` covers only them.
  virtual void begin_measure() {}

  /// Per-layer counters as of now, for deltas over the measured rounds.
  virtual std::vector<Metric> counters() const = 0;
  /// Samples levels (table sizes, standby lag) at a round boundary.
  virtual void sample() = 0;
  /// Maxima of the levels sampled so far.
  std::vector<Metric> levels() const {
    return {{"openflow.flow_table.entries_max", double(entries_max_), "count"},
            {"ha.standby_lag_records", double(lag_max_), "count"}};
  }

  /// Drains and quiesces the deployment and runs the correctness checks.
  virtual void finish(Checks& checks) = 0;

  /// Workload-specific end-to-end figures, printed by name with each run.
  /// `wall_s` is the measured wall time of the rounds.
  virtual std::vector<Metric> detail(double wall_s) const = 0;

  /// Simulator events run by the benchmark's calls so far.
  std::uint64_t sim_events() const { return sim_events_; }
  /// Data packets delivered to hosts so far (0 without a data plane).
  virtual std::uint64_t packets_delivered() const { return 0; }

 protected:
  /// Counters every deployment has: its secure channels, AS switches,
  /// active controller and HA cluster.
  static std::vector<Metric> control_counters(
      const std::vector<std::unique_ptr<of::SecureChannel>>& channels,
      const std::vector<std::unique_ptr<TimedSwitch>>& switches,
      const ctrl::Controller& active, const ha::HaCluster& cluster);
  void sample_levels(const std::vector<std::unique_ptr<TimedSwitch>>& switches,
                     const ha::HaCluster& cluster);

  SetupTimes setup_;
  std::uint64_t sim_events_ = 0;
  std::uint64_t entries_max_ = 0;
  std::uint64_t lag_max_ = 0;
};

std::unique_ptr<Workload> make_campus_mixed(std::uint64_t seed, Tracer* tracer);
std::unique_ptr<Workload> make_inspect_bulk(std::uint64_t seed, Tracer* tracer);
std::unique_ptr<Workload> make_controller_churn(std::uint64_t seed, Tracer* tracer);

/// Shared helpers.
double percentile(std::vector<double> values, double q);
struct StandbyComparison {
  /// Every exported record but the offload memo's is equal.
  bool state_equal = false;
  /// The offload memo's records are equal.
  bool memo_equal = false;
  bool equal() const { return state_equal && memo_equal; }
  /// Host records that differed only in `seen_at`: data packet-ins refresh
  /// it on the active without replication, so it is masked.
  std::uint64_t seen_at_diffs = 0;
  /// Offload-memo entries on each side.
  std::uint64_t active_offloads = 0;
  std::uint64_t standby_offloads = 0;
};
/// Lets idle flows expire and the replication pipeline drain, then compares
/// the standby's exported state with the active's (node 1 against node 0).
StandbyComparison quiesce_and_compare(sim::Simulator& sim, ha::HaCluster& cluster);

}  // namespace campusbench
