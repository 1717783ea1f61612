// controller_churn: host-scale control-plane state with no data plane.
//
// A 100k-host campus from scenario::CampusGenerator behind 391 real
// sw::OpenFlowSwitch endpoints (secure channels, unwired data ports), one
// live HA standby, a bounded event store and a few hundred allow/deny rules.
// Closed loop: one caller injects each event through the controller's
// switch-message entry point and waits for it to return; the simulator runs
// up to each event's generator timestamp, so FlowMods reach the switches and
// replication frames reach the standby. After every host is learned, the
// stream mixes flow setups with roam and DHCP re-lease churn (raised above
// the generator's defaults) and an operator rollup query every 1000 events.
#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "controller/routing_table.h"
#include "monitor/webui.h"
#include "packet/flow_key.h"
#include "packet/packet.h"
#include "scenario/campus.h"
#include "workload.h"

namespace campusbench {
namespace {

constexpr std::uint32_t kHosts = 100'000;
constexpr std::uint32_t kHostsPerSwitch = 256;
constexpr std::uint32_t kRoundEvents = 1024;
constexpr std::uint32_t kQueryEvery = 1000;
constexpr SimTime kQueryWindow = 10 * kSecond;
constexpr std::size_t kRules = 300;
/// Drain after each round: channel latency both ways plus one replication
/// flush window, so FlowMods and standby frames have landed.
constexpr SimTime kDrain = 2 * kMillisecond;
/// Simulated churn before measuring: installed flows start expiring after
/// the controller's 10 s idle timeout, which sets the steady state.
constexpr SimTime kWarmUp = 12 * kSecond;

constexpr std::uint16_t kPorts[] = {22, 23, 25, 53, 80, 443, 445, 3389, 5060, 8080};

pkt::PacketPtr gratuitous_arp(MacAddress mac, Ipv4Address ip) {
  return pkt::PacketBuilder()
      .eth(mac, MacAddress::broadcast())
      .arp(pkt::ArpOp::kRequest, mac, ip, MacAddress{}, ip)
      .finalize();
}

/// The benchmark's own statement of one policy rule, evaluated without the
/// controller's policy table.
struct Rule {
  std::int32_t priority = 0;
  std::uint32_t dst_net = 0;
  std::uint8_t dst_prefix = 0;
  std::uint8_t proto = 0;
  std::uint16_t port = 0;
  bool deny = false;

  bool matches(std::uint32_t dst, std::uint8_t p, std::uint16_t dport) const {
    const std::uint32_t mask = dst_prefix == 0 ? 0 : ~0u << (32 - dst_prefix);
    return (dst & mask) == (dst_net & mask) && p == proto && dport == port;
  }
};

class ControllerChurn final : public Workload {
 public:
  ControllerChurn(std::uint64_t seed, Tracer* tracer)
      : seed_(seed),
        tracer_(tracer),
        campus_(campus_config(seed)),
        active_(sim_, controller_config()),
        standby_ctrl_(sim_, controller_config()),
        cluster_(sim_, ha::HaCluster::Config{}),
        endpoint_(active_, tracer),
        sink_(cluster_, tracer),
        ui_(active_) {
    const auto t0 = std::chrono::steady_clock::now();
    build();
    const auto t1 = std::chrono::steady_clock::now();
    learn();
    const auto t2 = std::chrono::steady_clock::now();
    setup_.build_s = std::chrono::duration<double>(t1 - t0).count();
    setup_.learn_s = std::chrono::duration<double>(t2 - t1).count();
  }

  std::uint64_t run_round() override {
    round_setups_.clear();
    for (std::uint32_t i = 0; i < kRoundEvents; ++i) step();
    sim_events_ += run_sim_until(sim_, sim_.now() + kDrain, tracer_);
    check_round();
    return kRoundEvents;
  }

  void begin_measure() override {
    injected_from_ = injected_;
    setups_from_ = setups_;
    call_us_.clear();
    query_us_.clear();
  }

  std::uint64_t warm_up() override {
    std::uint64_t ops = 0;
    const SimTime until = sim_.now() + kWarmUp;
    while (sim_.now() < until) ops += run_round();
    return ops;
  }

  std::vector<Metric> counters() const override {
    std::vector<Metric> out = control_counters(channels_, switches_, active_, cluster_);
    return out;
  }

  void sample() override { sample_levels(switches_, cluster_); }

  void finish(Checks& checks) override {
    checks.expect(setup_misses_ == 0, "controller_churn.flow_table_matches_rules", setup_misses_);
    checks.expect(active_.routing().size() == kHosts, "controller_churn.routing_size",
                  injected_);
    std::uint64_t misplaced = 0;
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      const ctrl::HostLocation* loc = active_.routing().find(campus_.host(h).mac);
      if (loc == nullptr || loc->dpid != where_[h].dpid || loc->port != where_[h].port) {
        ++misplaced;
      }
    }
    checks.expect(misplaced == 0, "controller_churn.host_locations", misplaced);
    standby_check_ = quiesce_and_compare(sim_, cluster_);
    checks.expect(standby_check_.equal(), "controller_churn.standby_export_equal", injected_);
  }

  std::vector<Metric> detail(double wall_s) const override {
    std::vector<double> calls(call_us_.begin(), call_us_.end());
    return {
        {"churn_events_per_s", double(injected_ - injected_from_) / wall_s, "events/s"},
        {"flow_setups_per_s", double(setups_ - setups_from_) / wall_s, "flows/s"},
        {"packet_in_p50_us", percentile(calls, 0.50), "us"},
        {"packet_in_p99_us", percentile(calls, 0.99), "us"},
        {"packet_in_samples", double(calls.size()), "count"},
        {"query_p50_us", percentile(query_us_, 0.50), "us"},
        {"query_samples", double(query_us_.size()), "count"},
        {"setups_denied", double(denied_), "count"},
        {"roams", double(roams_), "count"},
        {"re_leases", double(re_leases_), "count"},
        {"simulated_s", double(sim_.now()) / kSecond, "s_sim"},
        {"standby_seen_at_only_diffs", double(standby_check_.seen_at_diffs), "count"},
        {"active_offload_memo", double(standby_check_.active_offloads), "count"},
        {"standby_offload_memo", double(standby_check_.standby_offloads), "count"},
    };
  }

 private:
  struct Location {
    DatapathId dpid = 0;
    PortId port = kInvalidPort;
  };

  /// A setup injected this round, checked against the ingress flow table
  /// once the round's FlowMods have landed.
  struct Setup {
    pkt::FlowKey key;
    Location at;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint32_t seq = 0;  // position in the round
    bool deny = false;
  };

  static scenario::CampusConfig campus_config(std::uint64_t seed) {
    scenario::CampusConfig c;
    c.hosts = kHosts;
    c.hosts_per_switch = kHostsPerSwitch;
    c.seed = seed;
    c.roam_fraction = 0.15;
    c.relese_fraction = 0.10;
    return c;
  }

  static ctrl::Controller::Config controller_config() {
    ctrl::Controller::Config c;
    c.routing_shards = 8;  // ~16k hosts per shard, as bench_scale sizes it
    c.event_store_capacity = 8192;
    // No host refreshes itself in this workload; the simulated span of a run
    // must not age learned hosts out.
    c.host_timeout = 24 * 3600 * kSecond;
    return c;
  }

  void build() {
    cluster_.add_node(active_);
    cluster_.add_node(standby_ctrl_);
    active_.set_replication_sink(&sink_);
    for (std::uint32_t s = 0; s < campus_.switch_count(); ++s) {
      const DatapathId dpid = 1 + s;
      switches_.push_back(
          std::make_unique<TimedSwitch>(sim_, "as" + std::to_string(dpid), dpid, tracer_));
      TimedSwitch& sw = *switches_.back();
      for (PortId p = 0; p < campus_.ls_uplink_port(); ++p) {
        sw.add_port(sw::PortRole::kNetworkPeriphery);
      }
      sw.add_port(sw::PortRole::kLegacySwitching);
      channels_.push_back(std::make_unique<of::SecureChannel>(sim_, sw, endpoint_));
      active_.attach_channel(dpid, *channels_.back());
      active_.register_ls_port(dpid, campus_.ls_uplink_port());
      cluster_.manage_switch(sw, *channels_.back());
      sw.connect_controller(*channels_.back());
    }
    active_.start_housekeeping();
    cluster_.start();
    sim_events_ += run_sim_until(sim_, sim_.now() + 10 * kMillisecond, nullptr);

    // A few hundred rules over destination prefixes and services: higher
    // priority allow rules carve exceptions out of deny rules.
    for (std::size_t r = 0; r < kRules; ++r) {
      const std::uint64_t d = splitmix64(seed_ ^ (0x9011C7ull << 20) ^ r);
      Rule rule;
      rule.deny = d % 3 != 0;
      rule.priority = static_cast<std::int32_t>(rule.deny ? 10 + r % 50 : 100 + r % 50);
      rule.dst_prefix = static_cast<std::uint8_t>((rule.deny ? 20 : 24) + (d >> 8) % 3);
      rule.dst_net = campus_.host(static_cast<std::uint32_t>((d >> 16) % kHosts)).ip.value();
      rule.proto =
          static_cast<std::uint8_t>((d >> 40) % 2 ? pkt::IpProto::kTcp : pkt::IpProto::kUdp);
      rule.port = kPorts[(d >> 44) % std::size(kPorts)];
      rules_.push_back(rule);

      ctrl::Policy policy;
      policy.name = "rule-" + std::to_string(r);
      policy.priority = rule.priority;
      policy.nw_dst = Ipv4Address(rule.dst_net);
      policy.nw_dst_prefix = rule.dst_prefix;
      policy.nw_proto = rule.proto;
      policy.tp_dst = rule.port;
      policy.action = rule.deny ? ctrl::PolicyAction::kDeny : ctrl::PolicyAction::kAllow;
      active_.policies().add(policy);
    }
    // First match by priority; insertion order breaks ties.
    std::stable_sort(rules_.begin(), rules_.end(),
                     [](const Rule& a, const Rule& b) { return a.priority > b.priority; });
  }

  void inject(const Location& at, pkt::PacketPtr packet) {
    of::PacketIn pin;
    pin.in_port = at.port;
    pin.buffer_id = of::PacketOut::kNoBuffer;
    pin.packet = std::move(packet);
    endpoint_.handle_switch_message(at.dpid, of::Message{std::move(pin)});
  }

  /// Setup phase: every host announces itself once.
  void learn() {
    where_.resize(kHosts);
    ip_of_.resize(kHosts);
    for (std::uint32_t i = 0; i < kHosts; ++i) {
      const scenario::CampusHost h = campus_.host(i);
      where_[i] = {h.dpid, h.port};
      ip_of_[i] = h.ip;
      inject(where_[i], gratuitous_arp(h.mac, h.ip));
      if ((i & 1023) == 1023) run_sim_until(sim_, sim_.now() + kDrain, nullptr);
    }
    run_sim_until(sim_, sim_.now() + kDrain, nullptr);
    touched_.assign(kHosts, 0);
    sim_events_ = 0;
  }

  bool expected_deny(const pkt::Packet& p) const {
    const std::uint8_t proto = p.tcp ? static_cast<std::uint8_t>(pkt::IpProto::kTcp)
                                     : static_cast<std::uint8_t>(pkt::IpProto::kUdp);
    const std::uint16_t port = p.tcp ? p.tcp->dst_port : p.udp->dst_port;
    for (const Rule& r : rules_) {
      if (r.matches(p.ipv4->dst.value(), proto, port)) return r.deny;
    }
    return false;  // default allow
  }

  void timed_inject(const Location& at, pkt::PacketPtr packet) {
    const auto t0 = std::chrono::steady_clock::now();
    inject(at, std::move(packet));
    const auto t1 = std::chrono::steady_clock::now();
    call_us_.push_back(
        static_cast<float>(std::chrono::duration<double, std::micro>(t1 - t0).count()));
  }

  void step() {
    scenario::CampusGenerator::Event ev;
    std::uint64_t pick = 0;
    {
      Scope scope(tracer_, SpanName::kScenarioGenerate);
      ev = campus_.next_event();
      pick = splitmix64(seed_ ^ (injected_ << 1));
    }
    if (ev.at > sim_.now()) sim_events_ += run_sim_until(sim_, ev.at, tracer_);
    const auto seq = static_cast<std::uint32_t>(round_pos_++);
    const MacAddress host_mac = campus_.host(ev.host).mac;
    const MacAddress peer_mac = campus_.host(ev.peer).mac;
    switch (ev.kind) {
      case scenario::CampusGenerator::EventKind::kFlow: {
        const bool tcp = pick % 2 == 0;
        const std::uint16_t dport = kPorts[(pick >> 8) % std::size(kPorts)];
        const auto sport = static_cast<std::uint16_t>(1024 + (injected_ & 0x7FFF));
        pkt::PacketBuilder b;
        b.eth(host_mac, peer_mac);
        if (tcp) {
          b.ipv4(ip_of_[ev.host], ip_of_[ev.peer], pkt::IpProto::kTcp).tcp(sport, dport);
        } else {
          b.ipv4(ip_of_[ev.host], ip_of_[ev.peer], pkt::IpProto::kUdp).udp(sport, dport);
        }
        pkt::PacketPtr packet = b.finalize();
        Setup s;
        s.key = pkt::FlowKey::from_packet(*packet);
        s.at = where_[ev.host];
        s.src = ev.host;
        s.dst = ev.peer;
        s.seq = seq;
        s.deny = expected_deny(*packet);
        denied_ += s.deny ? 1 : 0;
        round_setups_.push_back(s);
        timed_inject(where_[ev.host], std::move(packet));
        ++setups_;
        break;
      }
      case scenario::CampusGenerator::EventKind::kRoam:
        // The host re-attaches at the peer's current switch and port.
        where_[ev.host] = where_[ev.peer];
        timed_inject(where_[ev.host], gratuitous_arp(host_mac, ip_of_[ev.host]));
        touch(ev.host, seq);
        ++roams_;
        break;
      case scenario::CampusGenerator::EventKind::kReLease: {
        // The host's lease expires and its address goes to the peer; the
        // host is re-leased the peer's old address.
        std::swap(ip_of_[ev.host], ip_of_[ev.peer]);
        timed_inject(where_[ev.peer], gratuitous_arp(peer_mac, ip_of_[ev.peer]));
        timed_inject(where_[ev.host], gratuitous_arp(host_mac, ip_of_[ev.host]));
        touch(ev.host, seq);
        touch(ev.peer, seq);
        ++re_leases_;
        break;
      }
    }
    ++injected_;
    if (injected_ % kQueryEvery == 0) {
      const SimTime now = sim_.now();
      const auto t0 = std::chrono::steady_clock::now();
      {
        Scope scope(tracer_, SpanName::kMonitorQuery);
        ui_.rollup_json(std::max<SimTime>(0, now - kQueryWindow), now + 1);
      }
      const auto t1 = std::chrono::steady_clock::now();
      query_us_.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
  }

  /// Allowed setups left a forwarding entry at their ingress switch; denied
  /// ones left none. Setups whose endpoints moved later in the round are
  /// skipped: the move legitimately tore their entries down.
  void check_round() {
    const SimTime now = sim_.now();
    for (const Setup& s : round_setups_) {
      if (touched_[s.src] > s.seq || touched_[s.dst] > s.seq) continue;
      const of::FlowEntry* e =
          switches_[s.at.dpid - 1]->flow_table().peek(s.at.port, s.key, now);
      bool forwards = false;
      if (e != nullptr) {
        for (const of::Action& a : e->actions) {
          forwards = forwards || std::holds_alternative<of::ActionOutput>(a);
        }
      }
      if (forwards == s.deny) ++setup_misses_;
    }
    for (std::uint32_t h : touched_list_) touched_[h] = 0;
    touched_list_.clear();
    round_pos_ = 0;
  }

  void touch(std::uint32_t host, std::uint32_t seq) {
    if (touched_[host] == 0) touched_list_.push_back(host);
    touched_[host] = seq + 1;
  }

  std::uint64_t seed_;
  Tracer* tracer_;
  scenario::CampusGenerator campus_;
  sim::Simulator sim_;
  ctrl::Controller active_;
  ctrl::Controller standby_ctrl_;
  ha::HaCluster cluster_;
  TimedController endpoint_;
  TimedReplicationSink sink_;
  mon::WebUi ui_;
  std::vector<std::unique_ptr<TimedSwitch>> switches_;
  std::vector<std::unique_ptr<of::SecureChannel>> channels_;

  std::vector<Rule> rules_;
  std::vector<Location> where_;
  std::vector<Ipv4Address> ip_of_;
  /// 1 + the round position of the last churn event touching each host.
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint32_t> touched_list_;
  std::vector<Setup> round_setups_;
  std::uint64_t round_pos_ = 0;

  std::uint64_t injected_ = 0;
  std::uint64_t injected_from_ = 0;
  std::uint64_t setups_from_ = 0;
  std::uint64_t setups_ = 0;
  std::uint64_t denied_ = 0;
  std::uint64_t roams_ = 0;
  std::uint64_t re_leases_ = 0;
  std::uint64_t setup_misses_ = 0;
  StandbyComparison standby_check_;
  std::vector<float> call_us_;
  std::vector<double> query_us_;
};

}  // namespace

std::unique_ptr<Workload> make_controller_churn(std::uint64_t seed, Tracer* tracer) {
  return std::make_unique<ControllerChurn>(seed, tracer);
}

}  // namespace campusbench
