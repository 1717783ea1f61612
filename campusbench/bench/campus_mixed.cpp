// campus_mixed: the paper's interactive enforcement at campus scale.
//
// 1024 hosts behind 64 AS switches on one legacy core, two SE switches each
// carrying an L7 and an IDS service element, one live HA standby and the
// controller's monitoring at its defaults. Hosts keep a 30 s periodic ARP
// refresh, as deployed hosts do. Flows arrive open loop at a fixed rate; the
// benchmark keeps exactly one pending arrival. Each flow is a train of ten
// packets sent back to back, as a short TCP flow sends its initial window of
// ten segments (RFC 6928): the access link paces them. Exactly one flow of
// each consecutive pair is redirected through the l7,ids chain, 1% of all
// flows carry an IDS signature and must end blocked, and the generator makes
// 30% carry shared ("viral") content. SEs run with a verdict byte budget, so
// the verdict cache and the controller's offload engage.
#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "ha/replication.h"
#include "net/host.h"
#include "packet/flow_key.h"
#include "packet/packet.h"
#include "scenario/campus.h"
#include "services/service_element.h"
#include "sim/node.h"
#include "switching/ethernet_switch.h"
#include "workload.h"

namespace campusbench {
namespace {

constexpr std::uint32_t kHosts = 1024;
constexpr std::uint32_t kHostsPerSwitch = 16;
constexpr double kFlowsPerSecond = 2000;  // simulated arrival rate
constexpr int kPacketsPerFlow = 10;
/// Time a train stays in the network: it keeps its hosts from roaming.
constexpr SimTime kTrainSpan = 10 * kMillisecond;
constexpr std::size_t kPayloadBytes = 512;
constexpr std::uint32_t kRoundFlows = 200;
constexpr SimTime kArpRefresh = 30 * kSecond;
constexpr SimTime kSettle = 300 * kMillisecond;
/// Simulated traffic before measuring: flows start expiring after the
/// controller's 10 s idle timeout, which sets the steady state.
constexpr SimTime kWarmUp = 12 * kSecond;
constexpr std::uint64_t kVerdictBudget = 2048;
constexpr std::uint16_t kWebPort = 80;   // redirected through l7,ids
constexpr std::uint16_t kBulkPort = 5000; // allowed directly
/// A roaming host takes no part in new flows for this long, so flows never
/// race the controller relearning where it is.
constexpr SimTime kRoamGuard = 50 * kMillisecond;

// Physical configuration, also used to compute the first-packet floor.
constexpr double kAccessBps = 100e6;
constexpr SimTime kAccessDelay = 5 * kMicrosecond;
constexpr double kUplinkBps = 1e9;
constexpr SimTime kUplinkDelay = 5 * kMicrosecond;
constexpr SimTime kChannelLatency = 100 * kMicrosecond;
constexpr SimTime kSeLinkDelay = kAccessDelay;

/// Bits of Flow::se_seen: which kinds of SE saw a packet of the flow.
constexpr std::uint8_t kSeenByL7 = 1;
constexpr std::uint8_t kSeenByIds = 2;

/// A service element that reports every packet it receives, so the
/// benchmark can tell which flows each kind of SE saw.
class ObservedSe : public svc::ServiceElement {
 public:
  using Observer = std::function<void(const pkt::Packet&, std::uint8_t seen_bit)>;

  ObservedSe(sim::Simulator& sim, std::string name, const Config& config, Observer observer)
      : ServiceElement(sim, std::move(name), config),
        observer_(std::move(observer)),
        seen_bit_(config.service == svc::ServiceType::kIntrusionDetection ? kSeenByIds
                                                                           : kSeenByL7) {}

  void handle_packet(PortId in_port, pkt::PacketPtr packet) override {
    observer_(*packet, seen_bit_);
    ServiceElement::handle_packet(in_port, std::move(packet));
  }

 private:
  Observer observer_;
  std::uint8_t seen_bit_;
};

const char* const kAttackPayload =
    "GET /exploit HTTP/1.1\r\nHost: malware-distribution.example\r\n\r\n";

class CampusMixed final : public Workload {
 public:
  CampusMixed(std::uint64_t seed, Tracer* tracer)
      : seed_(seed),
        tracer_(tracer),
        campus_(campus_config(seed)),
        cache_(std::make_shared<svc::VerdictCache>()),
        active_(sim_),
        standby_ctrl_(sim_),
        cluster_(sim_, ha::HaCluster::Config{}),
        endpoint_(active_, tracer),
        sink_(cluster_, tracer),
        core_(sim_, "core") {
    const auto t0 = std::chrono::steady_clock::now();
    build();
    const auto t1 = std::chrono::steady_clock::now();
    start();
    const auto t2 = std::chrono::steady_clock::now();
    setup_.build_s = std::chrono::duration<double>(t1 - t0).count();
    setup_.settle_s = std::chrono::duration<double>(t2 - t1).count();
  }

  std::uint64_t run_round() override {
    quota_ += kRoundFlows;
    if (!arrival_pending_) {
      arrival_pending_ = true;
      sim_.schedule_at(slot_time(next_slot_), [this] { arrival(); });
    }
    sim_events_ += run_sim_until(sim_, slot_time(quota_ - 1), tracer_);
    return kRoundFlows;
  }

  void begin_measure() override {
    measured_from_ = flows_.size();
    delivered_from_ = delivered_total_;
  }

  std::uint64_t warm_up() override {
    std::uint64_t ops = 0;
    while (sim_.now() < start_time_ + kWarmUp) ops += run_round();
    return ops;
  }

  std::vector<Metric> counters() const override {
    std::vector<Metric> out = control_counters(channels_, switches_, active_, cluster_);
    std::uint64_t se_packets = 0, se_bytes = 0;
    for (const auto& se : ses_) {
      se_packets += se->processed_packets();
      se_bytes += se->processed_bytes();
    }
    const auto vc = cache_->counters();
    out.insert(out.end(), {
        {"switching.legacy_floods", double(core_.flooded_packets()), "count"},
        {"services.se.packets", double(se_packets), "count"},
        {"services.se.bytes", double(se_bytes), "bytes"},
        {"services.verdict_cache.hits", double(vc.hits), "count"},
        {"services.verdict_cache.misses", double(vc.misses), "count"},
        {"net.packets_delivered", double(delivered_total_), "count"},
    });
    return out;
  }

  void sample() override { sample_levels(switches_, cluster_); }

  std::uint64_t packets_delivered() const override { return delivered_total_; }

  void finish(Checks& checks) override {
    delivered_measured_ = delivered_total_ - delivered_from_;
    // Every train has ended and drained one simulated second later.
    sim_events_ += run_sim_until(sim_, sim_.now() + kSecond, tracer_);

    std::uint64_t wrong_count = 0, attack_open = 0, below_floor = 0;
    std::uint64_t se_missed = 0, se_intruded = 0;
    latencies_us_.clear();
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      const Flow& f = flows_[i];
      // A redirected flow must pass an L7 and an IDS element; a direct flow
      // must pass none.
      if (f.redirect ? f.se_seen != (kSeenByL7 | kSeenByIds) : f.se_seen != 0) {
        ++(f.redirect ? se_missed : se_intruded);
      }
      if (f.attack) {
        const bool blocked = active_.flow_blocked(f.key);
        attack_open += blocked ? 0 : 1;
        continue;
      }
      if (f.delivered != kPacketsPerFlow || f.misdelivered != 0) ++wrong_count;
      if (f.first_arrival >= 0) {
        const SimTime latency = f.first_arrival - f.start;
        if (latency < first_packet_floor(f.redirect)) ++below_floor;
        if (i >= measured_from_) {
          latencies_us_.push_back(static_cast<double>(latency) / kMicrosecond);
        }
      }
    }
    checks.expect(flows_.size() == quota_, "campus_mixed.every_arrival_issued",
                  quota_ - std::min<std::uint64_t>(quota_, flows_.size()));
    checks.expect(wrong_count == 0, "campus_mixed.delivery_exact", wrong_count);
    checks.expect(stray_packets_ == 0, "campus_mixed.no_stray_packets", stray_packets_);
    checks.expect(attack_open == 0, "campus_mixed.attacks_blocked", attack_open);
    checks.expect(below_floor == 0, "campus_mixed.latency_above_floor", below_floor);
    checks.expect(se_missed == 0, "campus_mixed.se_coverage", se_missed);
    checks.expect(se_intruded == 0, "campus_mixed.direct_flows_bypass_ses", se_intruded);

    // Quiesce stops the hosts' refreshes too, so that no refresh lands
    // between the last housekeeping tick and the comparison.
    for (auto& host : hosts_) host->disable_periodic_announce();
    standby_check_ = quiesce_and_compare(sim_, cluster_);
    checks.expect(standby_check_.state_equal, "campus_mixed.standby_export_equal",
                  flows_.size());
    // The offload memo diverges on every run (see the README's known
    // faults); the redirected flows are the ones it holds state for.
    checks.expect_known_fault(standby_check_.memo_equal, "campus_mixed.standby_offload_memo_equal",
                              redirects_);
  }

  std::vector<Metric> detail(double wall_s) const override {
    const double flows = static_cast<double>(flows_.size() - measured_from_);
    return {
        {"flow_setups_per_s", flows / wall_s, "flows/s"},
        {"packets_per_s", static_cast<double>(delivered_measured_) / wall_s, "packets/s"},
        {"first_packet_latency_p50_us", percentile(latencies_us_, 0.50), "us_sim"},
        {"first_packet_latency_p99_us", percentile(latencies_us_, 0.99), "us_sim"},
        {"first_packet_latency_samples", double(latencies_us_.size()), "count"},
        {"first_packet_floor_us", double(first_packet_floor(false)) / kMicrosecond, "us_sim"},
        {"first_packet_floor_redirected_us", double(first_packet_floor(true)) / kMicrosecond,
         "us_sim"},
        {"flows_attack", double(attacks_), "count"},
        {"flows_redirected", double(redirects_), "count"},
        {"roams", double(roams_), "count"},
        {"roams_skipped_busy", double(roams_skipped_), "count"},
        {"standby_seen_at_only_diffs", double(standby_check_.seen_at_diffs), "count"},
        {"active_offload_memo", double(standby_check_.active_offloads), "count"},
        {"standby_offload_memo", double(standby_check_.standby_offloads), "count"},
    };
  }

 private:
  struct Flow {
    pkt::FlowKey key;
    SimTime start = 0;
    SimTime first_arrival = -1;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint16_t sport = 0;
    std::uint8_t delivered = 0;
    std::uint8_t misdelivered = 0;
    std::uint8_t se_seen = 0;
    bool redirect = false;
    bool attack = false;
  };

  static scenario::CampusConfig campus_config(std::uint64_t seed) {
    scenario::CampusConfig c;
    c.hosts = kHosts;
    c.hosts_per_switch = kHostsPerSwitch;
    c.seed = seed;
    c.viral_fraction = 0.3;
    return c;
  }

  SimTime slot_time(std::uint64_t slot) const {
    return start_time_ + static_cast<SimTime>(static_cast<double>(slot) * kSecond /
                                              kFlowsPerSecond);
  }

  /// Lowest possible first-packet latency. A direct packet crosses the
  /// ingress access link, waits one switch pipeline, goes to the controller
  /// and back, then crosses uplink, core, uplink and the egress switch. A
  /// redirected one also goes up to an SE switch and back through the core,
  /// and visits two SEs there (at best on the same SE switch): three SE
  /// switch pipelines, four SE links and two SE service times.
  SimTime first_packet_floor(bool redirected) const {
    const SimTime of_pipeline = sw::OpenFlowSwitch::Config{}.processing_delay;
    const SimTime core = sw::EthernetSwitch::Config{}.forwarding_delay;
    const SimTime direct =
        2 * kAccessDelay + 2 * kUplinkDelay + 2 * kChannelLatency + 2 * of_pipeline + core;
    if (!redirected) return direct;
    const svc::ServiceElement::Config se;
    const auto se_service = static_cast<SimTime>(kPayloadBytes * 8 / se.processing_bps * kSecond) +
                            se.per_packet_overhead;
    return direct + 2 * kUplinkDelay + core + 3 * of_pipeline + 4 * kSeLinkDelay +
           2 * se_service;
  }

  sim::Link::Config link(double bps, SimTime delay) const {
    sim::Link::Config c;
    c.bandwidth_bps = bps;
    c.propagation_delay = delay;
    return c;
  }

  TimedSwitch& add_switch(DatapathId dpid) {
    switches_.push_back(
        std::make_unique<TimedSwitch>(sim_, "as" + std::to_string(dpid), dpid, tracer_));
    TimedSwitch& s = *switches_.back();
    sim::Port& uplink = s.add_port(sw::PortRole::kLegacySwitching);
    links_.push_back(sim::connect(sim_, uplink, core_.add_port(), link(kUplinkBps, kUplinkDelay)));
    active_.register_ls_port(dpid, uplink.id());
    channels_.push_back(std::make_unique<of::SecureChannel>(sim_, s, endpoint_, kChannelLatency));
    active_.attach_channel(dpid, *channels_.back());
    cluster_.manage_switch(s, *channels_.back());
    s.connect_controller(*channels_.back());
    return s;
  }

  void build() {
    active_.set_verdict_cache(cache_);
    standby_ctrl_.set_verdict_cache(cache_);
    cluster_.add_node(active_);
    cluster_.add_node(standby_ctrl_);
    active_.set_replication_sink(&sink_);

    for (std::uint32_t s = 0; s < campus_.switch_count(); ++s) add_switch(1 + s);
    for (std::uint32_t i = 0; i < kHosts; ++i) {
      const scenario::CampusHost h = campus_.host(i);
      hosts_.push_back(
          std::make_unique<net::Host>(sim_, "h" + std::to_string(i), h.mac, h.ip));
      net::Host& host = *hosts_.back();
      TimedSwitch& as = *switches_[h.dpid - 1];
      links_.push_back(sim::connect(sim_, host.port(0),
                                    as.add_port(sw::PortRole::kNetworkPeriphery),
                                    link(kAccessBps, kAccessDelay)));
      host.on_ip_default([this, i](const pkt::Packet& p) { delivered(i, p); });
    }

    // Two SE switches, each with one L7 and one IDS element.
    std::uint64_t se_id = 1;
    for (int k = 0; k < 2; ++k) {
      TimedSwitch& s = add_switch(campus_.switch_count() + 1 + k);
      for (svc::ServiceType type :
           {svc::ServiceType::kProtocolIdentification, svc::ServiceType::kIntrusionDetection}) {
        svc::ServiceElement::Config c;
        c.se_id = se_id;
        c.mac = MacAddress::from_uint64(0x02AA00000000ull + se_id);
        c.ip = Ipv4Address((10u << 24) | (255u << 16) | static_cast<std::uint32_t>(se_id));
        c.service = type;
        c.cert_token = active_.certification().issue(se_id);
        c.verdict_byte_budget = kVerdictBudget;
        c.verdict_cache = cache_;
        ses_.push_back(std::make_unique<ObservedSe>(
            sim_, "se" + std::to_string(se_id), c,
            [this](const pkt::Packet& p, std::uint8_t bit) { seen_by_se(p, bit); }));
        links_.push_back(sim::connect(sim_, ses_.back()->port(0),
                                      s.add_port(sw::PortRole::kNetworkPeriphery),
                                      link(1e9, kSeLinkDelay)));
        ++se_id;
      }
    }

    ctrl::Policy web;
    web.name = "web-via-l7-ids";
    web.priority = 10;
    web.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kTcp);
    web.tp_dst = kWebPort;
    web.action = ctrl::PolicyAction::kRedirect;
    web.service_chain = {svc::ServiceType::kProtocolIdentification,
                         svc::ServiceType::kIntrusionDetection};
    active_.policies().add(web);

    attack_payload_ = pkt::make_payload(std::string_view(kAttackPayload));
    for (std::uint32_t c = 1; c <= campus_.config().viral_contents; ++c) {
      viral_.push_back(pkt::make_payload(campus_.content_payload(c, kPayloadBytes)));
    }
    roam_guard_.assign(kHosts, 0);
    busy_until_.assign(kHosts, 0);
    next_sport_.assign(kHosts, 1024);
  }

  void start() {
    active_.start_housekeeping();
    cluster_.start();
    for (auto& se : ses_) se->start();
    SimTime offset = 0;
    for (auto& host : hosts_) {
      sim_.schedule(offset, [h = host.get()] { h->enable_periodic_announce(kArpRefresh); });
      offset += 100 * kMicrosecond;
    }
    sim_events_ += run_sim_until(sim_, kSettle + offset, nullptr);
    start_time_ = sim_.now() + kMillisecond;
    sim_events_ = 0;
  }

  /// The single pending arrival: issues flow `next_slot_` and schedules the
  /// next arrival while the round's quota lasts.
  void arrival() {
    issue_flow();
    ++next_slot_;
    if (next_slot_ < quota_) {
      sim_.schedule_at(slot_time(next_slot_), [this] { arrival(); });
    } else {
      arrival_pending_ = false;
    }
  }

  std::uint64_t draw(std::uint64_t salt) const {
    return splitmix64(splitmix64(seed_ ^ 0x5EEDC0DEull) + salt);
  }

  /// Draws generator events until one is a flow it can start, applying
  /// roams on the way, and sends the flow's first packet. Drawing and
  /// building inputs is timed as scenario.generate; the roams and sends are
  /// program work.
  void issue_flow() {
    const SimTime now = sim_.now();
    for (;;) {
      scenario::CampusGenerator::Event ev;
      {
        Scope scope(tracer_, SpanName::kScenarioGenerate);
        ev = campus_.next_event();
      }
      if (ev.kind == scenario::CampusGenerator::EventKind::kRoam) {
        roam(ev.host, ev.peer);
        continue;
      }
      // Hosts here hold static addresses, so DHCP re-lease events are
      // skipped.
      if (ev.kind != scenario::CampusGenerator::EventKind::kFlow) continue;
      if (roam_guard_[ev.host] > now || roam_guard_[ev.peer] > now) continue;

      const auto id = static_cast<std::uint32_t>(flows_.size());
      pkt::Packet packet;
      {
        Scope scope(tracer_, SpanName::kScenarioGenerate);
        packet = make_flow(id, ev);
      }
      send_train(id, packet);
      return;
    }
  }

  /// Records flow `id` for event `ev` and returns the packet its train
  /// repeats.
  pkt::Packet make_flow(std::uint32_t id, const scenario::CampusGenerator::Event& ev) {
    const SimTime now = sim_.now();
    Flow f;
    f.src = ev.host;
    f.dst = ev.peer;
    f.start = now;
    f.sport = next_sport_[f.src]++;
    // One flow of each pair is redirected, so every round of kRoundFlows
    // redirects exactly half.
    f.redirect = (draw(id / 2) & 1) == (id & 1);
    f.attack = f.redirect && draw(0xA77Aull << 32 | id) % 50 == 0;
    pkt::PayloadPtr payload;
    if (f.attack) {
      payload = attack_payload_;
      ++attacks_;
    } else if (ev.content != 0) {
      payload = viral_[ev.content - 1];
    } else {
      payload = unique_payload(id);
    }
    redirects_ += f.redirect ? 1 : 0;
    const net::Host& src = *hosts_[f.src];
    const net::Host& dst = *hosts_[f.dst];
    pkt::PacketBuilder b;
    b.eth(src.mac(), dst.mac());
    if (f.redirect) {
      b.ipv4(src.ip(), dst.ip(), pkt::IpProto::kTcp).tcp(f.sport, kWebPort);
    } else {
      b.ipv4(src.ip(), dst.ip(), pkt::IpProto::kUdp).udp(f.sport, kBulkPort);
    }
    b.payload(std::move(payload));
    pkt::Packet packet = b.build();
    f.key = pkt::FlowKey::from_packet(packet);
    by_key_.emplace(flow_index_key(src.ip(), f.sport), id);
    const SimTime end = now + kTrainSpan + kRoamGuard;
    busy_until_[f.src] = std::max(busy_until_[f.src], end);
    busy_until_[f.dst] = std::max(busy_until_[f.dst], end);
    flows_.push_back(f);
    return packet;
  }

  pkt::PayloadPtr unique_payload(std::uint32_t id) const {
    std::vector<std::uint8_t> bytes(kPayloadBytes);
    const std::uint64_t key = draw(0xF10Dull << 32 | id);
    for (std::size_t i = 0; i < bytes.size(); i += 8) {
      const std::uint64_t word = splitmix64(key + i);
      for (std::size_t b = 0; b < 8 && i + b < bytes.size(); ++b) {
        bytes[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
      }
    }
    return pkt::make_payload(std::move(bytes));
  }

  /// Sends flow `id`'s whole train at once; the access link queues it.
  void send_train(std::uint32_t id, const pkt::Packet& packet) {
    net::Host& src = *hosts_[flows_[id].src];
    for (int k = 0; k < kPacketsPerFlow; ++k) src.send_ip(packet);
  }

  static std::uint64_t flow_index_key(Ipv4Address src, std::uint16_t sport) {
    return std::uint64_t{src.value()} << 16 | sport;
  }

  /// The flow a data packet belongs to, or null.
  Flow* flow_of(const pkt::Packet& p) {
    if (!p.ipv4) return nullptr;
    const std::uint16_t sport = p.tcp ? p.tcp->src_port : p.udp ? p.udp->src_port : 0;
    const auto it = by_key_.find(flow_index_key(p.ipv4->src, sport));
    return it == by_key_.end() ? nullptr : &flows_[it->second];
  }

  void seen_by_se(const pkt::Packet& p, std::uint8_t bit) {
    if (Flow* f = flow_of(p)) f->se_seen |= bit;
  }

  void delivered(std::uint32_t host, const pkt::Packet& p) {
    ++delivered_total_;
    Flow* flow = flow_of(p);
    if (flow == nullptr) {
      ++stray_packets_;
      return;
    }
    Flow& f = *flow;
    if (f.dst != host) {
      ++f.misdelivered;
      return;
    }
    if (f.first_arrival < 0) f.first_arrival = sim_.now();
    ++f.delivered;
  }

  /// Moves an idle host to the peer's AS switch: its access link is
  /// replaced (only when nothing is in flight on it) and it re-announces.
  void roam(std::uint32_t host, std::uint32_t peer) {
    const SimTime now = sim_.now();
    net::Host& h = *hosts_[host];
    sim::Link* old = h.port(0).link();
    if (busy_until_[host] > now || old == nullptr || old->backlog_bytes(0) != 0 ||
        old->backlog_bytes(1) != 0) {
      ++roams_skipped_;
      return;
    }
    const auto peer_switch = attachment_[peer];
    if (peer_switch == attachment_[host]) return;
    for (auto& l : links_) {
      if (l.get() == old) {
        l.reset();  // unplugs both ends before the new cable goes in
        l = sim::connect(sim_, h.port(0),
                         switches_[peer_switch]->add_port(sw::PortRole::kNetworkPeriphery),
                         link(kAccessBps, kAccessDelay));
        break;
      }
    }
    attachment_[host] = peer_switch;
    h.announce();
    roam_guard_[host] = now + kRoamGuard;
    ++roams_;
  }

  std::uint64_t seed_;
  Tracer* tracer_;
  scenario::CampusGenerator campus_;
  sim::Simulator sim_;
  std::shared_ptr<svc::VerdictCache> cache_;
  ctrl::Controller active_;
  ctrl::Controller standby_ctrl_;
  ha::HaCluster cluster_;
  TimedController endpoint_;
  TimedReplicationSink sink_;
  sw::EthernetSwitch core_;
  std::vector<std::unique_ptr<TimedSwitch>> switches_;
  std::vector<std::unique_ptr<of::SecureChannel>> channels_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<ObservedSe>> ses_;
  std::vector<std::unique_ptr<sim::Link>> links_;

  pkt::PayloadPtr attack_payload_;
  std::vector<pkt::PayloadPtr> viral_;
  std::vector<Flow> flows_;
  std::unordered_map<std::uint64_t, std::uint32_t> by_key_;
  std::vector<SimTime> roam_guard_;
  std::vector<SimTime> busy_until_;
  std::vector<std::uint16_t> next_sport_;
  /// Index into switches_ of each host's current AS switch.
  std::vector<std::uint32_t> attachment_ = [] {
    std::vector<std::uint32_t> a(kHosts);
    for (std::uint32_t i = 0; i < kHosts; ++i) a[i] = i / kHostsPerSwitch;
    return a;
  }();

  SimTime start_time_ = 0;
  std::uint64_t next_slot_ = 0;
  std::uint64_t quota_ = 0;
  bool arrival_pending_ = false;

  std::uint64_t delivered_total_ = 0;
  std::size_t measured_from_ = 0;
  std::uint64_t delivered_from_ = 0;
  /// Delivered during the measured rounds (set when the trains drain).
  std::uint64_t delivered_measured_ = 0;
  std::uint64_t stray_packets_ = 0;
  std::uint64_t attacks_ = 0;
  std::uint64_t redirects_ = 0;
  std::uint64_t roams_ = 0;
  std::uint64_t roams_skipped_ = 0;
  StandbyComparison standby_check_;
  std::vector<double> latencies_us_;
};

}  // namespace

std::unique_ptr<Workload> make_campus_mixed(std::uint64_t seed, Tracer* tracer) {
  return std::make_unique<CampusMixed>(seed, tracer);
}

}  // namespace campusbench
