// inspect_bulk: the data-plane-only contrast to campus_mixed.
//
// Four sender hosts on one AS switch, four receivers on another, and two SE
// switches (one L7, one IDS element) on a legacy core. Sixteen long-lived
// constant-rate UDP flows, one per sender/receiver pair, are all redirected
// through l7,ids with the paper's always-redirect behaviour (verdict budget
// 0, so no verdicts and no offload). Half the flows carry the smallest
// payload, half MTU-sized flow-unique payloads. Offered load stays well
// below link and SE capacity, so nothing is dropped. HA and monitoring are
// on but idle once the sixteen setups are done: per-packet work (kernel,
// links, switch hit path, SE engines) dominates.
#include <algorithm>
#include <chrono>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "net/host.h"
#include "packet/packet.h"
#include "services/service_element.h"
#include "sim/node.h"
#include "switching/ethernet_switch.h"
#include "workload.h"

namespace campusbench {
namespace {

constexpr int kSenders = 4;
constexpr int kReceivers = 4;
constexpr std::size_t kSmallPayload = 18;    // fills a 64-byte Ethernet frame
constexpr std::size_t kMtuPayload = 1472;    // fills a 1500-byte IP packet
constexpr SimTime kSmallGap = 200 * kMicrosecond;  // 5000 packets/s
constexpr SimTime kMtuGap = 800 * kMicrosecond;    // 1250 packets/s, 14.7 Mbit/s
constexpr SimTime kRound = 20 * kMillisecond;
constexpr std::uint16_t kBasePort = 7000;
constexpr double kAccessBps = 100e6;
constexpr double kUplinkBps = 1e9;
constexpr double kSeBps = 500e6;
constexpr SimTime kDelay = 5 * kMicrosecond;
constexpr SimTime kSettle = 200 * kMillisecond;

class InspectBulk final : public Workload {
 public:
  InspectBulk(std::uint64_t seed, Tracer* tracer)
      : seed_(seed),
        tracer_(tracer),
        active_(sim_),
        standby_(sim_),
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
    const std::uint64_t sent_before = sent_total_;
    const std::uint64_t delivered_before = delivered_total_;
    const std::uint64_t payload_before = delivered_payload_;
    sim_events_ += run_sim_until(sim_, sim_.now() + kRound, tracer_);
    measured_sim_ += kRound;
    measured_delivered_ += delivered_total_ - delivered_before;
    measured_payload_ += delivered_payload_ - payload_before;
    return sent_total_ - sent_before;
  }

  std::vector<Metric> counters() const override {
    std::vector<Metric> out = control_counters(channels_, switches_, active_, cluster_);
    std::uint64_t se_packets = 0, se_bytes = 0;
    for (const auto& se : ses_) {
      se_packets += se->processed_packets();
      se_bytes += se->processed_bytes();
    }
    out.insert(out.end(), {
        {"switching.legacy_floods", double(core_.flooded_packets()), "count"},
        {"services.se.packets", double(se_packets), "count"},
        {"services.se.bytes", double(se_bytes), "bytes"},
        {"net.packets_delivered", double(delivered_total_), "count"},
    });
    return out;
  }

  void sample() override { sample_levels(switches_, cluster_); }

  std::uint64_t packets_delivered() const override { return delivered_total_; }

  void finish(Checks& checks) override {
    stopped_ = true;
    sim_events_ += run_sim_until(sim_, sim_.now() + 100 * kMillisecond, tracer_);

    std::uint64_t wrong_packets = stray_;
    std::uint64_t sent_bytes = 0;
    for (const Flow& f : flows_) {
      wrong_packets += (f.sent > f.delivered ? f.sent - f.delivered : f.delivered - f.sent) +
                       f.misdelivered;
      sent_bytes += f.sent * f.payload->size();
    }
    // Table misses on LS ports are broadcasts the core floods (fabric
    // priming), not data; data drops are link tail drops and SE overload.
    std::uint64_t drops = 0;
    for (const auto& l : links_) drops += l->dropped_packets();
    for (const auto& se : ses_) drops += se->overload_drops();
    checks.expect(wrong_packets == 0, "inspect_bulk.sent_equals_delivered", wrong_packets);
    checks.expect(drops == 0, "inspect_bulk.no_drops", drops);
    checks.expect(sent_bytes == delivered_payload_, "inspect_bulk.payload_bytes_equal",
                  sent_total_);
    checks.expect(goodput_mbps() <= capacity_mbps(), "inspect_bulk.goodput_within_capacity",
                  sent_total_);
  }

  std::vector<Metric> detail(double wall_s) const override {
    return {
        {"packets_per_s", static_cast<double>(measured_delivered_) / wall_s, "packets/s"},
        {"goodput_mbps", goodput_mbps(), "Mbit/s_sim"},
        {"capacity_bound_mbps", capacity_mbps(), "Mbit/s_sim"},
        {"simulated_s", static_cast<double>(measured_sim_) / kSecond, "s_sim"},
    };
  }

 private:
  struct Flow {
    int sender = 0;
    int receiver = 0;
    std::uint16_t sport = 0;
    SimTime gap = 0;
    pkt::PayloadPtr payload;
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t misdelivered = 0;
  };

  double goodput_mbps() const {
    if (measured_sim_ == 0) return 0;
    const double seconds = static_cast<double>(measured_sim_) / kSecond;
    return static_cast<double>(measured_payload_) * 8 / seconds / 1e6;
  }

  /// Payload goodput can never exceed what the receivers' access links, the
  /// egress uplink or one SE of each stage can carry.
  double capacity_mbps() const {
    return std::min({kReceivers * kAccessBps, kUplinkBps, kSeBps}) / 1e6;
  }

  sim::Link::Config link(double bps) const {
    sim::Link::Config c;
    c.bandwidth_bps = bps;
    c.propagation_delay = kDelay;
    return c;
  }

  TimedSwitch& add_switch(DatapathId dpid) {
    switches_.push_back(
        std::make_unique<TimedSwitch>(sim_, "as" + std::to_string(dpid), dpid, tracer_));
    TimedSwitch& s = *switches_.back();
    sim::Port& uplink = s.add_port(sw::PortRole::kLegacySwitching);
    links_.push_back(sim::connect(sim_, uplink, core_.add_port(), link(kUplinkBps)));
    active_.register_ls_port(dpid, uplink.id());
    channels_.push_back(std::make_unique<of::SecureChannel>(sim_, s, endpoint_));
    active_.attach_channel(dpid, *channels_.back());
    cluster_.manage_switch(s, *channels_.back());
    s.connect_controller(*channels_.back());
    return s;
  }

  net::Host& add_host(TimedSwitch& s, int index) {
    const auto n = static_cast<std::uint32_t>(index + 1);
    hosts_.push_back(std::make_unique<net::Host>(
        sim_, "h" + std::to_string(index), MacAddress::from_uint64(0x020000000000ull + n),
        Ipv4Address((10u << 24) | n)));
    net::Host& host = *hosts_.back();
    links_.push_back(sim::connect(sim_, host.port(0), s.add_port(sw::PortRole::kNetworkPeriphery),
                                  link(kAccessBps)));
    return host;
  }

  void build() {
    cluster_.add_node(active_);
    cluster_.add_node(standby_);
    active_.set_replication_sink(&sink_);

    TimedSwitch& senders = add_switch(1);
    TimedSwitch& receivers = add_switch(2);
    for (int i = 0; i < kSenders; ++i) add_host(senders, i);
    for (int j = 0; j < kReceivers; ++j) {
      net::Host& host = add_host(receivers, kSenders + j);
      host.on_ip_default([this, j](const pkt::Packet& p) { delivered(j, p); });
    }
    std::uint64_t se_id = 1;
    for (svc::ServiceType type :
         {svc::ServiceType::kProtocolIdentification, svc::ServiceType::kIntrusionDetection}) {
      TimedSwitch& s = add_switch(3 + se_id - 1);
      svc::ServiceElement::Config c;
      c.se_id = se_id;
      c.mac = MacAddress::from_uint64(0x02AA00000000ull + se_id);
      c.ip = Ipv4Address((10u << 24) | (255u << 16) | static_cast<std::uint32_t>(se_id));
      c.service = type;
      c.processing_bps = kSeBps;
      c.cert_token = active_.certification().issue(se_id);
      ses_.push_back(
          std::make_unique<svc::ServiceElement>(sim_, "se" + std::to_string(se_id), c));
      links_.push_back(sim::connect(sim_, ses_.back()->port(0),
                                    s.add_port(sw::PortRole::kNetworkPeriphery), link(1e9)));
      ++se_id;
    }

    ctrl::Policy all;
    all.name = "udp-via-l7-ids";
    all.priority = 10;
    all.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
    all.action = ctrl::PolicyAction::kRedirect;
    all.service_chain = {svc::ServiceType::kProtocolIdentification,
                         svc::ServiceType::kIntrusionDetection};
    active_.policies().add(all);

    for (int i = 0; i < kSenders; ++i) {
      for (int j = 0; j < kReceivers; ++j) {
        Flow f;
        f.sender = i;
        f.receiver = j;
        f.sport = static_cast<std::uint16_t>(40000 + flows_.size());
        const bool small = (i + j) % 2 == 0;
        f.gap = small ? kSmallGap : kMtuGap;
        f.payload = flow_payload(flows_.size(), small ? kSmallPayload : kMtuPayload);
        by_sport_.emplace(f.sport, flows_.size());
        flows_.push_back(f);
      }
    }
  }

  pkt::PayloadPtr flow_payload(std::size_t flow, std::size_t size) const {
    std::vector<std::uint8_t> bytes(size);
    const std::uint64_t key = splitmix64(seed_ ^ (0xB01Cull << 32 | flow));
    for (std::size_t i = 0; i < size; i += 8) {
      const std::uint64_t word = splitmix64(key + i);
      for (std::size_t b = 0; b < 8 && i + b < size; ++b) {
        bytes[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
      }
    }
    return pkt::make_payload(std::move(bytes));
  }

  void start() {
    active_.start_housekeeping();
    cluster_.start();
    for (auto& se : ses_) se->start();
    SimTime offset = 0;
    for (auto& host : hosts_) {
      sim_.schedule(offset, [h = host.get()] { h->enable_periodic_announce(30 * kSecond); });
      offset += 100 * kMicrosecond;
    }
    run_sim_until(sim_, kSettle, nullptr);
    // Flow phases are drawn from the seed; the first packets make the
    // sixteen setups, which finish inside the settle window below.
    for (std::size_t f = 0; f < flows_.size(); ++f) {
      const SimTime phase = static_cast<SimTime>(splitmix64(seed_ + f) %
                                                 static_cast<std::uint64_t>(flows_[f].gap));
      sim_.schedule(phase, [this, f] { send(f); });
    }
    run_sim_until(sim_, sim_.now() + kSettle, nullptr);
  }

  void send(std::size_t index) {
    if (stopped_) return;
    Flow& f = flows_[index];
    {
      Scope scope(tracer_, SpanName::kScenarioGenerate);
      const net::Host& dst = *hosts_[kSenders + f.receiver];
      pkt::Packet packet = pkt::PacketBuilder()
                               .ipv4(Ipv4Address(), dst.ip(), pkt::IpProto::kUdp)
                               .udp(f.sport, static_cast<std::uint16_t>(kBasePort + index))
                               .payload(f.payload)
                               .build();
      hosts_[f.sender]->send_ip(std::move(packet));
    }
    ++f.sent;
    ++sent_total_;
    sim_.schedule(f.gap, [this, index] { send(index); });
  }

  void delivered(int receiver, const pkt::Packet& p) {
    ++delivered_total_;
    const auto it = p.udp ? by_sport_.find(p.udp->src_port) : by_sport_.end();
    if (it == by_sport_.end()) {
      ++stray_;
      return;
    }
    Flow& f = flows_[it->second];
    if (f.receiver != receiver) {
      ++f.misdelivered;
      return;
    }
    ++f.delivered;
    delivered_payload_ += p.payload_size();
  }

  std::uint64_t seed_;
  Tracer* tracer_;
  sim::Simulator sim_;
  ctrl::Controller active_;
  ctrl::Controller standby_;
  ha::HaCluster cluster_;
  TimedController endpoint_;
  TimedReplicationSink sink_;
  sw::EthernetSwitch core_;
  std::vector<std::unique_ptr<TimedSwitch>> switches_;
  std::vector<std::unique_ptr<of::SecureChannel>> channels_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<svc::ServiceElement>> ses_;
  std::vector<std::unique_ptr<sim::Link>> links_;

  std::vector<Flow> flows_;
  std::unordered_map<std::uint16_t, std::size_t> by_sport_;
  bool stopped_ = false;
  std::uint64_t sent_total_ = 0;
  std::uint64_t delivered_total_ = 0;
  std::uint64_t delivered_payload_ = 0;
  std::uint64_t measured_delivered_ = 0;
  std::uint64_t measured_payload_ = 0;
  SimTime measured_sim_ = 0;
  std::uint64_t stray_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_inspect_bulk(std::uint64_t seed, Tracer* tracer) {
  return std::make_unique<InspectBulk>(seed, tracer);
}

}  // namespace campusbench
