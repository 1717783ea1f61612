// Unit tests for the monitoring subsystem: event rendering, service-aware
// monitoring, aggregate flow control.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "monitor/event.h"
#include "monitor/monitoring.h"
#include "tiny_json.h"

// GCC 12 reports a -Wrestrict false positive inside libstdc++ for
// "literal" + std::string (GCC bug 105651), which this file concatenates.
#pragma GCC diagnostic ignored "-Wrestrict"

namespace livesec::mon {
namespace {

NetworkEvent make_event(SimTime t, EventType type, std::string subject = "s") {
  NetworkEvent e;
  e.time = t;
  e.type = type;
  e.subject = std::move(subject);
  return e;
}

// --- JSON escaping -----------------------------------------------------------

TEST(NetworkEvent, JsonEscapesQuotesBackslashesAndControlChars) {
  NetworkEvent e = make_event(1, EventType::kAttackDetected, "a\"b\\c");
  e.detail = "line1\nline2\ttab\rret\x01\x1f";
  const std::string json = e.to_json();
  EXPECT_TRUE(livesec::testing::TinyJsonValidator::valid(json)) << json;
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\r"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u001f"), std::string::npos);
}

// Regression: bytes >= 0x80 (UTF-8 continuation bytes, latin-1 hostnames)
// used to pass through raw; they must be emitted as \u00xx so the output is
// self-contained ASCII JSON regardless of the subject's encoding.
TEST(NetworkEvent, JsonEscapesNonAsciiBytes) {
  NetworkEvent e = make_event(1, EventType::kHostJoin, "caf\xc3\xa9");
  const std::string json = e.to_json();
  EXPECT_TRUE(livesec::testing::TinyJsonValidator::valid(json)) << json;
  EXPECT_NE(json.find("\\u00c3"), std::string::npos);
  EXPECT_NE(json.find("\\u00a9"), std::string::npos);
  EXPECT_EQ(json.find('\xc3'), std::string::npos);
}

// Property: to_json is valid JSON for every possible single-byte subject and
// detail value (exhaustive over the byte range, the dimension that matters).
TEST(NetworkEvent, JsonValidForEveryByteValue) {
  for (int b = 0; b < 256; ++b) {
    NetworkEvent e = make_event(1, EventType::kFlowStart);
    e.subject = std::string(1, static_cast<char>(b));
    e.detail = "x" + std::string(2, static_cast<char>(b)) + "y";
    const std::string json = e.to_json();
    ASSERT_TRUE(livesec::testing::TinyJsonValidator::valid(json)) << "byte=" << b << " json=" << json;
  }
}

TEST(NetworkEvent, ToStringIncludesSeverityAndDetail) {
  NetworkEvent e = make_event(kSecond, EventType::kAttackDetected, "host1");
  e.detail = "sql-injection";
  e.severity = 8;
  const std::string s = e.to_string();
  EXPECT_NE(s.find("attack_detected"), std::string::npos);
  EXPECT_NE(s.find("sql-injection"), std::string::npos);
  EXPECT_NE(s.find("sev=8"), std::string::npos);
}

// --- ServiceAwareMonitor -----------------------------------------------------------

TEST(ServiceAwareMonitor, TracksDominantApp) {
  ServiceAwareMonitor monitor;
  const MacAddress user = MacAddress::from_uint64(0xA);
  EXPECT_FALSE(monitor.dominant_app(user).has_value());

  monitor.record_flow_identified(user, svc::l7::AppProtocol::kHttp);
  monitor.record_flow_identified(user, svc::l7::AppProtocol::kHttp);
  monitor.record_flow_identified(user, svc::l7::AppProtocol::kSsh);
  EXPECT_EQ(monitor.dominant_app(user), svc::l7::AppProtocol::kHttp);

  // Both HTTP flows end; SSH becomes dominant (the Figure 7 -> 8 shift).
  monitor.record_flow_ended(user, svc::l7::AppProtocol::kHttp);
  monitor.record_flow_ended(user, svc::l7::AppProtocol::kHttp);
  EXPECT_EQ(monitor.dominant_app(user), svc::l7::AppProtocol::kSsh);
}

TEST(ServiceAwareMonitor, NetworkDistributionAggregates) {
  ServiceAwareMonitor monitor;
  monitor.record_flow_identified(MacAddress::from_uint64(1), svc::l7::AppProtocol::kHttp);
  monitor.record_flow_identified(MacAddress::from_uint64(2), svc::l7::AppProtocol::kHttp);
  monitor.record_flow_identified(MacAddress::from_uint64(2), svc::l7::AppProtocol::kBitTorrent);
  const auto dist = monitor.network_distribution();
  EXPECT_EQ(dist.at(svc::l7::AppProtocol::kHttp), 2u);
  EXPECT_EQ(dist.at(svc::l7::AppProtocol::kBitTorrent), 1u);
  EXPECT_EQ(monitor.users().size(), 2u);
}

TEST(ServiceAwareMonitor, TrafficTotalsAccumulateAndRank) {
  ServiceAwareMonitor monitor;
  const MacAddress light = MacAddress::from_uint64(1);
  const MacAddress heavy = MacAddress::from_uint64(2);
  monitor.record_flow_traffic(light, 10, 1000);
  monitor.record_flow_traffic(heavy, 100, 50000);
  monitor.record_flow_traffic(heavy, 200, 70000);

  const auto* totals = monitor.traffic(heavy);
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->flows, 2u);
  EXPECT_EQ(totals->packets, 300u);
  EXPECT_EQ(totals->bytes, 120000u);
  EXPECT_EQ(monitor.traffic(MacAddress::from_uint64(9)), nullptr);

  const auto ranked = monitor.top_talkers(10);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].first, heavy);
  EXPECT_EQ(ranked[1].first, light);
  EXPECT_EQ(monitor.top_talkers(1).size(), 1u);
}

TEST(ServiceAwareMonitor, EndWithoutStartIsSafe) {
  ServiceAwareMonitor monitor;
  monitor.record_flow_ended(MacAddress::from_uint64(9), svc::l7::AppProtocol::kHttp);
  EXPECT_TRUE(monitor.users().empty());
}

// --- AggregateFlowControl -----------------------------------------------------------

TEST(AggregateFlowControl, EnforcesPerUserPerAppCap) {
  ServiceAwareMonitor monitor;
  AggregateFlowControl control;
  control.set_limit(svc::l7::AppProtocol::kBitTorrent, 2);
  const MacAddress user = MacAddress::from_uint64(0xA);

  EXPECT_TRUE(control.admits(monitor, user, svc::l7::AppProtocol::kBitTorrent));
  monitor.record_flow_identified(user, svc::l7::AppProtocol::kBitTorrent);
  EXPECT_TRUE(control.admits(monitor, user, svc::l7::AppProtocol::kBitTorrent));
  monitor.record_flow_identified(user, svc::l7::AppProtocol::kBitTorrent);
  EXPECT_FALSE(control.admits(monitor, user, svc::l7::AppProtocol::kBitTorrent));

  // A flow ending frees a slot.
  monitor.record_flow_ended(user, svc::l7::AppProtocol::kBitTorrent);
  EXPECT_TRUE(control.admits(monitor, user, svc::l7::AppProtocol::kBitTorrent));
}

TEST(AggregateFlowControl, UnlimitedAppsAlwaysAdmit) {
  ServiceAwareMonitor monitor;
  AggregateFlowControl control;
  control.set_limit(svc::l7::AppProtocol::kBitTorrent, 1);
  const MacAddress user = MacAddress::from_uint64(0xA);
  for (int i = 0; i < 10; ++i) {
    monitor.record_flow_identified(user, svc::l7::AppProtocol::kHttp);
  }
  EXPECT_TRUE(control.admits(monitor, user, svc::l7::AppProtocol::kHttp));
  EXPECT_FALSE(control.limit(svc::l7::AppProtocol::kHttp).has_value());
}

TEST(AggregateFlowControl, LimitsArePerUser) {
  ServiceAwareMonitor monitor;
  AggregateFlowControl control;
  control.set_limit(svc::l7::AppProtocol::kBitTorrent, 1);
  monitor.record_flow_identified(MacAddress::from_uint64(1), svc::l7::AppProtocol::kBitTorrent);
  EXPECT_FALSE(
      control.admits(monitor, MacAddress::from_uint64(1), svc::l7::AppProtocol::kBitTorrent));
  EXPECT_TRUE(
      control.admits(monitor, MacAddress::from_uint64(2), svc::l7::AppProtocol::kBitTorrent));
}

}  // namespace
}  // namespace livesec::mon
