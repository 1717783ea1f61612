// Unit tests for the row-oriented event store kept as the reference model
// of the columnar event pipeline (event_store.h): queries, replay, capacity,
// serialization.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "event_store.h"
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

TEST(EventStore, AppendAssignsMonotonicIds) {
  EventStore store;
  const auto a = store.append(make_event(1, EventType::kHostJoin));
  const auto b = store.append(make_event(2, EventType::kFlowStart));
  EXPECT_LT(a, b);
  EXPECT_EQ(store.size(), 2u);
  ASSERT_NE(store.by_id(a), nullptr);
  EXPECT_EQ(store.by_id(a)->type, EventType::kHostJoin);
  EXPECT_EQ(store.by_id(999), nullptr);
}

TEST(EventStore, RangeQueryIsHalfOpen) {
  EventStore store;
  for (SimTime t = 0; t < 100; t += 10) store.append(make_event(t, EventType::kFlowStart));
  const auto events = store.query_range(20, 50);
  ASSERT_EQ(events.size(), 3u);  // 20, 30, 40
  EXPECT_EQ(events.front().time, 20);
  EXPECT_EQ(events.back().time, 40);
}

TEST(EventStore, TypeQueryFilters) {
  EventStore store;
  store.append(make_event(1, EventType::kHostJoin));
  store.append(make_event(2, EventType::kAttackDetected));
  store.append(make_event(3, EventType::kHostJoin));
  EXPECT_EQ(store.query_type(EventType::kHostJoin, 0, 100).size(), 2u);
  EXPECT_EQ(store.query_type(EventType::kAttackDetected, 0, 100).size(), 1u);
  EXPECT_EQ(store.query_type(EventType::kAttackDetected, 3, 100).size(), 0u);
}

TEST(EventStore, SubjectQueryReturnsMostRecentFirst) {
  EventStore store;
  store.append(make_event(1, EventType::kFlowStart, "alice"));
  store.append(make_event(2, EventType::kFlowStart, "bob"));
  store.append(make_event(3, EventType::kFlowEnd, "alice"));
  const auto events = store.query_subject("alice", 10);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].time, 3);
  EXPECT_EQ(events[1].time, 1);
  EXPECT_EQ(store.query_subject("alice", 1).size(), 1u);
}

TEST(EventStore, ReplayPreservesOrderAndBounds) {
  EventStore store;
  for (SimTime t = 0; t < 50; t += 5) store.append(make_event(t, EventType::kFlowStart));
  std::vector<SimTime> seen;
  const std::size_t count = store.replay(10, 30, [&](const NetworkEvent& e) {
    seen.push_back(e.time);
  });
  EXPECT_EQ(count, 4u);
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 15, 20, 25}));
}

// Property: replay over [0, inf) reproduces exactly the appended sequence.
TEST(EventStore, FullReplayEqualsOriginalSequence) {
  EventStore store;
  std::vector<std::uint64_t> appended;
  for (int i = 0; i < 200; ++i) {
    appended.push_back(
        store.append(make_event(i * 3, static_cast<EventType>(1 + (i % 10)))));
  }
  std::vector<std::uint64_t> replayed;
  store.replay(0, 1'000'000, [&](const NetworkEvent& e) { replayed.push_back(e.id); });
  EXPECT_EQ(replayed, appended);
}

TEST(EventStore, CapacityEvictsOldest) {
  EventStore store(5);
  for (SimTime t = 0; t < 10; ++t) store.append(make_event(t, EventType::kFlowStart));
  EXPECT_EQ(store.size(), 5u);
  EXPECT_EQ(store.at(0).time, 5);
  EXPECT_EQ(store.by_id(1), nullptr);   // evicted
  EXPECT_NE(store.by_id(10), nullptr);  // newest survives
}

// Regression (previously a debug-only assert): an event whose time runs
// backwards is clamped to the last accepted time and counted, instead of
// silently corrupting the binary-searchable time order in release builds.
TEST(EventStore, BackwardsTimeIsClampedAndCounted) {
  EventStore store;
  store.append(make_event(100, EventType::kFlowStart));
  const auto late = store.append(make_event(40, EventType::kFlowEnd));
  store.append(make_event(150, EventType::kFlowStart));
  EXPECT_EQ(store.clamped(), 1u);
  ASSERT_NE(store.by_id(late), nullptr);
  EXPECT_EQ(store.by_id(late)->time, 100);  // clamped, not 40
  // The clamped event is findable by time queries (it would be invisible at
  // its original out-of-order position).
  EXPECT_EQ(store.query_range(100, 101).size(), 2u);
  EXPECT_EQ(store.query_range(0, 100).size(), 0u);
}

// Regression for the O(n) front-erase eviction: sustained capacity churn
// (every append evicts) must keep the rolling window exact. With the old
// vector::erase(begin()) this was quadratic; the deque keeps it O(1).
TEST(EventStore, CapacityChurnKeepsExactWindow) {
  constexpr std::size_t kCapacity = 1024;
  constexpr std::size_t kAppends = 100'000;
  EventStore store(kCapacity);
  for (std::size_t i = 0; i < kAppends; ++i) {
    store.append(make_event(static_cast<SimTime>(i), EventType::kFlowStart));
  }
  ASSERT_EQ(store.size(), kCapacity);
  // Window is exactly the newest kCapacity events, ids and times intact.
  EXPECT_EQ(store.at(0).time, static_cast<SimTime>(kAppends - kCapacity));
  EXPECT_EQ(store.at(kCapacity - 1).time, static_cast<SimTime>(kAppends - 1));
  EXPECT_EQ(store.by_id(kAppends - kCapacity), nullptr);
  EXPECT_NE(store.by_id(kAppends - kCapacity + 1), nullptr);
  EXPECT_EQ(store.query_range(0, kAppends).size(), kCapacity);
}

TEST(EventStore, HistogramCountsTypes) {
  EventStore store;
  store.append(make_event(1, EventType::kHostJoin));
  store.append(make_event(2, EventType::kHostJoin));
  store.append(make_event(3, EventType::kAttackDetected));
  const auto histogram = store.histogram();
  ASSERT_EQ(histogram.size(), 2u);
}

TEST(EventStore, JsonIsWellFormedArray) {
  EventStore store;
  store.append(make_event(1, EventType::kAttackDetected, "he said \"hi\""));
  const std::string json = store.to_json(0, 10);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\\\"hi\\\""), std::string::npos);  // quotes escaped
  EXPECT_NE(json.find("attack_detected"), std::string::npos);
}

TEST(EventStore, ToJsonSurvivesHostileSubjects) {
  EventStore store;
  store.append(make_event(1, EventType::kAttackDetected, "\"],[{"));
  store.append(make_event(2, EventType::kVirusFound, std::string("\x00\x7f\x80\xff", 4)));
  const std::string json = store.to_json(0, 10);
  EXPECT_TRUE(livesec::testing::TinyJsonValidator::valid(json)) << json;
}

// --- serialize / deserialize robustness --------------------------------------

EventStore seeded_store() {
  EventStore store;
  for (int i = 0; i < 32; ++i) {
    NetworkEvent e = make_event(i * 10, static_cast<EventType>(1 + (i % 10)),
                                i % 3 ? "host-" + std::to_string(i) : "shared");
    e.detail = "detail-" + std::to_string(i % 5);
    e.severity = static_cast<std::uint8_t>(i % 10);
    e.dpid = i;
    store.append(std::move(e));
  }
  return store;
}

TEST(EventStore, SerializeRoundTripsAndResumesIds) {
  const EventStore store = seeded_store();
  const auto blob = store.serialize();
  auto restored = EventStore::deserialize(blob);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(restored->at(i).id, store.at(i).id);
    EXPECT_EQ(restored->at(i).time, store.at(i).time);
    EXPECT_EQ(restored->at(i).subject, store.at(i).subject);
  }
  // Id allocation resumes past the restored ids.
  const auto next = restored->append(make_event(1000, EventType::kFlowStart));
  EXPECT_GT(next, store.at(store.size() - 1).id);
}

// Fuzz: every truncation of a valid blob must be rejected cleanly (no crash,
// no partial store), as must corrupted magic/version/count prefixes.
TEST(EventStore, DeserializeRejectsTruncationAtEveryByte) {
  const auto blob = seeded_store().serialize();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const auto truncated = std::span<const std::uint8_t>(blob.data(), len);
    EXPECT_FALSE(EventStore::deserialize(truncated).has_value()) << "len=" << len;
  }
}

TEST(EventStore, DeserializeRejectsBadMagicVersionAndOversizedCount) {
  const auto blob = seeded_store().serialize();
  {
    auto bad = blob;
    bad[0] ^= 0xFF;  // magic
    EXPECT_FALSE(EventStore::deserialize(bad).has_value());
  }
  {
    auto bad = blob;
    bad[4] ^= 0xFF;  // version
    EXPECT_FALSE(EventStore::deserialize(bad).has_value());
  }
  {
    // Count field claims ~2^64 events: must be rejected up front, not
    // looped over (the old decoder iterated the full claimed count).
    auto bad = blob;
    for (std::size_t i = 8; i < 16 && i < bad.size(); ++i) bad[i] = 0xFF;
    EXPECT_FALSE(EventStore::deserialize(bad).has_value());
  }
  EXPECT_FALSE(EventStore::deserialize(std::vector<std::uint8_t>{}).has_value());
}

// --- persistence ---------------------------------------------------------------

TEST(EventStorePersistence, SerializeDeserializeRoundTrip) {
  EventStore store;
  for (int i = 0; i < 50; ++i) {
    NetworkEvent e;
    e.time = i * 10;
    e.type = static_cast<EventType>(1 + (i % 12));
    e.subject = "subject-" + std::to_string(i);
    e.detail = "detail \"quoted\" #" + std::to_string(i);
    e.dpid = static_cast<DatapathId>(i % 5);
    e.severity = static_cast<std::uint8_t>(i % 10);
    store.append(std::move(e));
  }
  const auto blob = store.serialize();
  const auto restored = EventStore::deserialize(blob);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(restored->at(i).id, store.at(i).id);
    EXPECT_EQ(restored->at(i).time, store.at(i).time);
    EXPECT_EQ(restored->at(i).type, store.at(i).type);
    EXPECT_EQ(restored->at(i).subject, store.at(i).subject);
    EXPECT_EQ(restored->at(i).detail, store.at(i).detail);
  }
  // Appending after restore continues the id sequence.
  EventStore writable = *restored;
  NetworkEvent fresh;
  fresh.time = 1000;
  EXPECT_GT(writable.append(std::move(fresh)), store.at(49).id);
}

TEST(EventStorePersistence, RejectsCorruptBlobs) {
  EventStore store;
  NetworkEvent e;
  e.subject = "x";
  store.append(std::move(e));
  auto blob = store.serialize();

  auto bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(EventStore::deserialize(bad_magic).has_value());

  auto truncated = blob;
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(EventStore::deserialize(truncated).has_value());

  auto trailing = blob;
  trailing.push_back(0);
  EXPECT_FALSE(EventStore::deserialize(trailing).has_value());
}

TEST(EventStoreModel, RangeQueriesAgreeWithNaiveFilter) {
  Rng rng(3);
  EventStore store;
  std::vector<NetworkEvent> naive;
  SimTime t = 0;
  for (int i = 0; i < 500; ++i) {
    t += static_cast<SimTime>(rng.uniform(0, 5));
    NetworkEvent e;
    e.time = t;
    e.type = static_cast<EventType>(1 + rng.uniform(0, 11));
    e.subject = "s" + std::to_string(rng.uniform(0, 5));
    store.append(e);
    e.id = store.at(store.size() - 1).id;
    naive.push_back(e);
  }
  for (int q = 0; q < 100; ++q) {
    const SimTime from = static_cast<SimTime>(rng.uniform(0, static_cast<std::uint64_t>(t)));
    const SimTime to = from + static_cast<SimTime>(rng.uniform(0, 500));
    const auto got = store.query_range(from, to);
    std::size_t want = 0;
    for (const auto& e : naive) {
      if (e.time >= from && e.time < to) ++want;
    }
    ASSERT_EQ(got.size(), want) << "query " << q;
    // Ordering & bounds.
    for (std::size_t i = 1; i < got.size(); ++i) {
      ASSERT_LE(got[i - 1].time, got[i].time);
    }
    for (const auto& e : got) {
      ASSERT_GE(e.time, from);
      ASSERT_LT(e.time, to);
    }
  }
}

}  // namespace
}  // namespace livesec::mon
