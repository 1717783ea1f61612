// Row-oriented event store: a deque of NetworkEvents with time-range
// queries and history replay (paper §IV.D: "locate the network problems by
// replaying the history events"). The controller serves these queries from
// the columnar mon::EventPipeline; this simple store stays under tests/ as
// the reference model that pipeline is checked against.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "monitor/event.h"

namespace livesec::mon {

/// Append-only store of NetworkEvents with monotonic ids. Events are meant
/// to arrive in non-decreasing time order (they come from one simulator
/// clock), which lets queries binary-search on time; a late event is clamped
/// to the last accepted time (and counted) instead of corrupting the order.
class EventStore {
 public:
  /// Unbounded by default; give a capacity to keep a rolling window (the
  /// oldest events are discarded first).
  explicit EventStore(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Appends and returns the assigned event id.
  std::uint64_t append(NetworkEvent event);

  /// Events whose time ran backwards and was clamped to keep the store's
  /// binary-searchable time order.
  std::uint64_t clamped() const { return clamped_; }

  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const NetworkEvent& at(std::size_t index) const { return events_[index]; }
  const NetworkEvent* by_id(std::uint64_t id) const;

  /// Events with time in [from, to).
  std::vector<NetworkEvent> query_range(SimTime from, SimTime to) const;

  /// Events of a given type in [from, to).
  std::vector<NetworkEvent> query_type(EventType type, SimTime from, SimTime to) const;

  /// Events whose subject equals `subject`, most recent first, up to `limit`.
  std::vector<NetworkEvent> query_subject(const std::string& subject, std::size_t limit) const;

  /// History replay: invokes `visit` for every event in [from, to) in the
  /// original order. Returns the number of events replayed.
  std::size_t replay(SimTime from, SimTime to,
                     const std::function<void(const NetworkEvent&)>& visit) const;

  /// Counts per event type over the whole store.
  std::vector<std::pair<EventType, std::size_t>> histogram() const;

  /// JSON array of events in [from, to) (the WebUI's periodic data fetch).
  std::string to_json(SimTime from, SimTime to) const;

  /// Serializes the whole store to a binary blob (the on-disk database).
  std::vector<std::uint8_t> serialize() const;

  /// Restores a store from serialize() output; nullopt on corrupt input.
  /// Id allocation resumes past the highest restored id.
  static std::optional<EventStore> deserialize(std::span<const std::uint8_t> blob,
                                               std::size_t capacity = 0);

 private:
  /// Index of the first event with time >= t.
  std::size_t lower_bound(SimTime t) const;

  std::size_t capacity_;
  std::uint64_t next_id_ = 1;
  std::uint64_t clamped_ = 0;
  /// Deque so rolling eviction is O(1) pop_front instead of an O(n) erase;
  /// random-access iterators keep the time/id binary searches intact.
  std::deque<NetworkEvent> events_;
};

}  // namespace livesec::mon
