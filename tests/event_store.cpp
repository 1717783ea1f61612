#include "event_store.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace livesec::mon {

std::uint64_t EventStore::append(NetworkEvent event) {
  // Out-of-order arrivals would silently break every binary-search query in
  // release builds; clamp them to the last accepted time and count it.
  if (!events_.empty() && event.time < events_.back().time) {
    event.time = events_.back().time;
    ++clamped_;
  }
  event.id = next_id_++;
  const std::uint64_t id = event.id;
  if (capacity_ > 0 && events_.size() >= capacity_) {
    events_.pop_front();
  }
  events_.push_back(std::move(event));
  return id;
}

const NetworkEvent* EventStore::by_id(std::uint64_t id) const {
  // Ids are monotone, so binary search works even after rolling eviction.
  auto it = std::lower_bound(events_.begin(), events_.end(), id,
                             [](const NetworkEvent& e, std::uint64_t v) { return e.id < v; });
  if (it == events_.end() || it->id != id) return nullptr;
  return &*it;
}

std::size_t EventStore::lower_bound(SimTime t) const {
  auto it = std::lower_bound(events_.begin(), events_.end(), t,
                             [](const NetworkEvent& e, SimTime v) { return e.time < v; });
  return static_cast<std::size_t>(it - events_.begin());
}

std::vector<NetworkEvent> EventStore::query_range(SimTime from, SimTime to) const {
  std::vector<NetworkEvent> out;
  for (std::size_t i = lower_bound(from); i < events_.size() && events_[i].time < to; ++i) {
    out.push_back(events_[i]);
  }
  return out;
}

std::vector<NetworkEvent> EventStore::query_type(EventType type, SimTime from, SimTime to) const {
  std::vector<NetworkEvent> out;
  for (std::size_t i = lower_bound(from); i < events_.size() && events_[i].time < to; ++i) {
    if (events_[i].type == type) out.push_back(events_[i]);
  }
  return out;
}

std::vector<NetworkEvent> EventStore::query_subject(const std::string& subject,
                                                    std::size_t limit) const {
  std::vector<NetworkEvent> out;
  for (auto it = events_.rbegin(); it != events_.rend() && out.size() < limit; ++it) {
    if (it->subject == subject) out.push_back(*it);
  }
  return out;
}

std::size_t EventStore::replay(SimTime from, SimTime to,
                               const std::function<void(const NetworkEvent&)>& visit) const {
  std::size_t count = 0;
  for (std::size_t i = lower_bound(from); i < events_.size() && events_[i].time < to; ++i) {
    visit(events_[i]);
    ++count;
  }
  return count;
}

std::vector<std::pair<EventType, std::size_t>> EventStore::histogram() const {
  std::map<EventType, std::size_t> counts;
  for (const auto& e : events_) ++counts[e.type];
  return {counts.begin(), counts.end()};
}

namespace {
constexpr std::uint32_t kStoreMagic = 0x4C455644;  // "LEVD"
constexpr std::uint8_t kStoreVersion = 1;
}  // namespace

std::vector<std::uint8_t> EventStore::serialize() const {
  pkt::BufferWriter w;
  w.u32(kStoreMagic);
  w.u8(kStoreVersion);
  w.u64(events_.size());
  for (const NetworkEvent& e : events_) {
    w.u64(e.id);
    w.u64(static_cast<std::uint64_t>(e.time));
    w.u8(static_cast<std::uint8_t>(e.type));
    w.length_prefixed_string(e.subject);
    w.length_prefixed_string(e.detail);
    w.u64(e.dpid);
    w.u64(e.se_id);
    w.u8(e.severity);
    e.flow.encode(w);
  }
  return w.take();
}

std::optional<EventStore> EventStore::deserialize(std::span<const std::uint8_t> blob,
                                                  std::size_t capacity) {
  pkt::BufferReader r(blob);
  if (r.u32() != kStoreMagic || r.u8() != kStoreVersion) return std::nullopt;
  if (!r.ok()) return std::nullopt;
  const std::uint64_t count = r.u64();
  // Every row is at least 42 bytes on the wire; an oversized count prefix is
  // corruption — reject it up front instead of looping (or reserving) on it.
  if (count > r.remaining() / 42) return std::nullopt;
  EventStore store(capacity);
  for (std::uint64_t i = 0; i < count; ++i) {
    NetworkEvent e;
    e.id = r.u64();
    e.time = static_cast<SimTime>(r.u64());
    e.type = static_cast<EventType>(r.u8());
    e.subject = r.length_prefixed_string();
    e.detail = r.length_prefixed_string();
    e.dpid = r.u64();
    e.se_id = r.u64();
    e.severity = r.u8();
    e.flow = pkt::FlowKey::decode(r);
    if (!r.ok()) return std::nullopt;
    if (!store.events_.empty() && e.time < store.events_.back().time) {
      e.time = store.events_.back().time;
      ++store.clamped_;
    }
    if (capacity > 0 && store.events_.size() >= capacity) store.events_.pop_front();
    store.events_.push_back(std::move(e));
    store.next_id_ = std::max(store.next_id_, store.events_.back().id + 1);
  }
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return store;
}

std::string EventStore::to_json(SimTime from, SimTime to) const {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (std::size_t i = lower_bound(from); i < events_.size() && events_[i].time < to; ++i) {
    if (!first) out << ",";
    out << events_[i].to_json();
    first = false;
  }
  out << "]";
  return out.str();
}

}  // namespace livesec::mon
