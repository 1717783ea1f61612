// The controller's routing table: where every host lives
// (paper §III.C.2: "LiveSec controller will record this location information
// of the fresh host in the routing table ... removed ... due to ARP packet
// timeout").
//
// Campus-at-scale layout (DESIGN.md §9): the table is the controller's
// biggest state component — O(hosts) records for up to millions of hosts —
// and the bottleneck of every packet-in, so it is built as
//
//  - sharded partitions: records live in `shards` independent partitions
//    keyed by MAC hash (the IP secondary index is partitioned the same way
//    by IP hash), so each partition's tables stay small;
//  - arena-backed interned records: each shard stores records in fixed-size
//    chunks addressed by a 32-bit slot handle. Chunks never move, so
//    find() pointers stay valid until the record itself is removed; freed
//    slots are recycled through an intrusive free list;
//  - flat-hash indexes: MAC -> slot, IP -> MAC and dpid -> chain head are
//    open-addressing FlatHashMaps (no per-entry heap nodes);
//  - a per-dpid intrusive chain through the records of each shard, making
//    remove_switch() and size_on_switch() O(hosts-on-that-switch);
//  - an amortized timeout wheel per shard (same technique as
//    of::FlowTable): expire() visits only due deadline buckets instead of
//    scanning every host, and touch()/learn() refresh lazily — a stale
//    wheel record re-files itself when its bucket fires.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/flat_hash.h"
#include "common/ip_address.h"
#include "common/mac_address.h"
#include "common/types.h"

namespace livesec::ctrl {

/// Location record of one periphery host (user machine, SE VM or gateway).
struct HostLocation {
  MacAddress mac;
  Ipv4Address ip;
  DatapathId dpid = 0;    // AS switch the host hangs off
  PortId port = kInvalidPort;  // the Network-Periphery port on that switch
  SimTime first_seen = 0;
  SimTime last_seen = 0;
};

/// MAC-keyed host location map with IP secondary index and idle expiry.
class RoutingTable {
 public:
  static constexpr std::size_t kDefaultShards = 16;

  /// Hosts idle longer than this are expired by expire(); mirrors the ARP
  /// cache timeout of the paper. `shards` is rounded up to a power of two.
  explicit RoutingTable(SimTime host_timeout = 120 * kSecond,
                        std::size_t shards = kDefaultShards);

  RoutingTable(RoutingTable&&) = default;
  RoutingTable& operator=(RoutingTable&&) = default;

  /// Inserts or refreshes a host; returns true when the host is new or moved
  /// to a different attachment point (the caller raises join/move events).
  /// When an IP is re-leased from one MAC to another, the previous holder's
  /// record loses the address (the IP index always names the latest owner).
  bool learn(const MacAddress& mac, Ipv4Address ip, DatapathId dpid, PortId port, SimTime now);

  /// Refreshes last_seen only (any data-plane evidence of liveness). The
  /// timeout wheel is not touched here: the stale wheel record re-files
  /// itself when its bucket fires.
  void touch(const MacAddress& mac, SimTime now);

  /// Pointers remain valid until that host's record is removed (arena
  /// chunks never move), but not across the removal itself.
  const HostLocation* find(const MacAddress& mac) const;
  const HostLocation* find_by_ip(Ipv4Address ip) const;

  /// Removes a specific host (e.g. explicit leave). Returns true if present.
  bool remove(const MacAddress& mac);

  /// Removes all hosts idle past the timeout; returns the removed records.
  /// Cost is proportional to due wheel buckets, not to table size.
  std::vector<HostLocation> expire(SimTime now);

  /// Removes all hosts attached to a dead switch; returns removed records.
  /// O(hosts-on-switch) via the per-dpid chains.
  std::vector<HostLocation> remove_switch(DatapathId dpid);

  std::size_t size() const { return total_; }
  std::vector<HostLocation> all() const;

  /// Visits every record (unordered) without materializing a snapshot.
  template <typename F>
  void for_each(F&& fn) const {
    for (const Shard& shard : shards_) {
      for (std::uint32_t slot = 0; slot < shard.arena_size; ++slot) {
        const Record& rec = record_at(shard, slot);
        if (rec.live) fn(rec.loc);
      }
    }
  }

  /// Bumped whenever a location mapping changes (new host, move, removal,
  /// expiry, or an IP re-lease — anything that can invalidate an IP- or
  /// MAC-keyed decision) — NOT on touch(). Decision caches compare this to
  /// detect that a memoized path went stale.
  std::uint64_t version() const { return version_; }

  // --- scale observability (WebUI, bench_scale, tests) -----------------------
  std::size_t shard_count() const { return shards_.size(); }

  struct ShardStats {
    std::size_t hosts = 0;         // live records in the shard
    std::size_t arena_slots = 0;   // slots ever allocated (live + free)
    std::size_t index_capacity = 0;  // MAC flat-hash slot-array length
    std::size_t wheel_buckets = 0;
    std::size_t bytes = 0;         // arena + index footprint of this shard
  };
  ShardStats shard_stats(std::size_t shard) const;

  /// Hosts currently attached to `dpid` (chain walk, O(result)).
  std::size_t size_on_switch(DatapathId dpid) const;

  /// Total footprint: arenas, MAC/dpid/IP indexes and wheel records.
  std::size_t memory_bytes() const;

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint32_t kChunkSlots = 4096;  // records per arena chunk

  struct Record {
    HostLocation loc;
    std::uint32_t dpid_prev = kNil;  // intrusive per-dpid chain
    std::uint32_t dpid_next = kNil;  // doubles as the free-list link
    /// Epoch of this record's live timer-wheel filing; a fired wheel entry
    /// whose epoch doesn't match is stale (record removed or re-filed).
    std::uint32_t wheel_epoch = 0;
    bool live = false;
  };

  struct Shard {
    FlatHashMap<std::uint64_t, std::uint32_t> by_mac;    // mac48 -> slot
    FlatHashMap<std::uint64_t, std::uint32_t> dpid_head; // dpid -> chain head
    std::vector<std::unique_ptr<Record[]>> chunks;
    std::uint32_t arena_size = 0;  // slots ever allocated
    std::uint32_t free_head = kNil;
    std::size_t live_count = 0;
    /// Timer wheel: quantized deadline -> (slot, epoch) records filed there.
    std::map<SimTime, std::vector<std::pair<std::uint32_t, std::uint32_t>>> wheel;
  };

  Shard& shard_of_mac(std::uint64_t mac48) {
    return shards_[static_cast<std::size_t>(splitmix64(mac48)) & shard_mask_];
  }
  const Shard& shard_of_mac(std::uint64_t mac48) const {
    return shards_[static_cast<std::size_t>(splitmix64(mac48)) & shard_mask_];
  }
  FlatHashMap<std::uint32_t, std::uint64_t>& ip_shard(Ipv4Address ip) {
    return ip_shards_[static_cast<std::size_t>(splitmix64(ip.value())) & shard_mask_];
  }
  const FlatHashMap<std::uint32_t, std::uint64_t>& ip_shard(Ipv4Address ip) const {
    return ip_shards_[static_cast<std::size_t>(splitmix64(ip.value())) & shard_mask_];
  }

  static Record& record_at(Shard& shard, std::uint32_t slot) {
    return shard.chunks[slot / kChunkSlots][slot % kChunkSlots];
  }
  static const Record& record_at(const Shard& shard, std::uint32_t slot) {
    return shard.chunks[slot / kChunkSlots][slot % kChunkSlots];
  }

  std::uint32_t allocate_slot(Shard& shard);
  void free_slot(Shard& shard, std::uint32_t slot);

  void link_dpid(Shard& shard, std::uint32_t slot);
  void unlink_dpid(Shard& shard, std::uint32_t slot);

  /// Quantizes a deadline up to the wheel granularity.
  SimTime wheel_bucket(SimTime deadline) const;
  /// Files (or re-files) the record's wheel entry at its current deadline.
  void file_in_wheel(Shard& shard, std::uint32_t slot);
  /// Fires every due bucket of one shard, collecting expired records.
  void advance_wheel(Shard& shard, SimTime now, std::vector<HostLocation>& removed);

  /// Points the IP index at `mac48`, clearing the address from the previous
  /// holder's record (DHCP re-lease: the index must always name the latest
  /// owner, and the loser's removal must not erase the winner's entry).
  void assign_ip(Ipv4Address ip, std::uint64_t mac48);
  /// Drops the IP index entry only when it still names `mac48`.
  void release_ip(Ipv4Address ip, std::uint64_t mac48);

  /// Shared removal path: unindexes, unlinks and frees one record.
  /// `from_chain_walk` skips the dpid unlink (remove_switch drains chains
  /// wholesale). Does NOT bump version_ — callers batch that.
  HostLocation remove_slot(Shard& shard, std::uint32_t slot, bool from_chain_walk);

  SimTime timeout_;
  SimTime wheel_granularity_;
  std::uint64_t version_ = 0;
  std::size_t total_ = 0;
  std::size_t shard_mask_ = 0;
  std::vector<Shard> shards_;
  /// IP secondary index, partitioned by IP hash: ip -> mac48 of the owner.
  std::vector<FlatHashMap<std::uint32_t, std::uint64_t>> ip_shards_;
};

}  // namespace livesec::ctrl
