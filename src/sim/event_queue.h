// Deterministic discrete-event queue — calendar with overflow and far heap.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/inline_function.h"

namespace livesec::sim {

/// A pending simulation event: a callback to run at an absolute sim time.
/// Ties on time are broken by insertion sequence so execution order is fully
/// deterministic regardless of container internals. Sized (with
/// InlineFunction's 40-byte buffer) to exactly one 64-byte cache line.
struct Event {
  SimTime time = 0;
  std::uint64_t seq = 0;
  InlineFunction action;
};

/// Calendar queue with amortized O(1) push/pop, ordered by (time, seq).
///
/// Layout (see DESIGN.md "Simulation kernel fast path"):
///   - sorted run `cur_`: the next batch of due events in ascending
///     (time, seq) order, consumed through cursor `pos_` — pop is one move
///     plus a cursor increment, no heap sift;
///   - near tier: kBuckets unsorted append-only buckets of width 2^shift_ ns
///     covering the window [day_, window_end_) of absolute bucket numbers,
///     with a 1-bit-per-bucket occupancy bitmap;
///   - overflow: one unsorted vector for events in the window after it;
///   - far tier: a (time, seq) min-heap of the events past that.
///
/// Push appends to a bucket, the overflow or the far tier (O(1); far appends
/// join the heap at the next rebuild). When the run is consumed, settle() splices the next few non-empty
/// buckets (found via countr_zero on the bitmap) into a fresh run; at the
/// density-matched bucket width each bucket holds events of a single
/// timestamp already in seq order, so the splice needs no comparison sort.
/// Events pushed at or before the cursor's day (zero-delay self-reschedules)
/// insert into the pending part of the run by binary search. When the near
/// tier drains, the window is rebuilt around the overflow; only the far
/// events the new window covers leave the heap, so far-future timers stay put
/// across windows. A doubled population, an oversized pending run, a run that
/// has dispatched more than it holds, or a bucket that collected a large
/// burst likewise force a rebuild. The width is the finer of two estimates:
/// the mean gap of the kWidthSample earliest pending events, and the mean
/// simulated time per dispatch since the last measurement (which a cluster
/// of far timers inside the head sample cannot stretch). Dispatch order is
/// bit-identical to a (time, seq) min-heap — the property test checks this
/// against ReferenceEventQueue.
///
/// The run, bucket, heap and scratch vectors recycle their capacity, and the
/// run's dispatched prefix is reclaimed once it outgrows the pending part, so
/// a steady-state simulation schedules and dispatches events with zero heap
/// allocations (callbacks permitting, see InlineFunction) in memory
/// proportional to the pending population.
class EventQueue {
 public:
  /// Inserts an event at absolute time `time` (>= 0). Returns the sequence
  /// number assigned (useful for debugging; events cannot be cancelled —
  /// schedule a guard flag instead, which is how timeouts are implemented).
  /// Takes any void() callable; it is constructed directly in its queue slot
  /// (one move total from the caller's argument).
  template <typename F>
  std::uint64_t push(SimTime time, F&& action) {
    assert(time >= 0 && "event times are non-negative");
    const std::uint64_t seq = next_seq_++;
    // The population doubled since the width was last derived: re-derive it.
    // A width picked during ramp-up (a few sparse timers) is far too coarse
    // for the steady-state density, and the window only re-sizes naturally
    // when the near tier drains — which a too-coarse width postpones.
    if (size_ >= resize_at_) {
      rebuild();
      burst_retry_ok_ = true;
    }
    std::uint64_t b = bucket_of(time);
    if (b <= day_ && cur_.size() - pos_ >= kBurstThreshold && burst_retry_ok_) {
      // The pending run has grown far past the splice target: pushes keep
      // landing at or before the cursor's day, i.e. the bucket width is too
      // coarse for the live distribution and every such insert pays an O(n)
      // memmove. Rebuild at the width the current population implies; only
      // retry once a finer width was actually achieved.
      const std::uint32_t old_shift = shift_;
      rebuild();
      burst_retry_ok_ = shift_ < old_shift;
      b = bucket_of(time);
    } else if (b <= day_ && pos_ >= kBurstThreshold && pos_ >= cur_.size() - pos_) {
      // The run has dispatched more than it holds since it was spliced while
      // pushes keep landing in it: its day is too wide for the dispatch rate.
      reclaim_run();
      b = bucket_of(time);
    }
    Event* slot;
    if (b <= day_) {
      // Due at or before the cursor's day (that bucket is already spliced
      // into the run — zero-delay self-reschedules land here): insert into
      // the pending part of the run at its sorted position.
      slot = insert_into_run(time, seq);
    } else if (b < window_end_) {
      Bucket& bucket = buckets_[b & kMask];
      occupied_[(b & kMask) >> 6] |= 1ull << (b & 63);
      ++near_count_;
      slot = &bucket.emplace_back();
    } else if (b < window_end_ + kBuckets) {
      slot = &overflow_.emplace_back();
    } else {
      slot = &far_.emplace_back();
    }
    slot->time = time;
    slot->seq = seq;
    if constexpr (std::is_same_v<std::decay_t<F>, InlineFunction>) {
      slot->action = std::forward<F>(action);
    } else {
      slot->action.emplace(std::forward<F>(action));
    }
    ++size_;
    if (pos_ == cur_.size()) settle();
    return seq;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Events' worth of storage the sorted run retains (its capacity). Stays
  /// proportional to the pending population however long the run lives.
  std::size_t run_capacity() const { return cur_.capacity(); }

  /// Time of the earliest pending event. Precondition: !empty().
  SimTime next_time() const {
    assert(pos_ < cur_.size());
    return cur_[pos_].time;
  }

  /// Removes and returns the earliest pending event by move (no callback
  /// copy). Precondition: !empty().
  Event pop() {
    assert(size_ > 0 && pos_ < cur_.size());
    Event e = std::move(cur_[pos_]);
    ++pos_;
    --size_;
    if (pos_ == cur_.size() && size_ > 0) settle();
    return e;
  }

 private:
  static constexpr std::uint64_t kBuckets = 1024;  // power of two
  static constexpr std::uint64_t kMask = kBuckets - 1;
  static constexpr std::uint64_t kWords = kBuckets / 64;
  static constexpr std::uint64_t kWordMask = kWords - 1;
  /// settle() splices consecutive days until the run holds at least this
  /// many events, amortizing the refill over several pops.
  static constexpr std::size_t kSpliceTarget = 16;
  /// A spliced day larger than this (with a splittable width) triggers a
  /// finer-width rebuild: the day collected a burst denser than the current
  /// calendar resolution. The same threshold caps the pending run length a
  /// push may extend before forcing a rebuild (see push()).
  static constexpr std::size_t kBurstThreshold = 64;
  /// Events sampled from the head of the sorted population to derive the
  /// bucket width at rebuild (their mean gap approximates the density the
  /// window actually serves).
  static constexpr std::size_t kWidthSample = 64;
  /// dispatch_shift() before kWidthSample dispatches were measured.
  static constexpr std::uint32_t kNoShift = 64;

  using Bucket = std::vector<Event>;

  struct Earlier {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };
  /// Heap order for the far tier: std heap algorithms keep the greatest
  /// element on top, so "greater" puts the earliest event there.
  struct Later {
    bool operator()(const Event& a, const Event& b) const { return Earlier{}(b, a); }
  };

  std::uint64_t bucket_of(SimTime time) const {
    return static_cast<std::uint64_t>(time) >> shift_;
  }

  /// Opens an empty slot at the sorted position of (time, seq) in the
  /// pending part of the run, [pos_, cur_.size()). The dispatched prefix
  /// [0, pos_) is never touched, so the cursor stays valid.
  Event* insert_into_run(SimTime time, std::uint64_t seq) {
    const auto it = std::upper_bound(
        cur_.begin() + static_cast<std::ptrdiff_t>(pos_), cur_.end(),
        std::pair<SimTime, std::uint64_t>(time, seq),
        [](const std::pair<SimTime, std::uint64_t>& v, const Event& e) {
          if (v.first != e.time) return v.first < e.time;
          return v.second < e.seq;
        });
    return &*cur_.insert(it, Event{});
  }

  /// Refills the run with the next batch of due events. Precondition:
  /// size_ > 0 and the run is fully consumed (pos_ == cur_.size()).
  /// Inlined: it runs once per ~kSpliceTarget dispatches in steady state.
  void settle() {
    cur_.clear();
    pos_ = 0;
    for (;;) {
      if (near_count_ == 0) {
        if (!cur_.empty()) return;
        // Near tier drained: rebuild the window past it. This is where
        // the bucket width adapts to the workload's event density.
        rebuild();
        burst_retry_ok_ = true;
        if (!cur_.empty()) return;
        continue;
      }
      if (cur_.size() >= kSpliceTarget) return;
      advance_day();
      Bucket& bucket = buckets_[day_ & kMask];
      if (cur_.empty() && burst_retry_ok_ && bucket.size() > kBurstThreshold && shift_ > 0) {
        // One day collected a burst denser than the calendar resolution
        // (e.g. a sparse settle phase fixed a coarse width, then traffic
        // started): redistribute with a finer width. If the global span
        // prevents a finer width, fall through and splice the big day.
        const std::uint32_t old_shift = shift_;
        rebuild();
        burst_retry_ok_ = shift_ < old_shift;
        if (!cur_.empty()) return;
        continue;
      }
      near_count_ -= bucket.size();
      occupied_[(day_ & kMask) >> 6] &= ~(1ull << (day_ & 63));
      const std::size_t first = cur_.size();
      for (Event& e : bucket) cur_.push_back(std::move(e));
      bucket.clear();  // keeps capacity for reuse
      if (shift_ != 0 && cur_.size() - first > 1) {
        // Wide buckets can hold mixed timestamps in push order. At width 1
        // (the steady-state fit) every event in a bucket shares one
        // timestamp and is already in seq order, so no sort is needed —
        // and consecutive days concatenate into a sorted run for free.
        std::sort(cur_.begin() + static_cast<std::ptrdiff_t>(first), cur_.end(), Earlier{});
      }
    }
  }

  /// Advances `day_` to the next non-empty bucket by scanning the occupancy
  /// bitmap (no bucket headers touched). Precondition: near_count_ > 0.
  void advance_day() {
    std::uint64_t p = day_ & kMask;
    std::uint64_t w = occupied_[p >> 6] >> (p & 63);
    if (w != 0) {
      day_ += std::countr_zero(w);
      return;
    }
    // Scan whole words, wrapping once around the ring. The window is exactly
    // kBuckets wide, so every set bit maps to a unique day in
    // [day_, window_end_).
    for (std::uint64_t i = (p >> 6) + 1;; ++i) {
      const std::uint64_t word = occupied_[i & kWordMask];
      if (word != 0) {
        const std::uint64_t pos = ((i & kWordMask) << 6) +
                                  static_cast<std::uint64_t>(std::countr_zero(word));
        day_ += (pos - p) & kMask;
        return;
      }
    }
  }

  /// Routes an event to the run, a near bucket, the overflow, or the far
  /// heap (rebuild only).
  void place(Event&& e);

  /// Folds the events appended to far_ since the last rebuild into its
  /// heap: one push_heap each, or one make_heap when they outnumber the heap
  /// (a bulk of timers scheduled at once), so an append costs amortized O(1).
  void merge_far();

  /// Moves the earliest far-heap event into scratch_. Precondition: far_ is
  /// all heap (merge_far()).
  void take_far();

  /// Collects the run, near tier and overflow, plus the far-heap events the
  /// new window covers, and redistributes them into a fresh window. The width is
  /// the finer of the dispatch-density estimate and the mean gap of the
  /// kWidthSample earliest pending events (head density, not global span —
  /// a lone far-future timer must not widen the buckets).
  void rebuild();

  /// Called when the run's dispatched prefix outgrew its pending part:
  /// rebuilds if the dispatch density now implies a finer width, otherwise
  /// drops the prefix so the run's storage stays proportional to what is
  /// pending.
  void reclaim_run();

  /// Bucket shift matching the mean simulated time per dispatch since the
  /// last measurement, with `head` the current head time; kNoShift until
  /// kWidthSample dispatches have been made since then.
  std::uint32_t dispatch_shift(SimTime head) const;

  std::vector<Event> cur_;                  // sorted run; [0, pos_) dispatched
  std::size_t pos_ = 0;                     // cursor into cur_
  std::vector<Bucket> buckets_{kBuckets};   // near tier, unsorted
  std::vector<Event> overflow_;             // next window, unsorted
  std::vector<Event> far_;                  // beyond: heap by Later, then appends
  std::size_t far_heap_ = 0;                // far_[0, far_heap_) is the heap
  std::vector<Event> scratch_;              // rebuild staging, capacity reused
  std::vector<SimTime> time_scratch_;       // rebuild width sample, capacity reused
  /// One bit per near bucket; set iff the bucket is non-empty. Lets
  /// advance_day() skip empty days with countr_zero over 128 bytes instead
  /// of probing 24KB of bucket headers.
  std::uint64_t occupied_[kWords] = {};

  std::uint32_t shift_ = 0;                 // bucket width = 2^shift_ ns
  std::uint64_t day_ = 0;                   // absolute bucket of the run's tail
  std::uint64_t window_end_ = kBuckets;     // absolute bucket past the window
  std::size_t near_count_ = 0;              // events across buckets_
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;              // pushes so far; pops = next_seq_ - size_
  /// Dispatch-density measurement: head time and pop count when it was last
  /// taken, and the shift it gave (kNoShift until the first measurement).
  SimTime sample_time_ = 0;
  std::uint64_t sample_pops_ = 0;
  std::uint32_t dispatch_shift_ = kNoShift;
  /// Population size that forces a width re-derivation (2x the size at the
  /// last rebuild): keeps a width picked during ramp-up from sticking.
  std::size_t resize_at_ = 2 * kWidthSample;
  /// Cleared when a burst rebuild failed to find a finer width, so a
  /// too-wide-to-split day is spliced as one big run instead of looping.
  bool burst_retry_ok_ = true;
};

}  // namespace livesec::sim
