#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace livesec::sim {

namespace {

/// Bucket shift for a mean event separation of `gap` ns: the power of two
/// nearest at or above the gap, so buckets hold about one event each and
/// spliced days need no sorting. Callers pass a separation measured near the
/// head of the queue — sizing from the global span is the classic calendar
/// failure mode: one far-future timer (e.g. a 1 s duration guard) inflates
/// the span, the width balloons, every near event maps to the cursor's day
/// and the queue degenerates into an O(n)-per-push insertion-sorted vector.
std::uint32_t shift_for_gap(std::uint64_t gap) {
  // Round up to the *nearest* power of two (bit_width alone would round a
  // power-of-two gap up a further 2x, doubling bucket occupancy).
  if (gap <= 1) return 0;
  return static_cast<std::uint32_t>(std::bit_width(gap - 1));
}

}  // namespace

void EventQueue::place(Event&& e) {
  const std::uint64_t b = bucket_of(e.time);
  if (b <= day_) {
    // At or before the cursor's day: append to the run; rebuild() sorts the
    // run once after all placements.
    cur_.push_back(std::move(e));
  } else if (b < window_end_) {
    buckets_[b & kMask].push_back(std::move(e));
    occupied_[(b & kMask) >> 6] |= 1ull << (b & 63);
    ++near_count_;
  } else if (b < window_end_ + kBuckets) {
    overflow_.push_back(std::move(e));
  } else {
    far_.push_back(std::move(e));
  }
}

void EventQueue::merge_far() {
  if (far_.size() - far_heap_ > far_heap_) {
    std::make_heap(far_.begin(), far_.end(), Later{});
  } else {
    for (std::size_t n = far_heap_ + 1; n <= far_.size(); ++n) {
      std::push_heap(far_.begin(), far_.begin() + static_cast<std::ptrdiff_t>(n), Later{});
    }
  }
  far_heap_ = far_.size();
}

void EventQueue::take_far() {
  std::pop_heap(far_.begin(), far_.end(), Later{});
  scratch_.push_back(std::move(far_.back()));
  far_.pop_back();
  far_heap_ = far_.size();
}

std::uint32_t EventQueue::dispatch_shift(SimTime head) const {
  const std::uint64_t pops = next_seq_ - size_ - sample_pops_;
  if (pops < kWidthSample) return kNoShift;
  // Pushes into the past (allowed by the queue) can put the head behind the
  // last measurement; that interval carries no density information.
  const std::uint64_t elapsed =
      head > sample_time_ ? static_cast<std::uint64_t>(head - sample_time_) : 0;
  return shift_for_gap(elapsed / pops);
}

void EventQueue::reclaim_run() {
  if (size_ > 0 && dispatch_shift(cur_[pos_ - 1].time) < shift_) {
    rebuild();
    burst_retry_ok_ = true;
    return;
  }
  // Ties, or a width already as fine as the dispatch rate: keep the width,
  // drop the dispatched prefix. Amortized O(1): the pending part moved is no
  // longer than the prefix dropped.
  cur_.erase(cur_.begin(), cur_.begin() + static_cast<std::ptrdiff_t>(pos_));
  pos_ = 0;
}

void EventQueue::rebuild() {
  scratch_.clear();
  for (std::size_t i = pos_; i < cur_.size(); ++i) scratch_.push_back(std::move(cur_[i]));
  cur_.clear();
  pos_ = 0;
  for (std::uint64_t w = 0; w < kWords && near_count_ > 0; ++w) {
    for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
      Bucket& bucket = buckets_[(w << 6) + static_cast<std::uint64_t>(std::countr_zero(bits))];
      near_count_ -= bucket.size();
      for (Event& e : bucket) scratch_.push_back(std::move(e));
      bucket.clear();
    }
  }
  for (std::uint64_t& w : occupied_) w = 0;
  for (Event& e : overflow_) scratch_.push_back(std::move(e));
  overflow_.clear();
  merge_far();

  // Every far-heap event lies past every run, near and overflow event (see
  // the end of this function), so the head of the queue is the earliest of
  // those or the top of the heap.
  SimTime tmin = far_.empty() ? scratch_.front().time : far_.front().time;
  for (const Event& e : scratch_) tmin = std::min(tmin, e.time);

  // Re-measure the dispatch density once enough pops back the estimate.
  if (const std::uint32_t fresh = dispatch_shift(tmin); fresh != kNoShift) {
    dispatch_shift_ = fresh;
    sample_time_ = tmin;
    sample_pops_ = next_seq_ - size_;
  }

  // Take from the far heap what the head sample needs: up to kWidthSample
  // events, stopping at the end of the window the dispatch density implies.
  // scratch_ then holds a prefix of the (time, seq) order, so its
  // kWidthSample earliest events are the queue's.
  const bool measured = dispatch_shift_ != kNoShift;
  const std::uint64_t dispatch_end =
      measured ? (static_cast<std::uint64_t>(tmin) >> dispatch_shift_) + kBuckets : 0;
  while (!far_.empty() && scratch_.size() < kWidthSample &&
         (!measured ||
          (static_cast<std::uint64_t>(far_.front().time) >> dispatch_shift_) < dispatch_end)) {
    take_far();
  }

  // Head-density estimate over the kWidthSample earliest events (all of
  // them if fewer are pending): an O(n) select of the sample's last time
  // gives the head span without sorting the (64-byte) events themselves.
  // When the dispatch window cut the sample short, fewer than kWidthSample
  // events lie inside that window, so the full sample would be the coarser
  // estimate and the dispatch estimate stands alone.
  std::uint32_t shift = dispatch_shift_;
  const std::size_t sample = std::min<std::size_t>(scratch_.size(), kWidthSample);
  if (sample >= 2 && (sample == kWidthSample || far_.empty())) {
    time_scratch_.clear();
    for (const Event& e : scratch_) time_scratch_.push_back(e.time);
    std::nth_element(time_scratch_.begin(),
                     time_scratch_.begin() + static_cast<std::ptrdiff_t>(sample - 1),
                     time_scratch_.end());
    const auto span = static_cast<std::uint64_t>(time_scratch_[sample - 1] - tmin);
    shift = std::min(shift, shift_for_gap(span / (sample - 1)));
  }
  shift_ = shift == kNoShift ? 0 : shift;
  day_ = static_cast<std::uint64_t>(tmin) >> shift_;
  window_end_ = day_ + kBuckets;
  // The far events of this window and the next join them, so the heap again
  // holds only events past everything else.
  while (!far_.empty() && bucket_of(far_.front().time) < window_end_ + kBuckets) take_far();
  for (Event& e : scratch_) place(std::move(e));
  scratch_.clear();
  // place() appended the cursor-day events to the run unsorted; restore the
  // (time, seq) dispatch order. The run holds at most one bucket's worth.
  std::sort(cur_.begin(), cur_.end(), Earlier{});
  // Re-derive the width once the population doubles: a rebuild taken while
  // the workload ramps (a handful of sparse timers at t=0) picks a coarse
  // width that would otherwise stick for the whole window.
  resize_at_ = std::max<std::size_t>(2 * size_, 2 * kWidthSample);
}

}  // namespace livesec::sim
