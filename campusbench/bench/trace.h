// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened by the benchmark's own shims around calls into each
// layer's public entry points (nothing inside the library is instrumented).
// Each span keeps its name, start, end and parent; they stay in memory for
// the whole run and are summarised and written out when it ends. A span's
// self time is its duration minus the durations of its direct children.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace campusbench {

enum class SpanName : std::uint8_t {
  kSimRun,             // sim::Simulator::run_until, called by the benchmark
  kControllerPacketIn, // ctrl::Controller::handle_switch_message with a PacketIn
  kControllerMessage,  // ctrl::Controller::handle_switch_message, other messages
  kHaReplicate,        // ha::HaCluster::replicate
  kSwitchControl,      // sw::OpenFlowSwitch::handle_controller_message
  kMonitorQuery,       // mon::WebUi queries
  kScenarioGenerate,   // the benchmark drawing its inputs
  kCount,
};

inline const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kSimRun: return "sim.run";
    case SpanName::kControllerPacketIn: return "controller.packet_in";
    case SpanName::kControllerMessage: return "controller.message";
    case SpanName::kHaReplicate: return "ha.replicate";
    case SpanName::kSwitchControl: return "switching.control";
    case SpanName::kMonitorQuery: return "monitor.query";
    case SpanName::kScenarioGenerate: return "scenario.generate";
    case SpanName::kCount: break;
  }
  return "?";
}

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t parent = kNoParent;
    SpanName name = SpanName::kSimRun;
  };

  struct Totals {
    std::uint64_t calls = 0;
    double total_s = 0;
    double self_s = 0;
  };

  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 20); }

  std::uint32_t begin(SpanName name) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{now_ns(), 0, open_, name});
    open_ = index;
    return index;
  }

  void end(std::uint32_t index) {
    Span& span = spans_[index];
    span.end_ns = now_ns();
    open_ = span.parent;
  }

  /// Per-name call counts, total and self times over the spans recorded
  /// from index `first` on (no span may be open across `first`).
  std::vector<Totals> totals(std::size_t first) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent != kNoParent) child_ns[span.parent] += span.end_ns - span.start_ns;
    }
    std::vector<Totals> out(static_cast<std::size_t>(SpanName::kCount));
    for (std::size_t i = first; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      Totals& t = out[static_cast<std::size_t>(span.name)];
      const std::int64_t duration = span.end_ns - span.start_ns;
      ++t.calls;
      t.total_s += static_cast<double>(duration) * 1e-9;
      t.self_s += static_cast<double>(duration - child_ns[i]) * 1e-9;
    }
    return out;
  }

  std::size_t size() const { return spans_.size(); }

  /// Writes up to `limit` spans as tab-separated text (index, name, start
  /// ns, end ns, parent index or -1). Returns the number written.
  std::size_t write(const std::string& path, std::size_t limit) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return 0;
    std::fprintf(f, "# index\tname\tstart_ns\tend_ns\tparent\n");
    const std::size_t n = spans_.size() < limit ? spans_.size() : limit;
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%lld\n", i, span_name(s.name),
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                   s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent));
    }
    std::fclose(f);
    return n;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::uint32_t open_ = kNoParent;
};

/// Opens a span for its lifetime; does nothing when `tracer` is null (the
/// untraced run).
class Scope {
 public:
  Scope(Tracer* tracer, SpanName name) : tracer_(tracer) {
    if (tracer_ != nullptr) index_ = tracer_->begin(name);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_ = 0;
};

}  // namespace campusbench
