// The campus benchmark program.
//
//   campus_bench --workload <campus_mixed|inspect_bulk|controller_churn>
//                --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0: builds the deployment seven times (set-up time is their
// median), then runs whole rounds of the workload until --seconds of wall
// time have passed, drains, checks the outputs and prints the end-to-end
// metrics. --trace 1: the same untraced run, then a second deployment from
// the same seed runs the same number of rounds with every shim recording
// spans, then a third, untraced again; prints the per-layer metrics and the
// tracing overhead, and writes the spans to --trace-out.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "workload.h"

using namespace campusbench;

namespace {

using Clock = std::chrono::steady_clock;
constexpr int kSetupRepeats = 7;
constexpr int kWindows = 20;
constexpr std::size_t kSpansWritten = 1'000'000;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Machine-speed probe. The host this benchmark was tuned on changes speed
/// by up to 1.7x from minute to minute, for every workload alike, so a wall
/// rate alone cannot tell two commits apart. The probe is a fixed mix of
/// dependent arithmetic and random reads over a 16 MB table. An untimed pass
/// over the whole table precedes each timed probe, so the probe starts from
/// the same cache state whatever the program's last window evicted. Gated
/// figures are scaled by kReferenceProbeRate / measured probe rate.
class SpeedProbe {
 public:
  /// Table accesses per second over one probe of about 30 ms.
  double rate() {
    std::uint64_t warm = 0;
    for (std::uint64_t& slot : table_) warm += slot;
    sink_ = warm;
    const auto start = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    std::uint64_t acc = 0;
    for (int i = 0; i < kAccesses; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::uint64_t& slot = table_[x & (table_.size() - 1)];
      slot += x;
      acc += slot * 31 + (acc >> 3);
    }
    sink_ = acc;
    return kAccesses / seconds_since(start);
  }

 private:
  static constexpr int kAccesses = 1'200'000;
  std::vector<std::uint64_t> table_ = std::vector<std::uint64_t>(std::size_t{1} << 21);
  volatile std::uint64_t sink_ = 0;
};

/// Fixed probe rate the gated figures are scaled to: they read in ops/s
/// and s as on a machine whose probe reads this rate.
constexpr double kReferenceProbeRate = 4.0e7;

struct Measured {
  std::uint64_t rounds = 0;
  std::uint64_t ops = 0;
  /// Wall time of the rounds, probes excluded.
  double wall_s = 0;
  /// Operations per second in each of kWindows equal parts of the run, and
  /// the probe rate taken right after each part.
  std::vector<double> window_rates;
  std::vector<double> probe_rates;

  /// Median window rate, scaled to the reference speed by the median probe
  /// rate: a passing stall moves neither median, and one noisy probe does
  /// not move the scale.
  double scaled_ops_per_s() const {
    return percentile(window_rates, 0.5) * kReferenceProbeRate / percentile(probe_rates, 0.5);
  }
};

/// Runs whole rounds until `seconds` of wall time have passed, or exactly
/// `rounds` rounds when `rounds` is nonzero. With a probe, the machine speed
/// is probed after each window, outside the timed rounds.
Measured measure(Workload& w, double seconds, std::uint64_t rounds, SpeedProbe* probe) {
  Measured m;
  const double window = seconds / kWindows;
  auto window_start = Clock::now();
  std::uint64_t window_ops = 0;
  for (;;) {
    m.ops += w.run_round();
    w.sample();
    ++m.rounds;
    const double in_window = seconds_since(window_start);
    const bool last = rounds != 0 ? m.rounds >= rounds : m.wall_s + in_window >= seconds;
    if (in_window >= window || last) {
      m.wall_s += in_window;
      m.window_rates.push_back(static_cast<double>(m.ops - window_ops) / in_window);
      if (probe != nullptr) m.probe_rates.push_back(probe->rate());
      window_ops = m.ops;
      window_start = Clock::now();
    }
    if (last) break;
  }
  return m;
}

std::unique_ptr<Workload> make(const std::string& workload, std::uint64_t seed, Tracer* tracer) {
  if (workload == "campus_mixed") return make_campus_mixed(seed, tracer);
  if (workload == "inspect_bulk") return make_inspect_bulk(seed, tracer);
  if (workload == "controller_churn") return make_controller_churn(seed, tracer);
  return nullptr;
}

void print_metric(const Metric& m) {
  std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Checks& checks, std::uint64_t attempted,
                  const std::vector<Metric>& metrics) {
  for (const std::string& name : checks.failed) std::printf("check FAILED %s\n", name.c_str());
  for (const std::string& name : checks.known_faults) {
    std::printf("check FAILED %s (known program fault, its operations counted as failed)\n",
                name.c_str());
  }
  if (checks.failed.empty()) std::printf("outputs correct\n");
  std::printf("operations attempted %llu failed %llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(checks.failed_ops));
  std::string json = "{\"correct\": ";
  json += checks.failed.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(checks.failed_ops);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Per-layer metrics of the traced deployment over its measured rounds
/// (trace.overhead_ratio is added by the caller).
std::vector<Metric> layer_metrics(const Workload& w, const std::vector<Metric>& before,
                                  const std::vector<Metric>& after,
                                  const std::vector<Tracer::Totals>& spans,
                                  std::uint64_t sim_events, std::uint64_t packets) {
  std::map<std::string, double> delta;
  for (std::size_t i = 0; i < after.size(); ++i) {
    delta[after[i].name] = after[i].value - before[i].value;
  }
  const auto span = [&spans](SpanName n) { return spans[static_cast<std::size_t>(n)]; };
  const auto ratio = [](double hits, double misses) {
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  };

  std::vector<Metric> out;
  const Tracer::Totals sim = span(SpanName::kSimRun);
  out.push_back({"sim.run_s", sim.total_s, "s"});
  out.push_back({"sim.events", double(sim_events), "count"});
  out.push_back({"sim.residual_s", sim.self_s, "s"});
  out.push_back({"sim.events_per_packet", packets > 0 ? double(sim_events) / double(packets) : 0.0,
                 "ratio"});
  for (const Metric& m : after) {
    if (m.name.rfind("openflow.", 0) == 0) out.push_back({m.name, delta[m.name], m.unit});
  }
  for (const Metric& m : w.levels()) {
    if (m.name.rfind("openflow.", 0) == 0) out.push_back(m);
  }
  const Tracer::Totals control = span(SpanName::kSwitchControl);
  out.push_back({"switching.control.calls", double(control.calls), "count"});
  out.push_back({"switching.control_s", control.self_s, "s"});
  for (const char* name :
       {"switching.packets_forwarded", "switching.packet_ins", "switching.legacy_floods"}) {
    out.push_back({name, delta[name], "count"});
  }
  const Tracer::Totals packet_in = span(SpanName::kControllerPacketIn);
  out.push_back({"controller.packet_in.calls", double(packet_in.calls), "count"});
  out.push_back({"controller.packet_in.self_s", packet_in.self_s, "s"});
  out.push_back({"controller.decision_cache.hit_ratio",
                 ratio(delta["controller.decision_cache.hits"],
                       delta["controller.decision_cache.misses"]),
                 "ratio"});
  for (const char* name : {"controller.flows_installed", "controller.flows_offloaded",
                           "controller.setups_suppressed"}) {
    out.push_back({name, delta[name], "count"});
  }
  const Tracer::Totals replicate = span(SpanName::kHaReplicate);
  out.push_back({"ha.replicate.calls", double(replicate.calls), "count"});
  out.push_back({"ha.replicate_s", replicate.self_s, "s"});
  for (const char* name : {"ha.records", "ha.records_coalesced", "ha.frames", "ha.deliveries"}) {
    out.push_back({name, delta[name], "count"});
  }
  for (const Metric& m : w.levels()) {
    if (m.name.rfind("ha.", 0) == 0) out.push_back(m);
  }
  out.push_back({"services.se.packets", delta["services.se.packets"], "count"});
  out.push_back({"services.se.bytes", delta["services.se.bytes"], "bytes"});
  out.push_back({"services.verdict_cache.hit_ratio",
                 ratio(delta["services.verdict_cache.hits"],
                       delta["services.verdict_cache.misses"]),
                 "ratio"});
  const Tracer::Totals query = span(SpanName::kMonitorQuery);
  out.push_back({"monitor.events_ingested", delta["monitor.events_ingested"], "count"});
  out.push_back({"monitor.query.calls", double(query.calls), "count"});
  out.push_back({"monitor.query_s", query.self_s, "s"});
  out.push_back({"net.packets_delivered", delta["net.packets_delivered"], "count"});
  out.push_back({"scenario.generate_s", span(SpanName::kScenarioGenerate).self_s, "s"});
  out.push_back({"setup.build_s", w.setup_times().build_s, "s"});
  out.push_back({"setup.settle_s", w.setup_times().settle_s, "s"});
  out.push_back({"setup.learn_s", w.setup_times().learn_s, "s"});
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: campus_bench --workload <campus_mixed|inspect_bulk|controller_churn> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
  }
  if (workload != "campus_mixed" && workload != "inspect_bulk" && workload != "controller_churn") {
    return usage();
  }
  if (seconds <= 0 || (trace != 0 && trace != 1)) return usage();

  // Untraced run: several set-ups (the last one is kept), each followed by a
  // probe, then whole rounds for the requested wall time.
  Checks checks;
  SpeedProbe probe;
  std::vector<double> setups;
  std::vector<double> setup_probes;
  std::unique_ptr<Workload> w;
  for (int k = 0; k < kSetupRepeats; ++k) {
    w.reset();
    w = make(workload, seed, nullptr);
    setups.push_back(w->setup_times().total());
    setup_probes.push_back(probe.rate());
  }
  const double setup_rss = peak_rss_mb();
  const std::uint64_t warm_ops = w->warm_up();
  w->begin_measure();
  const Measured plain = measure(*w, seconds, 0, &probe);
  w->finish(checks);
  if (trace == 0) {
    std::printf("rounds %llu  wall %.3f s\n", static_cast<unsigned long long>(plain.rounds),
                plain.wall_s);
    for (const Metric& d : w->detail(plain.wall_s)) print_metric(d);
    print_metric({"setup_rss_mb", setup_rss, "MB"});
    print_metric({"peak_rss_mb", peak_rss_mb(), "MB"});
    const double speed = median(plain.probe_rates);
    print_metric({"machine_speed", speed, "accesses/s"});
    print_metric({"ops_per_s_raw", median(plain.window_rates), "ops/s"});
    print_metric({"ops_per_s_whole_run", static_cast<double>(plain.ops) / plain.wall_s, "ops/s"});
    print_metric({"setup_s_raw", median(setups), "s"});
    std::printf("window ops/s");
    for (double r : plain.window_rates) std::printf(" %.0f", r);
    std::printf("\n");
    std::printf("window probe");
    for (double r : plain.probe_rates) std::printf(" %.3g", r);
    std::printf("\n");
    const std::vector<Metric> metrics = {
        {"setup_s", median(setups) * median(setup_probes) / kReferenceProbeRate, "s"},
        {"ops_per_s", plain.scaled_ops_per_s(), "ops/s"},
    };
    for (const Metric& d : metrics) print_metric(d);
    print_result(checks, warm_ops + plain.ops, metrics);
    return 0;
  }
  w.reset();

  // Traced run: the same deployment and inputs, the same number of rounds.
  Tracer tracer;
  w = make(workload, seed, &tracer);
  std::uint64_t attempted = warm_ops + plain.ops + w->warm_up();
  w->begin_measure();
  const std::size_t first_span = tracer.size();
  const std::vector<Metric> before = w->counters();
  const std::uint64_t events_before = w->sim_events();
  const std::uint64_t packets_before = w->packets_delivered();
  const Measured traced = measure(*w, seconds, plain.rounds, nullptr);
  std::vector<Metric> metrics = layer_metrics(*w, before, w->counters(), tracer.totals(first_span),
                                              w->sim_events() - events_before,
                                              w->packets_delivered() - packets_before);
  attempted += traced.ops;
  w->finish(checks);
  for (const Metric& d : w->detail(traced.wall_s)) print_metric(d);
  w.reset();

  // The overhead is taken against a second untraced deployment run after the
  // traced one: the first pass in a process also pays for faulting in the
  // memory its run grows into, which the later passes reuse.
  w = make(workload, seed, nullptr);
  attempted += w->warm_up();
  w->begin_measure();
  const Measured again = measure(*w, seconds, plain.rounds, nullptr);
  attempted += again.ops;
  w->finish(checks);
  metrics.push_back({"trace.overhead_ratio", traced.wall_s / again.wall_s, "ratio"});

  std::printf("rounds %llu  untraced wall %.3f s and %.3f s  traced wall %.3f s  spans %zu\n",
              static_cast<unsigned long long>(plain.rounds), plain.wall_s, again.wall_s,
              traced.wall_s, tracer.size());
  for (const Metric& d : metrics) print_metric(d);
  if (!trace_out.empty()) {
    const std::size_t written = tracer.write(trace_out, kSpansWritten);
    std::printf("spans written %zu of %zu to %s\n", written, tracer.size(), trace_out.c_str());
  }
  print_result(checks, attempted, metrics);
  return 0;
}
