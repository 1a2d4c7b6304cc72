#include "run.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/json.h"
#include "common/prof.h"
#include "common/simd.h"
#include "model/evaluator.h"
#include "model/feasibility.h"

namespace perfbench {

namespace {

constexpr MetricKind E = MetricKind::kEndToEnd;
constexpr MetricKind L = MetricKind::kPerLayer;

/// Failure messages echoed to stderr per run; the rest are only counted.
constexpr int kMaxMessages = 20;

/// Profiler zone -> per-layer metric of its self time per traced operation.
const std::vector<std::pair<const char*, const char*>>& zone_metrics() {
  static const std::vector<std::pair<const char*, const char*>> map = {
      {"alloc.initial", "alloc.initial.self_ms"},
      {"sharded.price_block", "alloc.sharded.price_block.self_ms"},
      {"sharded.merge_block", "alloc.sharded.merge_block.self_ms"},
      {"alloc.server_power", "alloc.server_power.self_ms"},
      {"alloc.reassign", "alloc.reassign.self_ms"},
      {"reassign.price", "alloc.reassign.price.self_ms"},
      {"reassign.apply", "alloc.reassign.apply.self_ms"},
      {"alloc.adjust_dispersion", "alloc.adjust_dispersion.self_ms"},
      {"alloc.adjust_shares", "alloc.adjust_shares.self_ms"},
      {"serve.step", "serve.step.self_ms"},
      {"serve.apply_events", "serve.apply_events.self_ms"},
      {"serve.warm_repair", "serve.warm_repair.self_ms"},
  };
  return map;
}

/// Benchmark span -> per-layer metric of its median duration.
const std::vector<std::pair<const char*, const char*>>& span_metrics() {
  static const std::vector<std::pair<const char*, const char*>> map = {
      {"dist.run", "dist.run_ms"},
      {"sim.run_replications", "sim.run_ms"},
      {"workload.make_scenario", "workload.scenario_ms"},
      {"workload.make_churn_stream", "workload.churn_ms"},
      {"model.evaluate", "model.evaluate_ms"},
  };
  return map;
}

/// Processes that each measure the set-up time (see Run::time_setup).
constexpr std::size_t kSetupProcesses = 5;

/// Median seconds per repeat of `setup`: at least 3 repeats, then until
/// 0.1 s have been spent or 200 repeats made.
double median_setup(const std::function<void()>& setup) {
  std::vector<double> seconds;
  double total = 0.0;
  while (seconds.size() < 3 || (total < 0.1 && seconds.size() < 200)) {
    Stopwatch sw;
    setup();
    seconds.push_back(sw.seconds());
    total += seconds.back();
  }
  return median(seconds);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model = line.substr(colon + 1);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
  return "unknown";
}

JsonArray spans_json(const std::vector<Span>& spans,
                     const std::vector<double>& self, bool with_tid) {
  JsonArray out;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    JsonObject row{
        {"name", Json(spans[k].name)},
        {"start_ms", Json(spans[k].t0_ms)},
        {"end_ms", Json(spans[k].t1_ms)},
        {"parent", Json(spans[k].parent)},
        {"self_ms", Json(self[k])},
    };
    if (with_tid)
      row.emplace("tid", Json(spans[k].tid));
    else
      row.emplace("run", Json(spans[k].run));
    out.emplace_back(std::move(row));
  }
  return out;
}

}  // namespace

const std::vector<MetricSpec>& metric_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", E},
      {"peak_rss_mb", "MB", E},
      {"solve_s", "s", E},
      {"solve_s_1t", "s", E},
      {"profit", "profit", E},
      {"epoch_ms_p50", "ms", E},
      {"epoch_ms_p90", "ms", E},
      {"admit_ratio", "ratio", E},
      {"alloc.initial.self_ms", "ms", L},
      {"alloc.sharded.price_block.self_ms", "ms", L},
      {"alloc.sharded.merge_block.self_ms", "ms", L},
      {"alloc.server_power.self_ms", "ms", L},
      {"alloc.reassign.self_ms", "ms", L},
      {"alloc.reassign.price.self_ms", "ms", L},
      {"alloc.reassign.apply.self_ms", "ms", L},
      {"alloc.adjust_dispersion.self_ms", "ms", L},
      {"alloc.adjust_shares.self_ms", "ms", L},
      {"serve.step.self_ms", "ms", L},
      {"serve.apply_events.self_ms", "ms", L},
      {"serve.warm_repair.self_ms", "ms", L},
      {"serve.full_solve_ms", "ms", L},
      {"serve.full_resolves", "count", L},
      {"serve.events", "count", L},
      {"serve.admitted", "count", L},
      {"serve.rejected", "count", L},
      {"serve.infeasible_epochs", "count", L},
      {"redirected_per_epoch", "clients", L},
      {"pool.speedup", "x", L},
      {"dist.run_ms", "ms", L},
      {"dist.rounds", "count", L},
      {"dist.messages", "count", L},
      {"dist.wire_bytes", "B", L},
      {"dist.responses_missed", "count", L},
      {"dist.stale_messages", "count", L},
      {"sim.run_ms", "ms", L},
      {"sim.events", "count", L},
      {"sim_events_per_s", "1/s", L},
      {"model_error", "ratio", L},
      {"workload.scenario_ms", "ms", L},
      {"workload.churn_ms", "ms", L},
      {"model.evaluate_ms", "ms", L},
      {"model.profit_drift", "ratio", L},
      {"ops_failed_ratio", "ratio", L},
      {"trace.overhead_ms", "ms", L},
      {"trace.overhead_pct", "%", L},
  };
  return specs;
}

double Run::time_setup(const std::function<void()>& setup) {
  std::vector<double> per_process;
  for (std::size_t p = 0; p < kSetupProcesses; ++p) {
    int fds[2];
    if (pipe(fds) != 0) break;
    std::cout.flush();
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      const double s = median_setup(setup);
      _exit(write(fds[1], &s, sizeof s) == sizeof s ? 0 : 1);
    }
    close(fds[1]);
    double s = 0.0;
    const bool got = pid > 0 && read(fds[0], &s, sizeof s) == sizeof s;
    close(fds[0]);
    if (pid > 0) waitpid(pid, nullptr, 0);
    if (got) per_process.push_back(s);
  }
  if (per_process.size() != kSetupProcesses) {
    correct_ = false;
    std::cerr << "set-up measured in " << per_process.size() << " of "
              << kSetupProcesses << " processes\n";
  }
  setup();  // this process's own inputs
  double sum = 0.0;
  for (double s : per_process) sum += s;
  return per_process.empty()
             ? 0.0
             : sum / static_cast<double>(per_process.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

int available_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string host_fingerprint(const RunConfig& config) {
  const int cores = available_cores();
  const Json host(JsonObject{
      {"cpu", Json(cpu_model())},
      {"nproc", Json(cores)},
      {"compiler", Json(std::string("gcc ") + __VERSION__)},
      {"lane_width", Json(simd::active_width())},
      {"threads", Json(config.threads)},
      {"oversubscribed", Json(config.threads > cores)},
  });
  return host.dump();
}

Run::Run(RunConfig config)
    : config_(std::move(config)), tracer_(config_.trace) {
  // Profiler zones run only inside traced operations (set_traced), never
  // because of the environment.
  prof::set_enabled(false);
}

bool Run::time_up() const { return window_.seconds() >= config_.seconds; }

void Run::begin_op() {
  op_failed_ = false;
  tracer_.set_run(attempted_++);
}

void Run::fail(const std::string& what) {
  if (messages_++ < kMaxMessages)
    std::cerr << "check failed [op " << attempted_ - 1 << "]: " << what
              << "\n";
  if (!op_failed_) ++failed_;
  op_failed_ = true;
}

void Run::nondeterministic(const std::string& what) {
  correct_ = false;
  fail("not repeatable: " + what);
}

bool Run::check_allocation(const model::Allocation& alloc,
                           double reported_profit, const char* what) {
  Tracer::Scope span(tracer_, "model.evaluate");
  const std::vector<model::Violation> violations =
      model::check_feasibility(alloc);
  if (!violations.empty()) {
    fail(std::string(what) + ": infeasible allocation (" +
         std::to_string(violations.size()) + " violations, first: " +
         violations.front().describe() + ")");
  }
  const double recomputed = model::profit(alloc);
  const double drift = std::abs(reported_profit - recomputed) /
                       std::max(1.0, std::abs(recomputed));
  profit_drift_ = std::max(profit_drift_, drift);
  if (!(drift <= 1e-9)) {
    std::ostringstream msg;
    msg.precision(17);
    msg << what << ": reported profit " << reported_profit
        << " != recomputed " << recomputed;
    fail(msg.str());
  }
  return violations.empty();
}

void Run::set_traced(bool on) {
  tracer_.set_enabled(on);
  prof::set_enabled(on);
}

void Run::set(const std::string& name, double value) { values_[name] = value; }

void Run::samples(const std::string& name, const std::vector<double>& values) {
  samples_.emplace_back(name, values);
}

bool Run::has(const std::string& name) const { return values_.count(name); }

double Run::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Run::finish_trace(int traced_ops, double overhead_ms,
                       double untraced_ms) {
  set_traced(false);
  set("trace.overhead_ms", overhead_ms);
  set("trace.overhead_pct", 100.0 * overhead_ms / untraced_ms);
  const double per_op = 1.0 / std::max(1, traced_ops);

  std::vector<Span> zones;
  if (!config_.out_dir.empty()) {
    const std::string dump = config_.out_dir + "/prof-" + config_.workload +
                             "-" + std::to_string(config_.seed) + ".json";
    if (prof::dump_chrome_trace(dump)) {
      if (auto loaded = load_profiler_dump(dump)) zones = std::move(*loaded);
    }
  }
  const std::vector<double> zone_self = self_times(zones);
  const auto zone_totals = totals_by_name(zones, zone_self);
  // The profiler keeps a bounded ring per thread; its per-name counters
  // are exact. A dump that misses events would understate self times.
  for (const prof::PhaseRow& row : prof::aggregate()) {
    const auto it = zone_totals.find(row.name);
    const int seen = it == zone_totals.end() ? 0 : it->second.count;
    if (seen != row.count) {
      correct_ = false;
      std::cerr << "profiler dump incomplete for zone " << row.name << ": "
                << seen << " of " << row.count << " events\n";
    }
  }
  for (const auto& [zone, metric] : zone_metrics()) {
    const auto it = zone_totals.find(zone);
    set(metric, it == zone_totals.end() ? 0.0 : it->second.self_ms * per_op);
  }
  const auto full = zone_totals.find("serve.full_solve");
  set("serve.full_solve_ms", full == zone_totals.end()
                                 ? 0.0
                                 : full->second.total_ms / full->second.count);

  const std::vector<Span>& spans = tracer_.spans();
  const std::vector<double> span_self = self_times(spans);
  for (const auto& [span_name, metric] : span_metrics()) {
    std::vector<double> durations;
    for (const Span& s : spans)
      if (s.name == span_name) durations.push_back(s.duration_ms());
    set(metric, median(durations));
  }

  if (config_.out_dir.empty()) return;
  const Json doc(JsonObject{
      {"workload", Json(config_.workload)},
      {"seed", Json(config_.seed)},
      {"host", *Json::parse(host_fingerprint(config_))},
      {"traced_ops", Json(traced_ops)},
      {"spans", Json(spans_json(spans, span_self, false))},
      {"zones", Json(spans_json(zones, zone_self, true))},
  });
  std::ofstream out(config_.out_dir + "/spans-" + config_.workload + "-" +
                    std::to_string(config_.seed) + ".json");
  out << doc.dump() << "\n";
}

int Run::report() {
  set("peak_rss_mb", peak_rss_mb());
  set("model.profit_drift", profit_drift_);
  set("ops_failed_ratio",
      static_cast<double>(failed_) / std::max(1, attempted_));

  std::cout << "host " << host_fingerprint(config_) << "\n"
            << "workload " << config_.workload << " seed " << config_.seed
            << " trace " << (config_.trace ? 1 : 0) << ": " << attempted_
            << " operations, " << failed_ << " failed\n";

  for (const auto& [name, values] : samples_) {
    if (values.empty()) continue;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "  samples %-28s n=%zu min %.6g median %.6g max %.6g\n",
                  name.c_str(), values.size(),
                  *std::min_element(values.begin(), values.end()),
                  median(values),
                  *std::max_element(values.begin(), values.end()));
    std::cout << line;
  }

  const MetricKind wanted =
      config_.trace ? MetricKind::kPerLayer : MetricKind::kEndToEnd;
  JsonObject metrics;
  for (const MetricSpec& spec : metric_specs()) {
    const bool measured = has(spec.name);
    if (measured) {
      char line[160];
      std::snprintf(line, sizeof(line), "  %-36s %.6g %s\n", spec.name,
                    get(spec.name), spec.unit);
      std::cout << line;
    }
    if (spec.kind != wanted) continue;
    // Every end-to-end metric is measured on every workload; a per-layer
    // metric of a layer this workload does not use reads 0.
    if (!measured && spec.kind == MetricKind::kEndToEnd) {
      correct_ = false;
      std::cerr << "end-to-end metric " << spec.name << " not measured\n";
    }
    metrics.emplace(spec.name, Json(JsonObject{{"value", Json(get(spec.name))},
                                               {"unit", Json(spec.unit)}}));
  }
  const Json result(JsonObject{
      {"correct", Json(correct_)},
      {"attempted", Json(attempted_)},
      {"failed", Json(failed_)},
      {"metrics", Json(std::move(metrics))},
  });
  std::cout << result.dump() << std::endl;
  return 0;
}

}  // namespace perfbench
