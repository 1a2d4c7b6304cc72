// One benchmark run: its configuration, operation and check accounting,
// the metrics it measured, and the result it prints.
//
// Every metric the benchmark can report is declared once in metric_specs()
// with its unit and whether it is an end-to-end metric (printed by
// untraced runs) or a per-layer one (printed by traced runs);
// BENCHMARK.json lists the same names and units.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "model/allocation.h"
#include "spans.h"

namespace perfbench {

// The benchmark is a client of every library layer; name them as the library
// does (alloc::, model::, serve::, ...).
using namespace cloudalloc;

enum class MetricKind { kEndToEnd, kPerLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  MetricKind kind;
};

const std::vector<MetricSpec>& metric_specs();

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a single pass: the benchmark's own tests.
  bool smoke = false;
  /// Directory for the span and profiler dumps; empty = write none.
  std::string out_dir;
  /// Solver threads: min(4, cores available to this process).
  int threads = 1;
};

/// Wall-clock seconds since construction.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double ms() const { return seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);

class Run {
 public:
  explicit Run(RunConfig config);

  const RunConfig& config() const { return config_; }
  Tracer& tracer() { return tracer_; }

  /// True once the measuring window (--seconds from the first operation)
  /// has elapsed.
  bool time_up() const;
  void start_clock() { window_ = Stopwatch(); }

  /// Operation accounting. Each check that fails marks the current
  /// operation failed; a run never stops on a failed check.
  void begin_op();
  void fail(const std::string& what);
  /// A count that differed between repeats of the same operation:
  /// a failed operation, and the run's result is not correct.
  void nondeterministic(const std::string& what);

  /// Audits an allocation: feasible, and `reported_profit` equal to the
  /// model's recomputed profit within 1e-9 relative. Returns whether the
  /// allocation is feasible.
  bool check_allocation(const model::Allocation& alloc,
                        double reported_profit, const char* what);

  /// Turns the benchmark's own spans and the library's profiler zones on or off
  /// (traced runs alternate traced and untraced operations).
  void set_traced(bool on);

  /// Set-up time of the workload's inputs, in seconds. It is steady within
  /// one process but not between processes of the same binary: building the
  /// 300-client cold_scale smoke instance took either about 60 or about
  /// 87 us, about a third of processes the former, whatever the CPU or
  /// address-space layout. So 5 child processes each take the median of
  /// repeated set-ups on fresh memory, and this returns the mean of the
  /// five. Then `setup` runs once more here, to build the inputs this
  /// process measures. Call before any thread has started.
  double time_setup(const std::function<void()>& setup);

  void set(const std::string& name, double value);
  /// Records the samples behind a timing metric; report() prints their
  /// count, minimum, median and maximum.
  void samples(const std::string& name, const std::vector<double>& values);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;

  /// Fills the profiler-zone self-time metrics (per traced operation), the
  /// benchmark-span metrics and the tracing overhead (traced minus untraced
  /// time of the same work, and the untraced time it is a share of), and
  /// writes the span dump.
  void finish_trace(int traced_ops, double overhead_ms, double untraced_ms);

  /// Prints the host fingerprint, every measured metric with its unit, and
  /// the final one-line JSON result. Returns the process exit code.
  int report();

 private:
  RunConfig config_;
  Tracer tracer_;
  Stopwatch window_;
  int attempted_ = 0;
  int failed_ = 0;
  bool op_failed_ = false;
  bool correct_ = true;
  int messages_ = 0;
  double profit_drift_ = 0.0;
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::vector<double>>> samples_;
};

/// Host fingerprint as one JSON object (CPU model, cores, compiler, SIMD
/// lane width, solver threads, oversubscription flag).
std::string host_fingerprint(const RunConfig& config);

/// Cores this process may run on.
int available_cores();

void run_cold_scale(Run& run);
void run_online_churn(Run& run);
void run_paper_validate(Run& run);

}  // namespace perfbench
