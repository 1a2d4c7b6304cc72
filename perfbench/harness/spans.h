// Span tracing for the benchmark program.
//
// Two sources feed the per-layer split:
//   - the benchmark's own spans, recorded around every public call it makes
//     into the library (Tracer below): name, start, end, parent span and
//     the id of the benchmark operation ("run") they belong to;
//   - the library's existing profiler zones (common/prof.h), read back from
//     the profiler's chrome-trace dump, whose parents are recovered from
//     interval nesting on each thread.
// Both are kept in memory for the whole run and written out at its end.
// A span's self time is its duration minus the part of it that its child
// spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double t0_ms = 0.0;
  double t1_ms = 0.0;
  int parent = -1;        ///< index into the same vector; -1 = root
  int run = 0;            ///< benchmark operation id (benchmark spans)
  std::uint64_t tid = 0;  ///< recording thread (profiler zones)
  double duration_ms() const { return t1_ms - t0_ms; }
};

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it. Always in [0, duration].
std::vector<double> self_times(const std::vector<Span>& spans);

/// Sets each span's parent to the innermost span on the same thread whose
/// interval contains it (spans on one thread nest or are disjoint).
void nest_by_thread(std::vector<Span>& spans);

/// Per-name aggregate of a span list.
struct NameTotals {
  int count = 0;
  double total_ms = 0.0;  ///< inclusive
  double self_ms = 0.0;
};
std::map<std::string, NameTotals> totals_by_name(
    const std::vector<Span>& spans, const std::vector<double>& self);

/// Loads a common/prof chrome-trace dump as nested spans. nullopt when the
/// file cannot be read or parsed.
std::optional<std::vector<Span>> load_profiler_dump(const std::string& path);

/// In-memory recorder of the benchmark's own spans. Disabled tracers record
/// nothing, so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  void set_enabled(bool on) { enabled_ = on; }
  /// Operation id stamped on spans opened from now on.
  void set_run(int run) { run_ = run; }

  /// RAII span: [construction, destruction), child of the innermost span
  /// open when it was constructed.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Tracer* tracer_;  ///< nullptr when the tracer was disabled
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now_ms() const;

  bool enabled_;
  int run_ = 0;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
