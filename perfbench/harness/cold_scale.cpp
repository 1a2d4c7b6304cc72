// cold_scale: the bulk-construction path. One cold ResourceAllocator::run
// on the 10k-client scaled fleet (8,750 servers in 88 clusters), pinned to
// instance seed 11 so every solve is checked against the witness profit.
// Each round solves it at the run's thread count and then at 1 thread,
// closed-loop, until the measuring window has passed.
#include <cmath>
#include <optional>
#include <sstream>

#include "alloc/allocator.h"
#include "run.h"
#include "workload/scenario.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kInstanceSeed = 11;
constexpr double kWitnessProfit = 27221.689853031003;  // 10k clients, seed 11
constexpr int kClients = 10000;
constexpr int kSmokeClients = 300;
constexpr int kMinRounds = 3;

struct Outcome {
  double profit = 0.0;
  int unassigned = 0;
  int active_servers = 0;
  int rounds = 0;
  bool operator==(const Outcome&) const = default;
};

std::string describe(const Outcome& o) {
  std::ostringstream s;
  s.precision(17);
  s << "profit " << o.profit << ", unassigned " << o.unassigned
    << ", active servers " << o.active_servers << ", rounds " << o.rounds;
  return s.str();
}

}  // namespace

void run_cold_scale(Run& run) {
  const RunConfig& cfg = run.config();
  const int clients = cfg.smoke ? kSmokeClients : kClients;
  const workload::ScenarioParams params = workload::scaled_params(clients);

  std::optional<model::Cloud> cloud;
  run.set_traced(cfg.trace);
  run.set("setup_s", run.time_setup([&] {
    cloud.reset();
    Tracer::Scope span(run.tracer(), "workload.make_scenario");
    cloud.emplace(workload::make_scenario(params, kInstanceSeed));
  }));
  run.set_traced(false);

  alloc::AllocatorOptions opts;  // the tab_alloc_scale configuration
  opts.num_initial_solutions = 1;
  opts.max_local_search_rounds = 1;
  opts.num_shards = 8;
  opts.cluster_fanout = 4;
  opts.num_threads = cfg.threads;
  alloc::AllocatorOptions opts_1t = opts;
  opts_1t.num_threads = 1;

  std::optional<Outcome> first;
  const auto solve = [&](const alloc::AllocatorOptions& o, bool traced,
                         const char* what) {
    run.begin_op();
    run.set_traced(traced);
    Stopwatch sw;
    alloc::AllocatorResult result = [&] {
      Tracer::Scope span(run.tracer(), "alloc.run");
      return alloc::ResourceAllocator(o).run(*cloud);
    }();
    const double seconds = sw.seconds();
    run.check_allocation(result.allocation, result.report.final_profit, what);
    run.set_traced(false);

    const Outcome got{result.report.final_profit,
                      result.report.unassigned_clients,
                      result.report.active_servers, result.report.rounds_run};
    if (!cfg.smoke && got.profit != kWitnessProfit) {
      std::ostringstream msg;
      msg.precision(17);
      msg << what << ": profit " << got.profit << " != witness "
          << kWitnessProfit;
      run.fail(msg.str());
    }
    if (!first) first = got;
    if (!(got == *first))
      run.nondeterministic(std::string(what) + ": " + describe(got) +
                           " vs first solve " + describe(*first));
    return seconds;
  };

  // Traced runs alternate traced and untraced rounds; the difference of
  // their solve times is the tracing overhead.
  std::vector<double> solve_nt, solve_1t, traced_nt, untraced_nt;
  const int min_rounds = cfg.smoke ? (cfg.trace ? 2 : 1) : kMinRounds;
  run.start_clock();
  for (int round = 0; round < min_rounds || !run.time_up(); ++round) {
    const bool traced = cfg.trace && round % 2 == 1;
    const double nt = solve(opts, traced, "cold solve");
    solve_nt.push_back(nt);
    (traced ? traced_nt : untraced_nt).push_back(nt);
    solve_1t.push_back(solve(opts_1t, false, "cold solve at 1 thread"));
  }

  std::vector<double> epoch_ms;
  for (double s : solve_nt) epoch_ms.push_back(s * 1e3);
  run.samples("solve_s", solve_nt);
  run.samples("solve_s_1t", solve_1t);
  run.set("solve_s", median(solve_nt));
  run.set("solve_s_1t", median(solve_1t));
  run.set("profit", first->profit);
  run.set("epoch_ms_p50", percentile(epoch_ms, 0.5));
  run.set("epoch_ms_p90", percentile(epoch_ms, 0.9));
  run.set("admit_ratio",
          static_cast<double>(clients - first->unassigned) / clients);
  run.set("pool.speedup", median(solve_1t) / median(solve_nt));
  if (cfg.trace)
    run.finish_trace(static_cast<int>(traced_nt.size()),
                     (median(traced_nt) - median(untraced_nt)) * 1e3,
                     median(untraced_nt) * 1e3);
}

}  // namespace perfbench
