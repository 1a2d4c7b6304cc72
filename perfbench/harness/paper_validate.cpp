// paper_validate: the paper's Section VI family (200 clients, 5 clusters x
// 35 servers, 10 server classes, 5 utility classes) over several instance
// seeds, with the default AllocatorOptions (3 starts, sequential greedy,
// local search until steady). Each instance is one decision epoch: the
// message-passing dist::DistributedAllocator solves it and
// sim::run_replications serves the allocation it returned. Each instance
// is also solved at 1 thread. Passes over the instance set repeat
// closed-loop until the measuring window has passed; every repeat must
// reproduce the first pass's counts exactly (wire bytes aside, see below).
#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "dist/manager.h"
#include "run.h"
#include "sim/replication.h"
#include "workload/scenario.h"

namespace perfbench {

namespace {

constexpr int kClients = 200;
constexpr int kSmokeClients = 30;
constexpr int kInstances = 6;
constexpr int kSmokeInstances = 2;
constexpr int kReplications = 8;
constexpr double kSmokeHorizon = 100.0;
constexpr int kMinPasses = 2;
/// Solves of each instance per pass, at each thread count.
constexpr int kSolveRepeats = 3;

/// What one instance produced; must repeat exactly on every pass. The
/// wire byte count is kept apart: it is checked on its own (see below).
struct InstanceRecord {
  double profit = 0.0;
  int served = 0;
  int rounds = 0;
  std::size_t messages = 0;
  int responses_missed = 0;
  std::size_t stale_messages = 0;
  std::size_t sim_events = 0;
  double model_error = 0.0;
  bool operator==(const InstanceRecord&) const = default;
};

std::string describe(const InstanceRecord& r) {
  std::ostringstream s;
  s.precision(17);
  s << "profit " << r.profit << ", served " << r.served << ", rounds "
    << r.rounds << ", messages " << r.messages << ", missed "
    << r.responses_missed << ", stale " << r.stale_messages
    << ", sim events " << r.sim_events << ", model error " << r.model_error;
  return s.str();
}

int served_clients(const model::Allocation& alloc) {
  int served = 0;
  for (model::ClientId i : alloc.cloud().client_ids())
    served += alloc.is_assigned(i) ? 1 : 0;
  return served;
}

}  // namespace

void run_paper_validate(Run& run) {
  const RunConfig& cfg = run.config();
  workload::ScenarioParams params;  // the paper's Section VI defaults
  params.num_clients = cfg.smoke ? kSmokeClients : kClients;
  const int instances = cfg.smoke ? kSmokeInstances : kInstances;
  // The instances are pinned (seeds 1..6); the run's seed drives the
  // simulated arrivals.
  const auto instance_seed = [](int k) {
    return static_cast<std::uint64_t>(k + 1);
  };
  const auto sim_seed = [&](int k) {
    return cfg.seed * 1000 + static_cast<std::uint64_t>(k);
  };

  std::vector<model::Cloud> clouds;
  run.set_traced(cfg.trace);
  run.set("setup_s", run.time_setup([&] {
    clouds.clear();
    for (int k = 0; k < instances; ++k) {
      Tracer::Scope span(run.tracer(), "workload.make_scenario");
      clouds.push_back(workload::make_scenario(params, instance_seed(k)));
    }
  }));
  run.set_traced(false);

  dist::DistributedOptions dopts;  // default allocator options
  dopts.alloc.num_threads = cfg.threads;
  dist::DistributedOptions dopts_1t = dopts;
  dopts_1t.alloc.num_threads = 1;
  sim::ReplicationOptions ropts;
  ropts.replications = kReplications;
  ropts.num_threads = cfg.threads;
  if (cfg.smoke) ropts.sim.horizon = kSmokeHorizon;

  const auto solve = [&](const model::Cloud& cloud,
                         const dist::DistributedOptions& o, const char* what,
                         double& seconds) {
    run.begin_op();
    Stopwatch sw;
    dist::DistributedResult result = [&] {
      Tracer::Scope span(run.tracer(), "dist.run");
      return dist::DistributedAllocator(o).run(cloud);
    }();
    seconds = sw.seconds();
    run.check_allocation(result.allocation, result.report.final_profit, what);
    return result;
  };

  std::vector<InstanceRecord> first;
  // Largest wire byte count seen per instance (see the byte check below).
  std::vector<std::size_t> wire_bytes(static_cast<std::size_t>(instances), 0);
  // Solve times per instance; the instances differ several-fold, so a
  // median over all samples would jump between instances.
  const auto per_instance = static_cast<std::size_t>(instances);
  std::vector<std::vector<double>> solve_nt(per_instance);
  std::vector<std::vector<double>> solve_1t(per_instance);
  std::vector<double> epoch_ms, sim_s, overhead_ms;
  std::size_t sim_events_total = 0;
  const int min_passes = cfg.smoke && !cfg.trace ? 1 : kMinPasses;
  run.start_clock();
  // Traced runs trace each instance once in the first two passes, odd
  // instances in the first and even ones in the second, so each instance
  // has a traced and an untraced epoch and warm-up favours neither. Their
  // differences give the tracing overhead.
  for (int pass = 0; pass < min_passes || !run.time_up(); ++pass) {
    for (int k = 0; k < instances; ++k) {
      const model::Cloud& cloud = clouds[static_cast<std::size_t>(k)];
      ropts.sim.seed = sim_seed(k);
      const std::string what = "instance " + std::to_string(k);

      // One decision epoch: distributed solve, then simulated serving.
      const bool traced = cfg.trace && pass < 2 && k % 2 == 1 - pass;
      run.set_traced(traced);
      double solve_seconds = 0.0;
      const dist::DistributedResult result =
          solve(cloud, dopts, what.c_str(), solve_seconds);
      run.begin_op();
      Stopwatch sw;
      const sim::ReplicationReport rep = [&] {
        Tracer::Scope span(run.tracer(), "sim.run_replications");
        return sim::run_replications(result.allocation, ropts);
      }();
      const double sim_seconds = sw.seconds();
      run.set_traced(false);
      if (rep.events_executed == 0 || !std::isfinite(rep.mean_abs_rel_error))
        run.fail(what + ": simulation produced no measurement");

      const dist::DistributedReport& r = result.report;
      const InstanceRecord got{r.final_profit,
                               served_clients(result.allocation),
                               r.rounds_run,
                               r.messages,
                               r.responses_missed,
                               r.stale_messages,
                               rep.events_executed,
                               rep.mean_abs_rel_error};
      if (pass == 0) {
        first.push_back(got);
      } else if (!(got == first[static_cast<std::size_t>(k)])) {
        run.nondeterministic(what + ": " + describe(got) + " vs first pass " +
                             describe(first[static_cast<std::size_t>(k)]));
      }
      // The same messages must carry the same bytes. ChannelTransport adds
      // a frame's bytes to its count only after the frame is in the
      // receiver's mailbox, so under load the manager can return before an
      // agent's last response is counted: a wrong report, not a different
      // solve. It fails the operation; the metric keeps the largest count.
      std::size_t& bytes = wire_bytes[static_cast<std::size_t>(k)];
      if (pass > 0 && r.bytes != bytes)
        run.fail(what + ": wire bytes " + std::to_string(r.bytes) +
                 " vs " + std::to_string(bytes) + " for the same " +
                 std::to_string(r.messages) + " messages");
      bytes = std::max(bytes, r.bytes);
      const double epoch = (solve_seconds + sim_seconds) * 1e3;
      if (cfg.trace && pass == 1)
        overhead_ms.push_back((traced ? 1.0 : -1.0) *
                              (epoch - epoch_ms[static_cast<std::size_t>(k)]));
      sim_s.push_back(sim_seconds);
      epoch_ms.push_back(epoch);
      sim_events_total += rep.events_executed;

      // More solves of the same instance, at N threads and at 1 thread:
      // the same allocation every time, slower or not. A 0.1 s solve needs
      // several samples for a steady median.
      const auto resolve = [&](const dist::DistributedOptions& o,
                               const std::string& label,
                               std::vector<double>& samples) {
        double seconds = 0.0;
        const dist::DistributedResult again =
            solve(cloud, o, label.c_str(), seconds);
        samples.push_back(seconds);
        if (again.report.final_profit != got.profit ||
            again.report.messages != got.messages) {
          std::ostringstream msg;
          msg.precision(17);
          msg << label << ": profit " << again.report.final_profit
              << ", messages " << again.report.messages << " vs "
              << describe(got);
          run.nondeterministic(msg.str());
        }
      };
      auto& nt = solve_nt[static_cast<std::size_t>(k)];
      auto& one = solve_1t[static_cast<std::size_t>(k)];
      nt.push_back(solve_seconds);
      for (int rep_k = 1; rep_k < kSolveRepeats; ++rep_k)
        resolve(dopts, what + " again", nt);
      for (int rep_k = 0; rep_k < kSolveRepeats; ++rep_k)
        resolve(dopts_1t, what + " at 1 thread", one);
    }
  }

  double profit = 0.0, served = 0.0, model_error = 0.0;
  double rounds = 0.0, messages = 0.0, bytes = 0.0, missed = 0.0, stale = 0.0;
  double sim_events = 0.0;
  for (const InstanceRecord& r : first) {
    profit += r.profit;
    served += r.served;
    model_error += r.model_error;
    rounds += r.rounds;
    messages += static_cast<double>(r.messages);
    missed += r.responses_missed;
    stale += static_cast<double>(r.stale_messages);
    sim_events += static_cast<double>(r.sim_events);
  }
  for (std::size_t b : wire_bytes) bytes += static_cast<double>(b);
  double sim_total_s = 0.0;
  for (double s : sim_s) sim_total_s += s;

  const auto mean_of_medians = [&](const std::vector<std::vector<double>>& v) {
    double sum = 0.0;
    for (const std::vector<double>& of_instance : v) sum += median(of_instance);
    return sum / instances;
  };
  for (int k = 0; k < instances; ++k) {
    const std::string instance = " instance " + std::to_string(k + 1);
    run.samples("solve_s" + instance, solve_nt[static_cast<std::size_t>(k)]);
    run.samples("solve_s_1t" + instance, solve_1t[static_cast<std::size_t>(k)]);
  }
  run.samples("epoch_ms", epoch_ms);
  run.set("solve_s", mean_of_medians(solve_nt));
  run.set("solve_s_1t", mean_of_medians(solve_1t));
  run.set("profit", profit / instances);
  run.set("epoch_ms_p50", percentile(epoch_ms, 0.5));
  run.set("epoch_ms_p90", percentile(epoch_ms, 0.9));
  run.set("admit_ratio", served / (instances * params.num_clients));
  run.set("pool.speedup", run.get("solve_s_1t") / run.get("solve_s"));
  run.set("dist.rounds", rounds);
  run.set("dist.messages", messages);
  run.set("dist.wire_bytes", bytes);
  run.set("dist.responses_missed", missed);
  run.set("dist.stale_messages", stale);
  run.set("sim.events", sim_events);
  run.set("sim_events_per_s",
          static_cast<double>(sim_events_total) / sim_total_s);
  run.set("model_error", model_error / instances);
  if (cfg.trace)
    run.finish_trace(instances, median(overhead_ms),
                     median(epoch_ms) - median(overhead_ms));
}

}  // namespace perfbench
