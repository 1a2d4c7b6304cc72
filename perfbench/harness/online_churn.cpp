// online_churn: the serving path. A serve::OnlineServer over the 1k-client
// scaled universe (875 servers in 9 clusters), 80% present at epoch 0,
// driven by a seeded churn stream of about 0.9% churn per epoch. Epoch 0
// (start(), a cold solve) is measured separately from the churn epochs;
// every epoch's allocation is audited. A replay of the stream on a fresh
// server then checks that every epoch repeats exactly.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <tuple>

#include "run.h"
#include "serve/online.h"
#include "workload/churn.h"
#include "workload/scenario.h"

namespace perfbench {

namespace {

/// The universe is pinned, like cold_scale's instance: the seed drives the
/// churn stream, so runs with different seeds serve the same fleet.
constexpr std::uint64_t kUniverseSeed = 11;
constexpr int kUniverse = 1000;
constexpr int kSmokeUniverse = 120;
/// Churn epochs per stream: p90 epoch latency needs >= 100 samples.
constexpr int kEpochs = 100;
constexpr int kSmokeEpochs = 8;
/// Cold starts measured at each thread count.
constexpr int kStarts = 10;
/// Epochs the replay always covers, measuring window or not.
constexpr int kMinReplay = 10;

/// What an epoch decided; must repeat exactly when the stream is replayed.
struct EpochRecord {
  double profit = 0.0;
  int admitted = 0;
  int rejected = 0;
  int serving = 0;
  bool full_resolve = false;
  int rounds = 0;
  bool feasible = true;
  bool operator==(const EpochRecord&) const = default;
};

EpochRecord record_of(const serve::EpochStats& s, bool feasible) {
  return {s.profit,       s.admitted,   s.rejected, s.serving,
          s.full_resolve, s.rounds_run, feasible};
}

std::string describe(const EpochRecord& r) {
  std::ostringstream s;
  s.precision(17);
  s << "profit " << r.profit << ", admitted " << r.admitted << ", rejected "
    << r.rejected << ", serving " << r.serving << ", full "
    << r.full_resolve << ", rounds " << r.rounds << ", feasible "
    << r.feasible;
  return s.str();
}

}  // namespace

void run_online_churn(Run& run) {
  const RunConfig& cfg = run.config();
  const int universe_clients = cfg.smoke ? kSmokeUniverse : kUniverse;
  const std::uint64_t stream_seed = cfg.seed + 1;

  workload::ChurnParams churn;
  churn.epochs = cfg.smoke ? kSmokeEpochs : kEpochs;
  churn.initial_clients = universe_clients * 4 / 5;
  churn.arrival_rate = 2.0;
  churn.departure_probability = 0.002;
  churn.demand_change_probability = 0.005;

  std::optional<model::Cloud> universe;
  std::optional<workload::ChurnStream> stream;
  run.set_traced(cfg.trace);
  run.set("setup_s", run.time_setup([&] {
    universe.reset();
    stream.reset();
    {
      Tracer::Scope span(run.tracer(), "workload.make_scenario");
      universe.emplace(workload::make_scenario(
          workload::scaled_params(universe_clients), kUniverseSeed));
    }
    Tracer::Scope span(run.tracer(), "workload.make_churn_stream");
    stream.emplace(workload::make_churn_stream(*universe, churn, stream_seed));
  }));
  run.set_traced(false);

  serve::OnlineOptions opts;  // default resolve triggers
  opts.alloc.num_initial_solutions = 1;
  opts.alloc.max_local_search_rounds = 1;
  opts.alloc.num_shards = 8;
  opts.alloc.cluster_fanout = 4;
  opts.alloc.migration_cost = 2.0;
  opts.alloc.num_threads = cfg.threads;
  serve::OnlineOptions opts_1t = opts;
  opts_1t.alloc.num_threads = 1;

  // --- epoch 0: cold starts ------------------------------------------------
  std::optional<double> start_profit;
  const auto start = [&](const serve::OnlineOptions& o, const char* what) {
    auto server = std::make_unique<serve::OnlineServer>(
        *universe, stream->initially_present, o);
    run.begin_op();
    Stopwatch sw;
    {
      Tracer::Scope span(run.tracer(), "serve.start");
      server->start();
    }
    const double seconds = sw.seconds();
    run.check_allocation(server->allocation(), server->profit(), what);
    if (!start_profit) start_profit = server->profit();
    if (server->profit() != *start_profit) {
      std::ostringstream msg;
      msg.precision(17);
      msg << what << ": profit " << server->profit() << " vs "
          << *start_profit;
      run.nondeterministic(msg.str());
    }
    return std::make_pair(std::move(server), seconds);
  };

  // Cold starts are spread over the run, one pair every few epochs, so
  // their median sees the same host as the epochs do.
  std::vector<double> start_nt, start_1t;
  const auto start_pair = [&] {
    auto [nt, nt_s] = start(opts, "start");
    start_nt.push_back(nt_s);
    start_1t.push_back(start(opts_1t, "start at 1 thread").second);
    return std::move(nt);
  };
  run.start_clock();
  const std::unique_ptr<serve::OnlineServer> server = start_pair();

  // --- churn epochs, closed loop ---------------------------------------------
  const auto step = [&](serve::OnlineServer& s, int e, bool traced) {
    run.begin_op();
    run.set_traced(traced);
    Stopwatch sw;
    serve::EpochStats stats;
    {
      Tracer::Scope span(run.tracer(), "serve.step");
      stats = s.step(stream->epochs[static_cast<std::size_t>(e)]);
    }
    const double ms = sw.ms();
    const std::string what = "epoch " + std::to_string(e + 1);
    const bool feasible =
        run.check_allocation(s.allocation(), s.profit(), what.c_str());
    run.set_traced(false);
    return std::make_tuple(stats, ms, feasible);
  };

  // Traced runs trace every epoch of the first pass; the untraced replay
  // of the same epochs gives the tracing overhead.
  std::vector<EpochRecord> records;
  std::vector<double> epoch_ms;
  int events = 0, admitted = 0, rejected = 0, full_resolves = 0;
  int infeasible = 0;
  double profit_sum = 0.0, redirected = 0.0;
  const int epochs = static_cast<int>(stream->epochs.size());
  const int start_every = std::max(1, epochs / (cfg.smoke ? 1 : kStarts));
  for (int e = 0; e < epochs; ++e) {
    if (e > 0 && e % start_every == 0) start_pair();
    const auto [stats, ms, feasible] = step(*server, e, cfg.trace);
    epoch_ms.push_back(ms);
    records.push_back(record_of(stats, feasible));
    events +=
        static_cast<int>(stream->epochs[static_cast<std::size_t>(e)].size());
    admitted += stats.admitted;
    rejected += stats.rejected;
    full_resolves += stats.full_resolve ? 1 : 0;
    infeasible += feasible ? 0 : 1;
    profit_sum += stats.profit;
    redirected += stats.diff.redirected;
  }

  // --- replay: the same stream on a fresh server repeats every epoch ------
  std::vector<double> overhead_ms;
  {
    auto replay = start(opts, "replay start").first;
    for (int e = 0; e < epochs && (e < kMinReplay || !run.time_up()); ++e) {
      const auto [stats, ms, feasible] = step(*replay, e, false);
      overhead_ms.push_back(epoch_ms[static_cast<std::size_t>(e)] - ms);
      const EpochRecord got = record_of(stats, feasible);
      const EpochRecord& want = records[static_cast<std::size_t>(e)];
      if (!(got == want))
        run.nondeterministic("replayed epoch " + std::to_string(e + 1) +
                             ": " + describe(got) + " vs " + describe(want));
    }
  }

  run.samples("solve_s", start_nt);
  run.samples("solve_s_1t", start_1t);
  run.samples("epoch_ms", epoch_ms);
  run.set("solve_s", median(start_nt));
  run.set("solve_s_1t", median(start_1t));
  run.set("profit", profit_sum / epochs);
  run.set("epoch_ms_p50", percentile(epoch_ms, 0.5));
  run.set("epoch_ms_p90", percentile(epoch_ms, 0.9));
  const int decisions = admitted + rejected;
  run.set("admit_ratio",
          decisions == 0 ? 1.0 : static_cast<double>(admitted) / decisions);
  run.set("redirected_per_epoch", redirected / epochs);
  run.set("serve.full_resolves", full_resolves);
  run.set("serve.events", events);
  run.set("serve.admitted", admitted);
  run.set("serve.rejected", rejected);
  run.set("serve.infeasible_epochs", infeasible);
  run.set("pool.speedup", median(start_1t) / median(start_nt));
  if (cfg.trace)
    run.finish_trace(epochs, median(overhead_ms),
                     median(epoch_ms) - median(overhead_ms));
}

}  // namespace perfbench
