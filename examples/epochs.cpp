// Decision-epoch scenario (Section III): arrival rates follow a diurnal
// pattern with noise; serve::OnlineDriver predicts next-epoch rates (Holt
// double-exponential smoothing), re-prices the clients whose prediction
// drifted, warm-repairs the carried allocation, and falls back to a full
// re-solve when its churn or profit-gap trigger fires. Every client is
// present throughout; predictor drift is the only event source. Each
// epoch the analytic model is cross-checked with the discrete-event
// simulator.
//
//   ./epochs [--clients=40] [--epochs=8] [--seed=3] [--amplitude=0.5]
#include <cmath>
#include <iostream>
#include <vector>

#include "common/args.h"
#include "common/rng.h"
#include "common/table.h"
#include "epoch/predictor.h"
#include "model/feasibility.h"
#include "serve/driver.h"
#include "sim/runner.h"
#include "workload/scenario.h"

using namespace cloudalloc;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  workload::ScenarioParams params;
  params.num_clients = static_cast<int>(args.get_int("clients", 40));
  const int epochs = static_cast<int>(args.get_int("epochs", 8));
  const double amplitude = args.get_double("amplitude", 0.5);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 3));

  const model::Cloud base = workload::make_scenario(params, seed);
  std::vector<model::ClientId> everyone;
  for (model::ClientId i : base.client_ids()) everyone.push_back(i);
  serve::OnlineDriver driver(base, everyone,
                             epoch::HoltPredictor(0.6, 0.3, 1.0));
  Rng rng(seed);

  Table table({"epoch", "mode", "demand_changes", "profit", "rounds",
               "active", "unassigned", "sim_err"});

  auto add_row = [&](const serve::EpochStats& stats) {
    sim::SimOptions sopts;
    sopts.horizon = 250.0;
    sopts.seed = seed + static_cast<std::uint64_t>(stats.epoch);
    // A full re-solve replaces the server's allocation object: look it up
    // again every epoch rather than holding a reference.
    const model::Allocation& allocation = driver.server().allocation();
    const auto sim_report = sim::simulate_allocation(allocation, sopts);
    table.add_row({std::to_string(stats.epoch),
                   stats.full_resolve ? "full" : "warm",
                   std::to_string(stats.demand_changes),
                   Table::num(stats.profit, 1),
                   std::to_string(stats.rounds_run),
                   std::to_string(allocation.num_active_servers()),
                   std::to_string(stats.present - stats.serving),
                   Table::num(sim_report.mean_abs_rel_error, 3)});
  };

  add_row(driver.start());
  for (int epoch = 1; epoch < epochs; ++epoch) {
    // Diurnal demand: a sine over the "day" plus per-client noise.
    const double phase =
        std::sin(2.0 * M_PI * static_cast<double>(epoch) / 8.0);
    std::vector<double> observed;
    for (const auto& c : base.clients()) {
      const double diurnal = 1.0 + amplitude * phase;
      const double noise = rng.uniform(0.9, 1.1);
      observed.push_back(std::max(0.05, c.lambda_agreed * diurnal * noise));
    }
    add_row(driver.step({}, observed));
    if (!model::is_feasible(driver.server().allocation())) {
      std::cout << "epoch " << epoch << ": INFEASIBLE allocation!\n";
      return 1;
    }
  }
  table.print(std::cout);
  std::cout << "\nthe driver warm-repairs through gentle drift, fully "
               "re-solves when many clients\ndrift at once, and the simulator "
               "confirms the analytic response times every epoch.\n";
  return 0;
}
