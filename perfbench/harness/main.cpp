// Benchmark program: runs one workload and prints its metrics.
//
//   perfbench --workload cold_scale|online_churn|paper_validate
//                    --seed N --seconds S --trace 0|1
//                    [--smoke 1] [--out-dir DIR]
//
// The last line of standard output is the one-line JSON result; the lines
// before it give the host fingerprint and every measured metric with its
// unit. Exit code 2 on bad arguments.
#include <algorithm>
#include <iostream>

#include "common/args.h"
#include "run.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  const cloudalloc::Args args(argc, argv);
  RunConfig config;
  config.workload = args.get("workload", "");
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.seconds = args.get_double("seconds", 10.0);
  config.trace = args.get_int("trace", 0) != 0;
  config.smoke = args.get_int("smoke", 0) != 0;
  config.out_dir = args.get("out-dir", "");
  config.threads = std::min(4, available_cores());

  void (*workload)(Run&) = nullptr;
  if (config.workload == "cold_scale") workload = run_cold_scale;
  if (config.workload == "online_churn") workload = run_online_churn;
  if (config.workload == "paper_validate") workload = run_paper_validate;
  if (workload == nullptr) {
    std::cerr << "unknown --workload '" << config.workload
              << "' (cold_scale, online_churn, paper_validate)\n";
    return 2;
  }
  Run run(config);
  workload(run);
  return run.report();
}
