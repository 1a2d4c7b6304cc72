// Simulated-annealing schedule. The paper names SA as the kind of
// stochastic optimizer one would otherwise need for this non-convex MINLP
// (Section V); baselines/sa_alloc runs that walk on the allocation-state
// engine with this schedule, and bench/tab_stochastic_baselines pits it
// against the heuristic.
#pragma once

namespace cloudalloc::opt {

struct AnnealingOptions {
  double initial_temperature = 1.0;
  double cooling = 0.995;       ///< geometric cooling factor per step
  int steps = 10'000;
  double min_temperature = 1e-6;
};

}  // namespace cloudalloc::opt
