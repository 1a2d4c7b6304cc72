// Constraint checking for allocations, mirroring constraints (3)-(12) of
// the paper. The allocator guarantees feasibility by construction; this
// module provides the independent audit used by tests, the property
// suites, and the examples' final reports.
#pragma once

#include <string>
#include <vector>

#include "model/allocation.h"

namespace cloudalloc::model {

enum class ViolationKind {
  kShareOverflowP,    ///< sum of phi_p on a server exceeds 1      (eq. 4)
  kShareOverflowN,    ///< sum of phi_n on a server exceeds 1      (eq. 5)
  kDiskOverflow,      ///< disk packed on a server exceeds Cm      (eq. 8)
  kPsiNotOne,         ///< client's psi over its cluster not 1     (eq. 6)
  kCrossCluster,      ///< placement outside the assigned cluster  (eq. 6)
  kUnstableQueue,     ///< some slice has arrivals >= service rate (eq. 7)
  kNegativeVariable,  ///< psi/phi below 0                         (eq. 12)
};

struct Violation {
  ViolationKind kind;
  ClientId client = kNoClient;  ///< involved client, if any
  ServerId server = kNoServer;  ///< involved server, if any
  double magnitude = 0.0;       ///< how far past the bound
  std::string describe() const;
};

/// Eq. 7 on one slice of client i at its current predicted rate: service
/// rate minus arrivals on each resource's queue. The slice is stable iff
/// both queues are (queueing::mm1_stable).
struct SliceStability {
  double slack_p = 0.0;  ///< processing queue: mu_p - psi * lambda
  double slack_n = 0.0;  ///< communication queue: mu_n - psi * lambda
  bool stable_p = false;
  bool stable_n = false;
  bool stable() const { return stable_p && stable_n; }
};

SliceStability slice_stability(const Cloud& cloud, ClientId i,
                               const Placement& p);

/// True when every slice in `ps` is stable for client i (the
/// kUnstableQueue test of check_feasibility).
bool slices_stable(const Cloud& cloud, ClientId i,
                   const std::vector<Placement>& ps);

/// Audits the allocation against all model constraints; empty means
/// feasible. `tol` absorbs floating-point slack.
std::vector<Violation> check_feasibility(const Allocation& alloc,
                                         double tol = 1e-6);

/// Convenience for tests.
bool is_feasible(const Allocation& alloc, double tol = 1e-6);

}  // namespace cloudalloc::model
