// Two-terminal network reliability on directed graphs.
//
// The BN metric needs P(target compromised | entry compromised) where each
// directed attack edge "fires" independently with its infection rate —
// exactly two-terminal (s,t) reliability.  Exact computation is #P-hard in
// general; our exact engine runs the classic factoring algorithm with
// series/parallel/irrelevant-branch reductions, which handles the
// case-study-sized attack DAGs (tens of edges) instantly.  Larger attack
// DAGs go to CompiledReliability's Monte-Carlo sampler (compiled.hpp),
// which the tests cross-validate against this engine.
#pragma once

#include <cstdint>
#include <vector>

#include "support/error.hpp"

namespace icsdiv::bayes {

/// A directed edge that works with probability `probability`.
struct ReliabilityEdge {
  std::uint32_t from;
  std::uint32_t to;
  double probability;
};

struct ReliabilityProblem {
  std::size_t node_count = 0;
  std::vector<ReliabilityEdge> edges;
  std::uint32_t source = 0;
  std::uint32_t target = 0;

  void validate() const;
};

/// Exact s→t connectivity probability via factoring + reductions.  Throws
/// Infeasible when the reduced problem still exceeds `max_edges` (the
/// factoring recursion is exponential in the residual edge count).
[[nodiscard]] double reliability_exact(const ReliabilityProblem& problem,
                                       std::size_t max_edges = 40);

}  // namespace icsdiv::bayes
