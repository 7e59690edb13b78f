#include "mrf/decompose.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace icsdiv::mrf {

namespace {

/// Small union–find over variable ids.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void merge(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

std::vector<std::vector<VariableId>> mrf_components(const Mrf& mrf) {
  UnionFind uf(mrf.variable_count());
  for (const MrfEdge& edge : mrf.edges()) uf.merge(edge.u, edge.v);

  constexpr std::size_t kNoComponent = static_cast<std::size_t>(-1);
  std::vector<std::size_t> component_of_root(mrf.variable_count(), kNoComponent);
  std::vector<std::vector<VariableId>> components;
  for (VariableId v = 0; v < mrf.variable_count(); ++v) {
    std::size_t& component = component_of_root[uf.find(v)];
    if (component == kNoComponent) {
      component = components.size();
      components.emplace_back();
    }
    components[component].push_back(v);
  }
  return components;
}

SubProblem extract_subproblem(const Mrf& mrf, const std::vector<VariableId>& variables) {
  // Dense parent → sub maps; kUnmapped marks ids outside the subproblem.
  constexpr std::uint32_t kUnmapped = static_cast<std::uint32_t>(-1);
  SubProblem sub;
  sub.parent_variable = variables;

  std::vector<VariableId> to_sub(mrf.variable_count(), kUnmapped);
  for (VariableId parent : variables) {
    const std::size_t labels = mrf.label_count(parent);
    require(to_sub[parent] == kUnmapped, "extract_subproblem", "variable listed twice");
    const VariableId local = sub.mrf.add_variable(labels);
    const auto source = mrf.unary(parent);
    auto target = sub.mrf.unary(local);
    std::copy(source.begin(), source.end(), target.begin());
    to_sub[parent] = local;
  }

  // Copy only the matrices actually referenced, de-duplicated, in
  // first-reference order.
  std::vector<MatrixId> matrix_map(mrf.matrix_count(), kUnmapped);
  for (const MrfEdge& edge : mrf.edges()) {
    const VariableId u = to_sub[edge.u];
    const VariableId v = to_sub[edge.v];
    if (u == kUnmapped && v == kUnmapped) continue;
    require(u != kUnmapped && v != kUnmapped, "extract_subproblem",
            "variable set is not closed under adjacency");
    MatrixId& matrix = matrix_map[edge.matrix];
    if (matrix == kUnmapped) {
      const CostMatrix& m = mrf.matrix(edge.matrix);
      matrix = sub.mrf.add_matrix(m.rows, m.cols, m.data);
    }
    sub.mrf.add_edge(u, v, matrix);
  }
  return sub;
}

SolveResult DecomposedSolver::solve(const Mrf& mrf, const SolveOptions& options) const {
  support::Stopwatch watch;
  const auto components = mrf_components(mrf);

  SolveResult merged;
  merged.labels.assign(mrf.variable_count(), 0);
  merged.energy = 0;
  merged.lower_bound = 0;
  merged.converged = true;

  std::vector<SolveResult> results(components.size());
  const auto solve_component = [&](std::size_t c) {
    SubProblem sub = extract_subproblem(mrf, components[c]);
    results[c] = base_.solve(sub.mrf, options);
    // Write-back is per-component disjoint, so no synchronisation needed.
    for (std::size_t i = 0; i < sub.parent_variable.size(); ++i) {
      merged.labels[sub.parent_variable[i]] = results[c].labels[i];
    }
  };

  if (parallel_ && components.size() > 1) {
    support::global_thread_pool().parallel_for(components.size(), solve_component);
  } else {
    for (std::size_t c = 0; c < components.size(); ++c) solve_component(c);
  }

  for (const SolveResult& r : results) {
    merged.energy += r.energy;
    merged.lower_bound += r.lower_bound;
    merged.iterations = std::max(merged.iterations, r.iterations);
    merged.converged = merged.converged && r.converged;
    merged.truncated = merged.truncated || r.truncated;
  }
  merged.seconds = watch.seconds();
  return merged;
}

}  // namespace icsdiv::mrf
