#include "mrf/decompose.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

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

  std::unordered_map<std::size_t, std::size_t> root_to_component;
  std::vector<std::vector<VariableId>> components;
  for (VariableId v = 0; v < mrf.variable_count(); ++v) {
    const std::size_t root = uf.find(v);
    auto [it, inserted] = root_to_component.try_emplace(root, components.size());
    if (inserted) components.emplace_back();
    components[it->second].push_back(v);
  }
  return components;
}

SubProblem extract_subproblem(const Mrf& mrf, const std::vector<VariableId>& variables) {
  SubProblem sub;
  sub.parent_variable = variables;

  std::unordered_map<VariableId, VariableId> to_sub;
  to_sub.reserve(variables.size());
  for (VariableId parent : variables) {
    const VariableId local = sub.mrf.add_variable(mrf.label_count(parent));
    const auto source = mrf.unary(parent);
    auto target = sub.mrf.unary(local);
    std::copy(source.begin(), source.end(), target.begin());
    to_sub.emplace(parent, local);
  }

  // Copy only the matrices actually referenced, de-duplicated.
  std::unordered_map<MatrixId, MatrixId> matrix_map;
  for (const MrfEdge& edge : mrf.edges()) {
    const auto u_it = to_sub.find(edge.u);
    const auto v_it = to_sub.find(edge.v);
    if (u_it == to_sub.end() && v_it == to_sub.end()) continue;
    require(u_it != to_sub.end() && v_it != to_sub.end(), "extract_subproblem",
            "variable set is not closed under adjacency");
    auto [m_it, inserted] = matrix_map.try_emplace(edge.matrix, 0);
    if (inserted) {
      const CostMatrix& m = mrf.matrix(edge.matrix);
      m_it->second = sub.mrf.add_matrix(m.rows, m.cols, m.data);
    }
    sub.mrf.add_edge(u_it->second, v_it->second, m_it->second);
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
