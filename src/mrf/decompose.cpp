#include "mrf/decompose.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

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

constexpr std::uint32_t kUnmapped = static_cast<std::uint32_t>(-1);

/// The one way to build a sub-MRF: the constructor adds `variables` in
/// order, then add() appends parent edges, which callers pass in parent
/// order, copying each matrix once, in first-reference order.  `to_sub`
/// maps every endpoint to its index in `variables`.  Edges come one at a
/// time so that extract_subproblem adds each as it validates it, in its
/// one pass over the parent's edge records.
class SubProblemBuilder {
 public:
  SubProblemBuilder(const Mrf& mrf, const std::vector<VariableId>& variables,
                    const std::vector<VariableId>& to_sub)
      : mrf_(mrf), to_sub_(to_sub), matrix_map_(mrf.matrix_count(), kUnmapped) {
    sub_.parent_variable = variables;
    for (VariableId parent : variables) {
      const VariableId local = sub_.mrf.add_variable(mrf.label_count(parent));
      const auto source = mrf.unary(parent);
      auto target = sub_.mrf.unary(local);
      std::copy(source.begin(), source.end(), target.begin());
    }
  }

  void add(const MrfEdge& edge) {
    MatrixId& matrix = matrix_map_[edge.matrix];
    if (matrix == kUnmapped) {
      const CostMatrix& m = mrf_.matrix(edge.matrix);
      matrix = sub_.mrf.add_matrix(m.rows, m.cols, m.data);
    }
    sub_.mrf.add_edge(to_sub_[edge.u], to_sub_[edge.v], matrix);
  }

  [[nodiscard]] SubProblem take() { return std::move(sub_); }

 private:
  const Mrf& mrf_;
  const std::vector<VariableId>& to_sub_;
  std::vector<MatrixId> matrix_map_;  ///< parent matrix → sub matrix
  SubProblem sub_;
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
  // Dense parent → sub map; kUnmapped marks ids outside the subproblem.
  std::vector<VariableId> to_sub(mrf.variable_count(), kUnmapped);
  for (std::size_t i = 0; i < variables.size(); ++i) {
    (void)mrf.label_count(variables[i]);  // throws on an out-of-range id
    require(to_sub[variables[i]] == kUnmapped, "extract_subproblem", "variable listed twice");
    to_sub[variables[i]] = static_cast<VariableId>(i);
  }
  SubProblemBuilder builder(mrf, variables, to_sub);
  for (const MrfEdge& edge : mrf.edges()) {
    const VariableId u = to_sub[edge.u];
    const VariableId v = to_sub[edge.v];
    if (u == kUnmapped && v == kUnmapped) continue;
    require(u != kUnmapped && v != kUnmapped, "extract_subproblem",
            "variable set is not closed under adjacency");
    builder.add(edge);
  }
  return builder.take();
}

SolveResult DecomposedSolver::solve(const Mrf& mrf, const SolveOptions& options) const {
  support::Stopwatch watch;
  const auto components = mrf_components(mrf);

  // One pass for every component: each variable's component and index in
  // it, then the edge ids counting-sorted by component in parent order.
  std::vector<std::uint32_t> component_of(mrf.variable_count());
  std::vector<VariableId> to_sub(mrf.variable_count());
  for (std::size_t c = 0; c < components.size(); ++c) {
    for (std::size_t i = 0; i < components[c].size(); ++i) {
      component_of[components[c][i]] = static_cast<std::uint32_t>(c);
      to_sub[components[c][i]] = static_cast<VariableId>(i);
    }
  }
  const auto edges = mrf.edges();
  std::vector<std::size_t> bucket_offset(components.size() + 1, 0);
  for (const MrfEdge& edge : edges) ++bucket_offset[component_of[edge.u] + 1];
  for (std::size_t c = 0; c < components.size(); ++c) bucket_offset[c + 1] += bucket_offset[c];
  std::vector<std::uint32_t> edge_ids(edges.size());
  {
    std::vector<std::size_t> cursor(bucket_offset.begin(), bucket_offset.end() - 1);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      edge_ids[cursor[component_of[edges[e].u]]++] = static_cast<std::uint32_t>(e);
    }
  }

  SolveResult merged;
  merged.labels.assign(mrf.variable_count(), 0);
  merged.energy = 0;
  merged.lower_bound = 0;
  merged.converged = true;

  std::vector<SolveResult> results(components.size());
  const auto solve_component = [&](std::size_t c) {
    SubProblemBuilder builder(mrf, components[c], to_sub);
    for (std::size_t b = bucket_offset[c]; b < bucket_offset[c + 1]; ++b) {
      builder.add(edges[edge_ids[b]]);
    }
    SubProblem sub = builder.take();
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
