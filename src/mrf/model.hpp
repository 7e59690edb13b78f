// Discrete pairwise Markov Random Field (Section V).
//
// The diversification problem is compiled into a pairwise MRF: one
// variable per (host, service) with its candidate products as labels,
// unary costs φ(·) encoding preferences/constraints (Eq. 2), and pairwise
// costs ψ(·,·) encoding the vulnerability similarity between the products
// assigned to connected hosts (Eq. 3).  The energy to minimise is Eq. 1:
//
//   E = Σ_i φ_i(x_i) + Σ_{(i,j)∈E} ψ_ij(x_i, x_j)
//
// Pairwise costs are shared matrices: every edge of service `s` points at
// the same similarity matrix, so model memory is dominated by messages,
// not potentials — essential for the paper's 240 000-edge instances.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/error.hpp"

namespace icsdiv::mrf {

using VariableId = std::uint32_t;
using Label = std::uint16_t;
using Cost = double;
using MatrixId = std::uint32_t;

/// Cost used to encode hard-forbidden assignments; large but finite so
/// message arithmetic stays well-behaved.
inline constexpr Cost kForbidden = 1e9;

/// A shared pairwise cost matrix, row-major: cost(a, b) = data[a*cols + b].
struct CostMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<Cost> data;

  [[nodiscard]] Cost at(std::size_t a, std::size_t b) const { return data[a * cols + b]; }
};

/// An MRF edge: pairwise term over (u, v) using `matrix`, oriented so the
/// matrix row index is u's label and the column index is v's label.
struct MrfEdge {
  VariableId u = 0;
  VariableId v = 0;
  MatrixId matrix = 0;
};

class Mrf {
 public:
  Mrf() = default;

  /// Adds a variable with `label_count` labels and zero unary cost.
  VariableId add_variable(std::size_t label_count);

  [[nodiscard]] std::size_t variable_count() const noexcept { return label_counts_.size(); }
  [[nodiscard]] std::size_t label_count(VariableId v) const;
  [[nodiscard]] std::size_t max_label_count() const noexcept { return max_labels_; }

  /// Unary access: a mutable span over the variable's cost vector.
  [[nodiscard]] std::span<Cost> unary(VariableId v);
  [[nodiscard]] std::span<const Cost> unary(VariableId v) const;
  void add_to_unary(VariableId v, Label label, Cost cost);

  /// Registers a shared pairwise matrix; data must be rows*cols row-major.
  MatrixId add_matrix(std::size_t rows, std::size_t cols, std::vector<Cost> data);
  [[nodiscard]] const CostMatrix& matrix(MatrixId id) const;
  [[nodiscard]] std::size_t matrix_count() const noexcept { return matrices_.size(); }

  /// Adds the pairwise term matrix(x_u, x_v); dimensions must match the
  /// variables' label counts.  Parallel edges are allowed (their costs
  /// add), matching Eq. 3 where several services couple the same host pair
  /// in the un-decomposed formulation.
  std::size_t add_edge(VariableId u, VariableId v, MatrixId matrix);

  [[nodiscard]] std::span<const MrfEdge> edges() const noexcept { return edges_; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }

  /// Energy of a full labeling (Eq. 1).
  [[nodiscard]] Cost energy(std::span<const Label> labels) const;

  /// Validates a labeling's shape and ranges; throws on violation.
  void check_labeling(std::span<const Label> labels) const;

 private:
  std::vector<std::size_t> label_counts_;
  std::vector<std::size_t> unary_offsets_;  ///< prefix sums into unaries_
  std::vector<Cost> unaries_;
  std::vector<CostMatrix> matrices_;
  std::vector<MrfEdge> edges_;
  std::size_t max_labels_ = 0;
};

}  // namespace icsdiv::mrf
