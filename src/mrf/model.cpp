#include "mrf/model.hpp"

namespace icsdiv::mrf {

VariableId Mrf::add_variable(std::size_t label_count) {
  require(label_count > 0, "Mrf::add_variable", "variables need at least one label");
  require(label_count <= 65535, "Mrf::add_variable", "label count exceeds Label range");
  const auto id = static_cast<VariableId>(label_counts_.size());
  label_counts_.push_back(label_count);
  unary_offsets_.push_back(unaries_.size());
  unaries_.resize(unaries_.size() + label_count, Cost{0});
  max_labels_ = std::max(max_labels_, label_count);
  return id;
}

std::size_t Mrf::label_count(VariableId v) const {
  require(v < label_counts_.size(), "Mrf::label_count", "variable id out of range");
  return label_counts_[v];
}

std::span<Cost> Mrf::unary(VariableId v) {
  require(v < label_counts_.size(), "Mrf::unary", "variable id out of range");
  return {unaries_.data() + unary_offsets_[v], label_counts_[v]};
}

std::span<const Cost> Mrf::unary(VariableId v) const {
  require(v < label_counts_.size(), "Mrf::unary", "variable id out of range");
  return {unaries_.data() + unary_offsets_[v], label_counts_[v]};
}

void Mrf::add_to_unary(VariableId v, Label label, Cost cost) {
  auto span = unary(v);
  require(label < span.size(), "Mrf::add_to_unary", "label out of range");
  span[label] += cost;
}

MatrixId Mrf::add_matrix(std::size_t rows, std::size_t cols, std::vector<Cost> data) {
  require(rows > 0 && cols > 0, "Mrf::add_matrix", "matrix must be non-empty");
  require(data.size() == rows * cols, "Mrf::add_matrix", "matrix data size mismatch");
  const auto id = static_cast<MatrixId>(matrices_.size());
  matrices_.push_back(CostMatrix{rows, cols, std::move(data)});
  return id;
}

const CostMatrix& Mrf::matrix(MatrixId id) const {
  require(id < matrices_.size(), "Mrf::matrix", "matrix id out of range");
  return matrices_[id];
}

std::size_t Mrf::add_edge(VariableId u, VariableId v, MatrixId matrix_id) {
  require(u < label_counts_.size() && v < label_counts_.size(), "Mrf::add_edge",
          "variable id out of range");
  require(u != v, "Mrf::add_edge", "self-edges are not allowed");
  const CostMatrix& m = matrix(matrix_id);
  require(m.rows == label_counts_[u], "Mrf::add_edge",
          "matrix rows must equal label count of u");
  require(m.cols == label_counts_[v], "Mrf::add_edge",
          "matrix cols must equal label count of v");
  edges_.push_back(MrfEdge{u, v, matrix_id});
  return edges_.size() - 1;
}

void Mrf::check_labeling(std::span<const Label> labels) const {
  require(labels.size() == label_counts_.size(), "Mrf::check_labeling",
          "labeling size must equal variable count");
  for (std::size_t i = 0; i < labels.size(); ++i) {
    require(labels[i] < label_counts_[i], "Mrf::check_labeling", "label out of range");
  }
}

Cost Mrf::energy(std::span<const Label> labels) const {
  check_labeling(labels);
  Cost total = 0;
  for (VariableId v = 0; v < label_counts_.size(); ++v) {
    total += unaries_[unary_offsets_[v] + labels[v]];
  }
  for (const MrfEdge& edge : edges_) {
    total += matrices_[edge.matrix].at(labels[edge.u], labels[edge.v]);
  }
  return total;
}

}  // namespace icsdiv::mrf
