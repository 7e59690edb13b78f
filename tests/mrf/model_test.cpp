// MRF model: construction, energy evaluation, validation.
#include "mrf/model.hpp"

#include <gtest/gtest.h>

namespace icsdiv::mrf {
namespace {

TEST(Mrf, VariablesAndUnaries) {
  Mrf mrf;
  const VariableId a = mrf.add_variable(3);
  const VariableId b = mrf.add_variable(2);
  EXPECT_EQ(mrf.variable_count(), 2u);
  EXPECT_EQ(mrf.label_count(a), 3u);
  EXPECT_EQ(mrf.label_count(b), 2u);
  EXPECT_EQ(mrf.max_label_count(), 3u);

  mrf.unary(a)[1] = 2.5;
  mrf.add_to_unary(a, 1, 0.5);
  EXPECT_DOUBLE_EQ(mrf.unary(a)[1], 3.0);
  EXPECT_DOUBLE_EQ(mrf.unary(a)[0], 0.0);
}

TEST(Mrf, EdgeAndEnergy) {
  Mrf mrf;
  const VariableId a = mrf.add_variable(2);
  const VariableId b = mrf.add_variable(2);
  mrf.unary(a)[0] = 1.0;
  mrf.unary(b)[1] = 0.25;
  // Potts-like: cost 3 when equal.
  const MatrixId m = mrf.add_matrix(2, 2, {3, 0, 0, 3});
  mrf.add_edge(a, b, m);

  EXPECT_DOUBLE_EQ(mrf.energy(std::vector<Label>{0, 0}), 1.0 + 0.0 + 3.0);
  EXPECT_DOUBLE_EQ(mrf.energy(std::vector<Label>{0, 1}), 1.0 + 0.25 + 0.0);
  EXPECT_DOUBLE_EQ(mrf.energy(std::vector<Label>{1, 1}), 0.25 + 3.0);
}

TEST(Mrf, AsymmetricMatrixOrientation) {
  Mrf mrf;
  const VariableId a = mrf.add_variable(2);
  const VariableId b = mrf.add_variable(3);
  // cost(x_a, x_b) = 10*x_a + x_b.
  const MatrixId m = mrf.add_matrix(2, 3, {0, 1, 2, 10, 11, 12});
  mrf.add_edge(a, b, m);
  EXPECT_DOUBLE_EQ(mrf.energy(std::vector<Label>{1, 2}), 12.0);
  EXPECT_DOUBLE_EQ(mrf.energy(std::vector<Label>{0, 1}), 1.0);
}

TEST(Mrf, ParallelEdgesAccumulate) {
  Mrf mrf;
  const VariableId a = mrf.add_variable(2);
  const VariableId b = mrf.add_variable(2);
  const MatrixId m = mrf.add_matrix(2, 2, {1, 0, 0, 1});
  mrf.add_edge(a, b, m);
  mrf.add_edge(a, b, m);
  EXPECT_DOUBLE_EQ(mrf.energy(std::vector<Label>{0, 0}), 2.0);
}

TEST(Mrf, ValidationErrors) {
  Mrf mrf;
  const VariableId a = mrf.add_variable(2);
  const VariableId b = mrf.add_variable(3);
  EXPECT_THROW(mrf.add_variable(0), icsdiv::InvalidArgument);
  EXPECT_THROW(mrf.add_matrix(2, 2, {1.0}), icsdiv::InvalidArgument);
  const MatrixId m = mrf.add_matrix(2, 2, {0, 0, 0, 0});
  EXPECT_THROW(mrf.add_edge(a, b, m), icsdiv::InvalidArgument);  // cols mismatch
  EXPECT_THROW(mrf.add_edge(a, a, m), icsdiv::InvalidArgument);  // self edge
  EXPECT_THROW(mrf.add_to_unary(a, 5, 1.0), icsdiv::InvalidArgument);
  EXPECT_THROW((void)mrf.energy(std::vector<Label>{0}), icsdiv::InvalidArgument);
  EXPECT_THROW((void)mrf.energy(std::vector<Label>{0, 3}), icsdiv::InvalidArgument);
}

TEST(Mrf, EmptyModelEnergyZero) {
  const Mrf mrf;
  EXPECT_DOUBLE_EQ(mrf.energy(std::vector<Label>{}), 0.0);
}

}  // namespace
}  // namespace icsdiv::mrf
