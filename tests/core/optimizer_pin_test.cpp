// Exact-output pins for TRW-S on paper-shaped instances, where its pair
// polish does real work: over the six cases below it accepts 3,284 pair
// moves, and its joint-block bound skips 61% of the 510,432 edge scans.
// Each case builds a §VIII workload (1500 hosts, average degree 20,
// 2 services × 5 products), optionally applies the `pinned` recipe, and
// solves it through core::Optimizer — the decomposed TRW-S path every
// optimize takes — under every supported SIMD dispatch.  The labels'
// hash, the bit patterns of energy and lower bound, the iteration count
// and the converged flag must equal the constants below, which were
// recorded from the solver as of commit 8f52a7e (before the fused
// leave-one-out kernel, the joint-block skip and the one-pass component
// extraction).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "../support/dispatch_guard.hpp"
#include "core/optimizer.hpp"
#include "runner/scenario.hpp"
#include "runner/workload.hpp"
#include "support/simd.hpp"

namespace icsdiv::core {
namespace {

namespace simd = support::simd;

struct Pin {
  std::uint64_t seed;
  bool pinned;
  std::uint64_t label_hash;
  std::uint64_t energy_bits;
  std::uint64_t lower_bound_bits;
  std::size_t iterations;
  bool converged;
};

constexpr Pin kPins[] = {
    {1, false, 10857343690494818492ull, 4660295268862459519ull, 4629137466983448576ull, 2, true},
    {1, true, 17816161691765723043ull, 4661590580742383884ull, 4649162451845236508ull, 100, false},
    {2, false, 13105449436359966279ull, 4662713461803911961ull, 4629137466983448577ull, 2, true},
    {2, true, 16275521504337478116ull, 4663908829579663524ull, 4656744297697397706ull, 100, false},
    {3, false, 16103949963239733557ull, 4659999852019680256ull, 4629137466983448576ull, 2, true},
    {3, true, 1276695255470402865ull, 4661568348731565442ull, 4654213362249342311ull, 100, false},
};

/// A pin in the form of a kPins row, so a failure prints what to compare.
std::string row(const Pin& pin) {
  std::ostringstream out;
  out << std::boolalpha << "{" << pin.seed << ", " << pin.pinned << ", " << pin.label_hash
      << "ull, " << pin.energy_bits << "ull, " << pin.lower_bound_bits << "ull, "
      << pin.iterations << ", " << pin.converged << "}";
  return out.str();
}

void PrintTo(const Pin& pin, std::ostream* os) { *os << row(pin); }

std::uint64_t label_hash(const std::vector<mrf::Label>& labels) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const mrf::Label l : labels) {
    h ^= l;
    h *= 1099511628211ull;
  }
  return h;
}

class TrwsPaperPin : public ::testing::TestWithParam<Pin> {};

TEST_P(TrwsPaperPin, OptimizerOutputMatchesRecordedBits) {
  const Pin& pin = GetParam();
  runner::WorkloadParams params;
  params.hosts = 1500;
  params.average_degree = 20.0;
  params.services = 2;
  params.products_per_service = 5;
  params.seed = pin.seed;
  const runner::WorkloadInstance instance = runner::make_workload(params);
  const ConstraintSet constraints =
      runner::apply_constraint_recipe(pin.pinned ? "pinned" : "none", *instance.network);

  simd::DispatchGuard guard;
  for (const simd::Dispatch d : {simd::Dispatch::Scalar, simd::Dispatch::Avx2}) {
    if (!simd::set_active(d)) continue;  // not compiled in or not on this CPU
    const mrf::SolveResult solve = Optimizer(*instance.network).optimize(constraints).solve;
    const Pin actual{pin.seed,
                     pin.pinned,
                     label_hash(solve.labels),
                     std::bit_cast<std::uint64_t>(solve.energy),
                     std::bit_cast<std::uint64_t>(solve.lower_bound),
                     solve.iterations,
                     solve.converged};
    SCOPED_TRACE(::testing::Message() << simd::name(d) << " dispatch, actual " << row(actual));
    EXPECT_EQ(actual.label_hash, pin.label_hash);
    EXPECT_EQ(actual.energy_bits, pin.energy_bits);
    EXPECT_EQ(actual.lower_bound_bits, pin.lower_bound_bits);
    EXPECT_EQ(actual.iterations, pin.iterations);
    EXPECT_EQ(actual.converged, pin.converged);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, TrwsPaperPin, ::testing::ValuesIn(kPins),
                         [](const auto& param_info) {
                           std::ostringstream name;
                           name << "seed" << param_info.param.seed
                                << (param_info.param.pinned ? "_pinned" : "_none");
                           return name.str();
                         });

}  // namespace
}  // namespace icsdiv::core
