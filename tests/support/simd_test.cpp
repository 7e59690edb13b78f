// The SIMD kernel layer's bit-identity contract (DESIGN.md §14): every
// dispatch target must produce byte-for-byte the scalar reference's
// output for every kernel — property-checked here over randomized inputs
// at every size class (vector blocks, tails, empty), with per-kernel
// golden pins, the dispatch-override plumbing (ICSDIV_SIMD parsing and
// set_active forced-scalar fallback), and a cross-dispatch end-to-end run
// of TRW-S, the solver that calls the kernels.
#include "support/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "dispatch_guard.hpp"
#include "mrf/trws.hpp"
#include "support/rng.hpp"

namespace icsdiv::support::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every dispatch target available on this machine/build.  Scalar is
/// always first — the property tests compare the others against it.
std::vector<Dispatch> supported_dispatches() {
  std::vector<Dispatch> out{Dispatch::Scalar};
  if (supported(Dispatch::Avx2)) out.push_back(Dispatch::Avx2);
  return out;
}

/// Sizes straddling every lane-count boundary: empty, sub-vector tails,
/// exact blocks, and block+tail combinations for 4-wide kernels.
const std::vector<std::size_t> kSizes = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 67};

/// Adversarial cost values: signed zeros, exact ties (quantised values
/// repeat), large/small magnitudes, and plain uniforms.
double random_cost(Rng& rng) {
  switch (rng.uniform_below(8)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return static_cast<double>(rng.uniform_below(9)) * 0.25 - 1.0;  // exact ties
    case 3:
      return (rng.uniform() - 0.5) * 1e12;
    case 4:
      return (rng.uniform() - 0.5) * 1e-12;
    default:
      return rng.uniform() * 2.0 - 1.0;
  }
}

std::vector<double> random_costs(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = random_cost(rng);
  return v;
}

void expect_bitwise_equal(const std::vector<double>& scalar, const std::vector<double>& other,
                          const char* what, Dispatch dispatch) {
  ASSERT_EQ(scalar.size(), other.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_EQ(bits(scalar[i]), bits(other[i]))
        << what << " diverges from scalar at index " << i << " under " << name(dispatch);
  }
}

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ScalarAlwaysSupported) {
  EXPECT_TRUE(supported(Dispatch::Scalar));
  EXPECT_GE(supported_dispatches().size(), 1u);
}

TEST(SimdDispatch, ParseDispatchAcceptsDocumentedNames) {
  Dispatch d = Dispatch::Avx2;
  EXPECT_TRUE(parse_dispatch("scalar", d));
  EXPECT_EQ(d, Dispatch::Scalar);
  EXPECT_TRUE(parse_dispatch("off", d));
  EXPECT_EQ(d, Dispatch::Scalar);
  EXPECT_TRUE(parse_dispatch("avx2", d));
  EXPECT_EQ(d, Dispatch::Avx2);
  EXPECT_FALSE(parse_dispatch("neon", d));
  EXPECT_FALSE(parse_dispatch("AVX2", d));
  EXPECT_FALSE(parse_dispatch("", d));
  EXPECT_FALSE(parse_dispatch("sse2", d));
  EXPECT_FALSE(parse_dispatch(nullptr, d));
}

TEST(SimdDispatch, NameRoundTripsThroughParse) {
  for (const Dispatch d : {Dispatch::Scalar, Dispatch::Avx2}) {
    Dispatch parsed = Dispatch::Scalar;
    EXPECT_TRUE(parse_dispatch(name(d), parsed));
    EXPECT_EQ(parsed, d);
  }
}

TEST(SimdDispatch, ForcedScalarFallbackSwitchesTheActiveTable) {
  DispatchGuard guard;
  ASSERT_TRUE(set_active(Dispatch::Scalar));
  EXPECT_EQ(active(), Dispatch::Scalar);
  // The active table must be the scalar table itself, not a copy.
  EXPECT_EQ(kernels().add, kernels(Dispatch::Scalar).add);
  EXPECT_EQ(kernels().min_convolve2, kernels(Dispatch::Scalar).min_convolve2);
}

TEST(SimdDispatch, UnsupportedTargetIsRejectedAndFallsBackToScalarTable) {
  // A value outside the enum is unsupported everywhere; AVX2 is on CPUs
  // and builds without it.
  std::vector<Dispatch> unsupported{static_cast<Dispatch>(7)};
  if (!supported(Dispatch::Avx2)) unsupported.push_back(Dispatch::Avx2);
  for (const Dispatch d : unsupported) {
    EXPECT_FALSE(supported(d));
    const Dispatch before = active();
    EXPECT_FALSE(set_active(d));
    EXPECT_EQ(active(), before);  // a rejected switch changes nothing
    EXPECT_EQ(kernels(d).add, kernels(Dispatch::Scalar).add);
  }
}

// ---------------------------------------------------------------------------
// Per-kernel bit-identity properties (every dispatch vs scalar)
// ---------------------------------------------------------------------------

TEST(SimdBitIdentity, ElementwiseDoubleKernels) {
  const Kernels& scalar = kernels(Dispatch::Scalar);
  for (const Dispatch d : supported_dispatches()) {
    const Kernels& k = kernels(d);
    Rng rng(17);
    for (const std::size_t n : kSizes) {
      for (int trial = 0; trial < 8; ++trial) {
        const std::vector<double> a = random_costs(rng, n);
        const double c = random_cost(rng);

        std::vector<double> lhs = random_costs(rng, n);
        std::vector<double> rhs = lhs;
        scalar.add(lhs.data(), a.data(), n);
        k.add(rhs.data(), a.data(), n);
        expect_bitwise_equal(lhs, rhs, "add", d);

        scalar.sub_scalar(lhs.data(), c, n);
        k.sub_scalar(rhs.data(), c, n);
        expect_bitwise_equal(lhs, rhs, "sub_scalar", d);
      }
    }
  }
}

TEST(SimdBitIdentity, MinValue) {
  const Kernels& scalar = kernels(Dispatch::Scalar);
  for (const Dispatch d : supported_dispatches()) {
    const Kernels& k = kernels(d);
    Rng rng(29);
    for (const std::size_t n : kSizes) {
      for (int trial = 0; trial < 8; ++trial) {
        // A mix of ∞ (an unreached label) and finite values.
        std::vector<double> v(n);
        for (double& x : v) x = rng.uniform_below(3) == 0 ? kInf : random_cost(rng);
        ASSERT_EQ(bits(scalar.min_value(v.data(), n)), bits(k.min_value(v.data(), n)))
            << "min_value diverges under " << name(d);
      }
    }
  }
}

TEST(SimdBitIdentity, Folds) {
  const Kernels& scalar = kernels(Dispatch::Scalar);
  for (const Dispatch d : supported_dispatches()) {
    const Kernels& k = kernels(d);
    Rng rng(43);
    for (const std::size_t n : kSizes) {
      for (int trial = 0; trial < 8; ++trial) {
        const std::vector<double> row = random_costs(rng, n);
        const std::vector<double> msg = random_costs(rng, n);
        const std::vector<double> depth = random_costs(rng, n);
        const double c = random_cost(rng);

        ASSERT_EQ(bits(scalar.fold_chord(row.data(), msg.data(), c, n)),
                  bits(k.fold_chord(row.data(), msg.data(), c, n)))
            << "fold_chord under " << name(d);
        ASSERT_EQ(bits(scalar.fold_tree_cm(depth.data(), row.data(), c, msg.data(), n)),
                  bits(k.fold_tree_cm(depth.data(), row.data(), c, msg.data(), n)))
            << "fold_tree_cm under " << name(d);
        ASSERT_EQ(bits(scalar.fold_tree_mc(depth.data(), row.data(), msg.data(), c, n)),
                  bits(k.fold_tree_mc(depth.data(), row.data(), msg.data(), c, n)))
            << "fold_tree_mc under " << name(d);
      }
    }
  }
}

/// The leave-one-out fold loo_profiles fuses, composed from copies and
/// add() calls as TRW-S's pair polish built it before the kernel existed:
/// a prefix pass, then the suffix folded right to left into each slot.
void loo_profiles_by_add(const Kernels& k, double* dst, std::size_t stride, const double* base,
                         const double* const* rows, std::size_t deg, std::size_t n) {
  std::vector<double> run(base, base + n);
  for (std::size_t slot = 0; slot < deg; ++slot) {
    std::copy_n(run.data(), n, dst + slot * stride);
    if (slot + 1 < deg) k.add(run.data(), rows[slot], n);
  }
  if (deg < 2) return;
  std::copy_n(rows[deg - 1], n, run.data());
  for (std::size_t slot = deg - 1; slot-- > 0;) {
    k.add(dst + slot * stride, run.data(), n);
    if (slot > 0) k.add(run.data(), rows[slot], n);
  }
}

TEST(SimdBitIdentity, FusedKernels) {
  const Kernels& scalar = kernels(Dispatch::Scalar);
  for (const Dispatch d : supported_dispatches()) {
    const Kernels& k = kernels(d);
    Rng rng(61);
    for (const std::size_t n : kSizes) {
      if (n == 0) continue;  // sum_rows requires row_count >= 1; blocks need extent
      for (int trial = 0; trial < 8; ++trial) {
        // sum_rows over 1..9 rows (degree-shaped pointer lists).
        const std::size_t row_count = 1 + rng.uniform_below(9);
        std::vector<std::vector<double>> storage;
        storage.reserve(row_count);
        std::vector<const double*> rows;
        for (std::size_t r = 0; r < row_count; ++r) {
          storage.push_back(random_costs(rng, n));
          rows.push_back(storage.back().data());
        }
        std::vector<double> lhs(n);
        std::vector<double> rhs(n);
        scalar.sum_rows(lhs.data(), rows.data(), row_count, n);
        k.sum_rows(rhs.data(), rows.data(), row_count, n);
        expect_bitwise_equal(lhs, rhs, "sum_rows", d);

        // min_convolve2 over an in_count × n block (the quantised
        // random_cost values force plenty of ties).
        const std::size_t in_count = 1 + rng.uniform_below(7);
        const std::vector<double> block = random_costs(rng, in_count * n);
        const std::vector<double> base = random_costs(rng, in_count);
        const std::vector<double> a = random_costs(rng, in_count);
        const std::vector<double> b = random_costs(rng, in_count);
        const double s = random_cost(rng);
        ASSERT_EQ(
            bits(scalar.min_convolve2(lhs.data(), block.data(), s, a.data(), b.data(), in_count,
                                      n)),
            bits(k.min_convolve2(rhs.data(), block.data(), s, a.data(), b.data(), in_count, n)))
            << "min_convolve2 min under " << name(d);
        expect_bitwise_equal(lhs, rhs, "min_convolve2", d);

        // joint_block over an in_count × n pair block (row_add has
        // `rows` entries, col_add has `cols`).
        const std::vector<double> col_add = random_costs(rng, n);
        std::vector<double> jl(in_count * n);
        std::vector<double> jr(in_count * n);
        scalar.joint_block(jl.data(), col_add.data(), base.data(), block.data(), in_count, n);
        k.joint_block(jr.data(), col_add.data(), base.data(), block.data(), in_count, n);
        expect_bitwise_equal(jl, jr, "joint_block", d);
      }
    }
    // loo_profiles, shape-randomised: every fourth draw takes deg 1 or 2
    // (no suffix fold, a one-row suffix), the rest deg up to 32, with n 1
    // to 8.  The add() composition is the fold the kernel replaced, so it
    // must match that too.
    Rng loo_rng(83);
    for (int trial = 0; trial < 400; ++trial) {
      const std::size_t deg = trial % 4 == 0 ? 1 + trial / 4 % 2 : 1 + loo_rng.uniform_below(32);
      const std::size_t n = 1 + loo_rng.uniform_below(8);
      const std::size_t stride = n + loo_rng.uniform_below(3);  // slots may be padded
      const std::vector<double> base = random_costs(loo_rng, n);
      std::vector<std::vector<double>> storage;
      std::vector<const double*> rows;
      storage.reserve(deg);
      for (std::size_t r = 0; r < deg; ++r) {
        storage.push_back(random_costs(loo_rng, n));
        rows.push_back(storage.back().data());
      }
      // The padding between slots starts equal and must stay untouched.
      const std::vector<double> initial = random_costs(loo_rng, deg * stride);
      std::vector<double> lhs = initial;
      std::vector<double> rhs = initial;
      std::vector<double> composed = initial;
      scalar.loo_profiles(lhs.data(), stride, base.data(), rows.data(), deg, n);
      k.loo_profiles(rhs.data(), stride, base.data(), rows.data(), deg, n);
      loo_profiles_by_add(scalar, composed.data(), stride, base.data(), rows.data(), deg, n);
      expect_bitwise_equal(lhs, rhs, "loo_profiles", d);
      expect_bitwise_equal(composed, lhs, "loo_profiles against the add() fold", d);
      for (std::size_t slot = 0; slot < deg; ++slot) {
        for (std::size_t j = n; j < stride; ++j) {
          ASSERT_EQ(bits(rhs[slot * stride + j]), bits(initial[slot * stride + j]))
              << "loo_profiles wrote slot padding under " << name(d);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Golden pins: exact expected outputs per kernel, checked on every target.
// ---------------------------------------------------------------------------

TEST(SimdGolden, MinValuePinsIncludingZeroCanonicalisation) {
  for (const Dispatch d : supported_dispatches()) {
    const Kernels& k = kernels(d);
    const std::vector<double> v = {3.5, -2.25, 7.0, -2.25, 0.5};
    EXPECT_EQ(bits(k.min_value(v.data(), v.size())), bits(-2.25)) << name(d);
    EXPECT_EQ(bits(k.min_value(v.data(), 0)), bits(kInf)) << name(d);
    // A −0.0 minimum canonicalises to +0.0 — the reduction-order shield.
    const std::vector<double> zeros = {1.0, -0.0, 2.0, 0.0, 4.0};
    EXPECT_EQ(bits(k.min_value(zeros.data(), zeros.size())), bits(+0.0)) << name(d);
  }
}

TEST(SimdGolden, ArithmeticKernelPins) {
  for (const Dispatch d : supported_dispatches()) {
    const Kernels& k = kernels(d);
    std::vector<double> dst = {1.0, 2.0};
    const std::vector<double> a = {2.0, 3.0};
    k.add(dst.data(), a.data(), 2);
    EXPECT_EQ(bits(dst[0]), bits(3.0)) << name(d);
    EXPECT_EQ(bits(dst[1]), bits(5.0)) << name(d);
    std::vector<double> v = {1.5, 2.5};
    k.sub_scalar(v.data(), 0.5, 2);
    EXPECT_EQ(bits(v[0]), bits(1.0)) << name(d);
  }
}

TEST(SimdGolden, FoldPins) {
  for (const Dispatch d : supported_dispatches()) {
    const Kernels& k = kernels(d);
    const std::vector<double> row = {5.0, 1.0};
    const std::vector<double> msg = {1.0, 2.0};
    const std::vector<double> depth = {1.0, 2.0};
    EXPECT_EQ(bits(k.fold_chord(row.data(), msg.data(), 1.0, 2)), bits(-2.0)) << name(d);
    // cm: min(d + ((row − c) − msg)) = min(1+(4−1), 2+(0−2)) = 0.
    EXPECT_EQ(bits(k.fold_tree_cm(depth.data(), row.data(), 1.0, msg.data(), 2)), bits(0.0))
        << name(d);
    // mc: min(d + ((row − msg) − c)) = min(1+3, 2+(−2)) = 0.
    EXPECT_EQ(bits(k.fold_tree_mc(depth.data(), row.data(), msg.data(), 1.0, 2)), bits(0.0))
        << name(d);
  }
}

TEST(SimdGolden, FusedKernelPins) {
  for (const Dispatch d : supported_dispatches()) {
    const Kernels& k = kernels(d);
    // sum_rows folds rows in order per element.
    const std::vector<double> r0 = {1.0, -2.0};
    const std::vector<double> r1 = {0.5, 0.5};
    const std::vector<double> r2 = {-1.0, 4.0};
    const std::vector<const double*> rows = {r0.data(), r1.data(), r2.data()};
    std::vector<double> dst(2, 0.0);
    k.sum_rows(dst.data(), rows.data(), 3, 2);
    EXPECT_EQ(bits(dst[0]), bits(0.5)) << name(d);
    EXPECT_EQ(bits(dst[1]), bits(2.5)) << name(d);

    // min_convolve2: out[j] = min_i(base[i] + block[i·2+j]) with
    // base[i] = s·a[i] − b[i] computed inline; ties keep the earlier i.
    // With s = 2, a = {0.5, 1}, b = {2, −1} the bases are {−1, 3}.
    const std::vector<double> block = {1.0, -1.0, 0.0, 2.0};
    std::vector<double> out(2, 99.0);
    const std::vector<double> a = {0.5, 1.0};
    const std::vector<double> b = {2.0, -1.0};
    EXPECT_EQ(bits(k.min_convolve2(out.data(), block.data(), 2.0, a.data(), b.data(), 2, 2)),
              bits(-2.0))
        << name(d);
    EXPECT_EQ(bits(out[0]), bits(0.0)) << name(d);   // min(−1+1, 3+0)
    EXPECT_EQ(bits(out[1]), bits(-2.0)) << name(d);  // min(−1−1, 3+2)

    // joint_block: dst[a·cols+b] = (row_add[a] + col_add[b]) + m.
    const std::vector<double> row_add = {1.0, -1.0};
    const std::vector<double> col_add = {0.25, 0.5};
    std::vector<double> joint(4, 0.0);
    k.joint_block(joint.data(), col_add.data(), row_add.data(), block.data(), 2, 2);
    EXPECT_EQ(bits(joint[0]), bits(2.25)) << name(d);   // (1+0.25)+1
    EXPECT_EQ(bits(joint[1]), bits(0.5)) << name(d);    // (1+0.5)−1
    EXPECT_EQ(bits(joint[2]), bits(-0.75)) << name(d);  // (−1+0.25)+0
    EXPECT_EQ(bits(joint[3]), bits(1.5)) << name(d);    // (−1+0.5)+2
  }
}

TEST(SimdGolden, LooProfilesPins) {
  for (const Dispatch d : supported_dispatches()) {
    const Kernels& k = kernels(d);
    // Slot k is base plus every row but row k: the total is {2.5, 2.75}.
    const std::vector<double> base = {1.0, -2.0};
    const std::vector<double> r0 = {0.5, 0.25};
    const std::vector<double> r1 = {-1.0, 4.0};
    const std::vector<double> r2 = {2.0, 0.5};
    const std::vector<const double*> rows = {r0.data(), r1.data(), r2.data()};
    std::vector<double> dst(6, 99.0);
    k.loo_profiles(dst.data(), 2, base.data(), rows.data(), 3, 2);
    EXPECT_EQ(bits(dst[0]), bits(2.0)) << name(d);    // base + (r2 + r1)
    EXPECT_EQ(bits(dst[1]), bits(2.5)) << name(d);
    EXPECT_EQ(bits(dst[2]), bits(3.5)) << name(d);    // (base + r0) + r2
    EXPECT_EQ(bits(dst[3]), bits(-1.25)) << name(d);
    EXPECT_EQ(bits(dst[4]), bits(0.5)) << name(d);    // (base + r0) + r1
    EXPECT_EQ(bits(dst[5]), bits(2.25)) << name(d);

    // deg 1: the base alone, no row read, nothing past the slot written.
    std::vector<double> one(3, 99.0);
    k.loo_profiles(one.data(), 3, base.data(), rows.data(), 1, 2);
    EXPECT_EQ(bits(one[0]), bits(1.0)) << name(d);
    EXPECT_EQ(bits(one[1]), bits(-2.0)) << name(d);
    EXPECT_EQ(bits(one[2]), bits(99.0)) << name(d);

    // deg 2: each slot is the base plus the other row.
    std::vector<double> two(4, 99.0);
    k.loo_profiles(two.data(), 2, base.data(), rows.data(), 2, 2);
    EXPECT_EQ(bits(two[0]), bits(0.0)) << name(d);    // 1 + (−1)
    EXPECT_EQ(bits(two[1]), bits(2.0)) << name(d);    // −2 + 4
    EXPECT_EQ(bits(two[2]), bits(1.5)) << name(d);    // 1 + 0.5
    EXPECT_EQ(bits(two[3]), bits(-1.75)) << name(d);  // −2 + 0.25

    // The fold order shows in rounding.  With base 1 and rows
    // {1, 1, 2^53}, slot 0 is 1 + (2^53 + 1): both sums are ties that round
    // to the even 2^53, where (1 + 1) + 2^53 would give 2^53 + 2 exactly.
    const double big = 9007199254740992.0;  // 2^53
    const std::vector<double> unit = {1.0};
    const std::vector<double> t0 = {1.0};
    const std::vector<double> t1 = {1.0};
    const std::vector<double> t2 = {big};
    const std::vector<const double*> tie_rows = {t0.data(), t1.data(), t2.data()};
    std::vector<double> tie(3, 99.0);
    k.loo_profiles(tie.data(), 1, unit.data(), tie_rows.data(), 3, 1);
    EXPECT_EQ(bits(tie[0]), bits(big)) << name(d);        // 1 + (2^53 + 1)
    EXPECT_EQ(bits(tie[1]), bits(big + 2.0)) << name(d);  // (1 + 1) + 2^53
    EXPECT_EQ(bits(tie[2]), bits(3.0)) << name(d);        // (1 + 1) + 1
  }
}

// ---------------------------------------------------------------------------
// End-to-end cross-dispatch: the two solvers that call the kernels must
// produce bit-identical results under every dispatch target.
// ---------------------------------------------------------------------------

mrf::Mrf random_mrf(std::size_t n, std::size_t labels, double edge_probability, Rng& rng) {
  mrf::Mrf model;
  for (std::size_t i = 0; i < n; ++i) {
    const mrf::VariableId v = model.add_variable(labels);
    for (auto& cost : model.unary(v)) cost = rng.uniform();
  }
  std::vector<mrf::Cost> data(labels * labels, 0.0);
  for (std::size_t a = 0; a < labels; ++a) {
    for (std::size_t b = a; b < labels; ++b) {
      const double value = a == b ? 1.0 : rng.uniform() * 0.6;
      data[a * labels + b] = value;
      data[b * labels + a] = value;
    }
  }
  const mrf::MatrixId m = model.add_matrix(labels, labels, std::move(data));
  for (mrf::VariableId u = 0; u < n; ++u) {
    for (mrf::VariableId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(edge_probability)) model.add_edge(u, v, m);
    }
  }
  return model;
}

TEST(SimdEndToEnd, TrwsBitIdenticalAcrossDispatches) {
  DispatchGuard guard;
  Rng rng(2024);
  const mrf::Mrf model = random_mrf(24, 5, 0.25, rng);
  mrf::SolveOptions options;
  options.max_iterations = 30;

  ASSERT_TRUE(set_active(Dispatch::Scalar));
  const mrf::SolveResult trws_ref = mrf::TrwsSolver().solve(model, options);
  for (const Dispatch d : supported_dispatches()) {
    ASSERT_TRUE(set_active(d));
    const mrf::SolveResult trws = mrf::TrwsSolver().solve(model, options);
    EXPECT_EQ(bits(trws.energy), bits(trws_ref.energy)) << name(d);
    EXPECT_EQ(bits(trws.lower_bound), bits(trws_ref.lower_bound)) << name(d);
    EXPECT_EQ(trws.labels, trws_ref.labels) << name(d);
    EXPECT_EQ(trws.iterations, trws_ref.iterations) << name(d);
  }
}

}  // namespace
}  // namespace icsdiv::support::simd
