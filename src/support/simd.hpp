// Portable SIMD kernel layer (DESIGN.md §14).
//
// The hot inner loops of TRW-S — min-plus message updates and
// reparameterisation folds over the flat label pools — are elementwise
// passes over flat arrays.  This header
// names those passes once, as a table of kernel function pointers, and
// `simd.cpp` provides two runtime-dispatched implementations: a scalar
// reference and an AVX2 path (x86-64, selected when the CPU reports the
// feature).  Every other target runs the scalar table (DESIGN.md §14 says
// why there is no NEON table).
//
// The contract every implementation must honour is **bit-identity**: for
// any input, every dispatch target returns byte-for-byte the same output
// as the scalar reference (tests/support/simd_test.cpp property-checks
// this on every supported target).  The kernels make that cheap to
// guarantee because they are elementwise — each output element depends on
// its own input elements through a fixed operation sequence, so vector
// lanes compute exactly the scalar expression and no floating-point
// reassociation ever happens.  The only cross-element operations are
// min/max reductions, whose results are reduction-order-independent for
// finite doubles once the sign of a zero result is canonicalised (the
// kernels return `m + 0.0`).  Two deliberate choices keep the guarantee
// airtight:
//
//   * `simd.cpp` is compiled with `-ffp-contract=off`, so the scalar
//     reference can never be contracted into FMA while the vector path
//     uses separate multiply/add instructions (or vice versa).
//   * Tie semantics of min/max are pinned by operand order:
//     `std::min(a, b)` keeps `a` on ties exactly as `vminpd(b, a)` does,
//     and the scalar kernels are written in that form.
//
// Inputs must be NaN-free (solver costs always are); behaviour on NaN is
// unspecified but consistent per dispatch.
//
// Dispatch is process-global: detected once at first use, overridable by
// the `ICSDIV_SIMD` environment variable (`scalar`, `avx2`) or
// programmatically via `set_active()` (the property tests iterate all
// supported targets this way).  Raw vendor intrinsics are allowed ONLY in
// `src/support/simd.hpp` / `src/support/simd.cpp` — the invariant linter
// (tools/lint_invariants.py, rule `raw-intrinsics`) rejects them anywhere
// else, so every consumer goes through this table and inherits the
// bit-identity contract.
#pragma once

#include <cstddef>

namespace icsdiv::support::simd {

enum class Dispatch : int { Scalar = 0, Avx2 = 1 };

/// The kernel table.  All pointers are always non-null; `kernels(d)` for
/// an unsupported dispatch returns the scalar table.
struct Kernels {
  // ---- elementwise kernels over flat label pools ----

  /// dst[i] += src[i] — message/unary aggregation (TRW-S, ICM polish).
  void (*add)(double* dst, const double* src, std::size_t n);

  /// min over v[0..n), +0.0-canonicalised (∞ for n == 0) — the
  /// lower-bound root fold.
  double (*min_value)(const double* v, std::size_t n);

  /// v[i] -= c — message normalisation to min 0.
  void (*sub_scalar)(double* v, double c, std::size_t n);

  /// min over (row[i] - msg[i]) - c — the TRW-S chord-edge bound fold,
  /// +0.0-canonicalised.
  double (*fold_chord)(const double* row, const double* msg, double c, std::size_t n);

  /// min over d[i] + ((row[i] - c) - msg[i]) — the forest-DP fold when the
  /// child is the edge's u end, +0.0-canonicalised.
  double (*fold_tree_cm)(const double* d, const double* row, double c, const double* msg,
                         std::size_t n);

  /// min over d[i] + ((row[i] - msg[i]) - c) — the forest-DP fold when the
  /// child is the edge's v end, +0.0-canonicalised.
  double (*fold_tree_mc)(const double* d, const double* row, const double* msg, double c,
                         std::size_t n);

  // ---- fused kernels (label pools are tiny — L is typically 5 — so the
  // ---- per-call overhead of composing the primitives above dominates;
  // ---- these fuse whole per-variable/per-edge passes into one call with
  // ---- the accumulator held in registers across rows) ----

  /// Fused θ̂ aggregation: dst[j] = rows[0][j] + rows[1][j] + … summed in
  /// row order per element (row_count ≥ 1) — one call per variable
  /// instead of one add() per incident edge.
  void (*sum_rows)(double* dst, const double* const* rows, std::size_t row_count, std::size_t n);

  /// Fused pair-sweep joint block:
  /// dst[a·cols + b] = (row_add[a] + col_add[b]) + m[a·cols + b].
  void (*joint_block)(double* dst, const double* col_add, const double* row_add, const double* m,
                      std::size_t rows, std::size_t cols);

  /// Fused min-plus message update with the reparameterised base computed
  /// inline: out[j] = min over i of ((s·a[i] − b[i]) + rows[i·out_count + j]),
  /// ties keeping the earlier i; returns the +0.0-canonicalised min over
  /// out (∞ when in_count is 0).  s is TRW-S's node weight γ; the fused
  /// form skips the reduced-aggregate scratch buffer entirely.
  double (*min_convolve2)(double* out, const double* rows, double s, const double* a,
                          const double* b, std::size_t in_count, std::size_t out_count);

  /// Fused leave-one-out profiles of one variable (the pair sweep's
  /// conditional costs), `deg` slots `stride` apart: slot k < deg − 1 is
  /// dst[k·stride + j] = prefix_k[j] + suffix_k[j] with
  /// prefix_k = ((base + rows[0]) + …) + rows[k−1] and
  /// suffix_k = ((rows[deg−1] + rows[deg−2]) + …) + rows[k+1];
  /// slot deg − 1 is prefix_{deg−1} alone.  Writes nothing when deg is 0.
  /// Both tables hold the scalar twin (DESIGN.md §14.2).
  void (*loo_profiles)(double* dst, std::size_t stride, const double* base,
                       const double* const* rows, std::size_t deg, std::size_t n);
};

/// The active kernel table (cheap: one relaxed atomic load).
[[nodiscard]] const Kernels& kernels() noexcept;

/// The table of a specific dispatch; the scalar table when unsupported.
[[nodiscard]] const Kernels& kernels(Dispatch dispatch) noexcept;

/// Currently active dispatch.  First call resolves the default: AVX2 when
/// compiled in and the CPU reports it, else scalar, downgraded by
/// `ICSDIV_SIMD` when set.
[[nodiscard]] Dispatch active() noexcept;

/// Forces the active dispatch; returns false (and changes nothing) when
/// the target is not supported on this CPU/build.  Scalar always works.
bool set_active(Dispatch dispatch) noexcept;

/// Whether a dispatch target is compiled in and runtime-supported.
[[nodiscard]] bool supported(Dispatch dispatch) noexcept;

/// Stable lowercase name ("scalar", "avx2") — also the accepted
/// `ICSDIV_SIMD` values.
[[nodiscard]] const char* name(Dispatch dispatch) noexcept;

/// Parses an `ICSDIV_SIMD` value; returns false on unknown names.
bool parse_dispatch(const char* text, Dispatch& out) noexcept;

}  // namespace icsdiv::support::simd
