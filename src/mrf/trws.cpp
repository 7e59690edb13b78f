#include "mrf/trws.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "support/logging.hpp"
#include "support/simd.hpp"
#include "support/stopwatch.hpp"

namespace icsdiv::mrf {

namespace {

/// θ̂ aggregation: d = unary + Σ incoming messages of variable i, fused
/// into one sum_rows call (the accumulator stays in registers across the
/// incident list).  `rows` is caller scratch with room for the variable's
/// incident count + 1 pointers.
void aggregate(const support::simd::Kernels& k, const CompiledMrf& compiled, VariableId i,
               const Cost* messages, Cost* d, const Cost** rows) {
  const std::size_t count = compiled.label_count(i);
  std::size_t r = 0;
  rows[r++] = compiled.unary(i);
  for (const CompiledIncident& in : compiled.incident(i)) rows[r++] = messages + in.msg_in;
  k.sum_rows(d, rows, r, count);
}

/// Message storage and sweep machinery for one solve, running entirely on
/// the flat CompiledMrf view: CSR incidence, per-incident resolved matrix
/// pointers (row-major in both orientations via the transposed cache), and
/// the canonical flat message layout.  All scratch buffers are allocated
/// once here; the per-iteration loops are allocation-free.
class Machine {
 public:
  explicit Machine(const CompiledMrf& compiled)
      : compiled_(compiled), n_(compiled.variable_count()), k_(support::simd::kernels()) {
    build_gamma();
    build_forest();
    messages_.assign(compiled_.message_size(), Cost{0});
    const std::size_t max_labels = compiled_.max_label_count();
    scratch_d_.resize(max_labels);
    score_.resize(max_labels);
    fold_.resize(max_labels);
    joint_.resize(max_labels * max_labels);
    node_cost_.resize(n_ * max_labels);
    std::size_t max_incident = 0;
    incident_offset_.resize(n_ + 1);
    std::size_t total_incident = 0;
    for (VariableId i = 0; i < n_; ++i) {
      incident_offset_[i] = total_incident;
      total_incident += compiled_.incident(i).size();
      max_incident = std::max(max_incident, compiled_.incident(i).size());
    }
    incident_offset_[n_] = total_incident;
    rows_.resize(max_incident + 1);
    // Slot of each edge inside its endpoints' incident lists (self-edges
    // are rejected by Mrf::add_edge, so u's and v's entries are distinct).
    const auto edges = compiled_.edges();
    edge_slot_u_.assign(compiled_.edge_count(), 0);
    edge_slot_v_.assign(compiled_.edge_count(), 0);
    for (VariableId i = 0; i < n_; ++i) {
      const auto inc = compiled_.incident(i);
      for (std::size_t k = 0; k < inc.size(); ++k) {
        (edges[inc[k].edge].u == i ? edge_slot_u_ : edge_slot_v_)[inc[k].edge] = k;
      }
    }
    // Polish-scan stamps: everything starts "touched" (stamp 1 > scan
    // stamp 0), so the first icm/pair sweeps scan and build everything.
    touched_stamp_.assign(n_, 1);
    var_scan_stamp_.assign(n_, 0);
    edge_scan_stamp_.assign(compiled_.edge_count(), 0);
    loo_stamp_.assign(n_, 0);
    const Mrf& mrf = compiled_.mrf();
    matrix_min_.resize(mrf.matrix_count());
    for (MatrixId m = 0; m < mrf.matrix_count(); ++m) {
      const std::vector<Cost>& data = mrf.matrix(m).data;
      matrix_min_[m] = *std::min_element(data.begin(), data.end());
    }
  }

  /// One forward (`ascending=true`) or backward sweep.
  void sweep(bool ascending) {
    if (ascending) {
      for (VariableId i = 0; i < n_; ++i) process(i, /*send_to_later=*/true);
    } else {
      for (VariableId i = n_; i-- > 0;) process(i, /*send_to_later=*/false);
    }
  }

  /// Dual lower bound from the current message reparameterisation θ'
  /// (θ'_i = θ_i + Σ incoming messages; θ'_e = θ_e − M_{u→v} − M_{v→u};
  /// the reparameterised energy equals the original for every labeling).
  /// Rather than the naive Σ min θ'_i + Σ min θ'_e — valid but loose — we
  /// run exact dynamic programming over a spanning forest of the MRF under
  /// θ' and add the independent minima of the chord edges only:
  ///
  ///   LB = Σ_trees min_x E_tree(x | θ') + Σ_{chords e} min θ'_e
  ///
  /// This is a valid bound for any message state, *exact* on trees and
  /// chains (the forest covers every edge), and tightens as TRW-S shifts
  /// mass onto the messages for loopy graphs.
  [[nodiscard]] Cost lower_bound() const {
    const std::size_t max_labels = compiled_.max_label_count();
    // θ'_i for every variable, flattened (buffer hoisted into the Machine).
    std::fill(node_cost_.begin(), node_cost_.end(), Cost{0});
    for (VariableId i = 0; i < n_; ++i) {
      Cost* d = node_cost_.data() + static_cast<std::size_t>(i) * max_labels;
      aggregate(k_, compiled_, i, messages_.data(), d, rows_.data());
    }

    const auto edges = compiled_.edges();
    Cost bound = 0;
    // Chord edges contribute their independent minima of
    // θ'_e(a, b) = θ_e(a, b) − M_{u→v}[b] − M_{v→u}[a].
    for (std::size_t e : chord_edges_) {
      const std::size_t rows = compiled_.label_count(edges[e].u);
      const std::size_t cols = compiled_.label_count(edges[e].v);
      const Cost* fwd = compiled_.forward(e);
      const Cost* to_v = messages_.data() + compiled_.message_offset(e, /*dir_u_to_v=*/true);
      const Cost* to_u = messages_.data() + compiled_.message_offset(e, /*dir_u_to_v=*/false);
      Cost best = std::numeric_limits<Cost>::infinity();
      for (std::size_t a = 0; a < rows; ++a) {
        const Cost row_best = k_.fold_chord(fwd + a * cols, to_v, to_u[a], cols);
        best = std::min(best, row_best);
      }
      bound += best;
    }

    // Forest DP: children fold their subtree minima into the parent's
    // node costs; roots contribute their final minima.  forest_order_ is
    // a BFS order, so traversing it backwards visits children first.
    for (auto it = forest_order_.rbegin(); it != forest_order_.rend(); ++it) {
      const VariableId i = *it;
      const std::size_t labels = compiled_.label_count(i);
      Cost* d = node_cost_.data() + static_cast<std::size_t>(i) * max_labels;
      if (forest_parent_[i] == kNoParent) {
        bound += k_.min_value(d, labels);
        continue;
      }
      const VariableId parent = forest_parent_[i];
      const std::size_t e = forest_edge_[i];
      const bool i_is_u = edges[e].u == i;
      const std::size_t parent_labels = compiled_.label_count(parent);
      const Cost* to_v = messages_.data() + compiled_.message_offset(e, /*dir_u_to_v=*/true);
      const Cost* to_u = messages_.data() + compiled_.message_offset(e, /*dir_u_to_v=*/false);
      // Rows contiguous over the child's labels in either orientation:
      // i_is_u reads the transposed cache, otherwise the forward data.
      const Cost* mat = i_is_u ? compiled_.transposed(e) : compiled_.forward(e);
      for (std::size_t xp = 0; xp < parent_labels; ++xp) {
        const Cost* row = mat + xp * labels;
        // θ'(x_i, x_p) = θ(x_i, x_p) − M_{u→v}[x_p] − M_{v→u}[x_i] when
        // i_is_u, θ'(x_p, x_i) = θ(x_p, x_i) − M_{u→v}[x_i] − M_{v→u}[x_p]
        // otherwise — the two fold kernels pin the operand orders.
        fold_[xp] = i_is_u ? k_.fold_tree_cm(d, row, to_v[xp], to_u, labels)
                           : k_.fold_tree_mc(d, row, to_v, to_u[xp], labels);
      }
      Cost* parent_cost = node_cost_.data() + static_cast<std::size_t>(parent) * max_labels;
      k_.add(parent_cost, fold_.data(), parent_labels);
    }
    return bound;
  }

  /// Greedy conditioned extraction in ascending order: earlier variables
  /// contribute their fixed labels, later ones their incoming messages.
  [[nodiscard]] std::vector<Label> extract() const {
    std::vector<Label> labels(n_, 0);
    Cost* score = score_.data();
    for (VariableId i = 0; i < n_; ++i) {
      const std::size_t count = compiled_.label_count(i);
      const Cost** rows = rows_.data();
      std::size_t r = 0;
      rows[r++] = compiled_.unary(i);
      for (const CompiledIncident& in : compiled_.incident(i)) {
        // recv row for an earlier neighbour's fixed label is contiguous
        // over x; later neighbours contribute their incoming message.
        rows[r++] = in.other < i
                        ? in.recv + static_cast<std::size_t>(labels[in.other]) * count
                        : messages_.data() + in.msg_in;
      }
      k_.sum_rows(score, rows, r, count);
      labels[i] = static_cast<Label>(std::min_element(score, score + count) - score);
    }
    return labels;
  }

  /// One joint-move sweep over edges: for each edge, re-optimise both
  /// endpoint labels together given the rest of the labeling.  Escapes the
  /// single-variable local minima that ICM cannot leave on frustrated
  /// (anti-Potts) cycles — exactly the structure diversity energies have,
  /// where a "defect" (a similar adjacent pair) must slide around a cycle
  /// to its cheapest edge.  Returns whether any labels changed.
  /// The icm/pair sweeps prune provably-identical rescans with version
  /// stamps: a scan of variable i (resp. edge e) is a pure function of the
  /// labels in the closed neighbourhood of i (resp. of both endpoints), so
  /// if none of those labels changed since its last scan, re-running it
  /// would reproduce the last outcome — "no change" — and can be skipped.
  /// Every accepted move bumps `clock_` and stamps the changed variable
  /// plus all its neighbours as touched, which re-arms exactly the scans
  /// whose inputs it altered (scan stamps are recorded *before* the move's
  /// bump, so a mover always rescans itself once — conservative, and
  /// immune to self-influence via parallel edges).  The stamps assume
  /// every sweep on this Machine polishes the same evolving labels vector,
  /// which solve_compiled guarantees (one polish block, fresh Machine per
  /// solve).
  bool pair_sweep(std::vector<Label>& labels) const {
    bool changed = false;
    const auto edges = compiled_.edges();
    // Leave-one-out conditional profiles are cached per (variable,
    // incident slot) — see loo_profile().  The cache is sized only when a
    // pair sweep actually runs (solves that truncate before the polish
    // never pay for it).
    if (loo_.empty() && incident_offset_.back() > 0) {
      loo_.resize(incident_offset_.back() * compiled_.max_label_count());
    }
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const VariableId u = edges[e].u;
      const VariableId v = edges[e].v;
      if (std::max(touched_stamp_[u], touched_stamp_[v]) <= edge_scan_stamp_[e]) continue;
      edge_scan_stamp_[e] = clock_;
      const std::size_t rows = compiled_.label_count(u);
      const std::size_t cols = compiled_.label_count(v);
      const Cost* fwd = compiled_.forward(e);
      const Cost* cost_u = loo_profile(u, edge_slot_u_[e], labels);
      const Cost* cost_v = loo_profile(v, edge_slot_v_[e], labels);
      Cost best = cost_u[labels[u]] + cost_v[labels[v]] +
                  fwd[static_cast<std::size_t>(labels[u]) * cols + labels[v]];
      // Exact skip: every joint cell is (cost_u[a] + cost_v[b]) + θ(a, b)
      // in every dispatch, and round-to-nearest addition is monotone in
      // each operand, so `bound` is at most every cell and
      // fl(cell + 1e-12) >= fl(bound + 1e-12) >= best.  No cell can then
      // pass the strict test below, and the block would leave the pair as
      // it is.  Costs are NaN-free, as the kernel contract assumes.
      const Cost bound = (*std::min_element(cost_u, cost_u + rows) +
                          *std::min_element(cost_v, cost_v + cols)) +
                         matrix_min_[edges[e].matrix];
      if (!(bound + 1e-12 < best)) continue;
      Label best_u = labels[u];
      Label best_v = labels[v];
      // Joint block built wide in one fused call; the first-wins argmin
      // scan stays scalar — its tie rule (strictly-better-by-1e-12,
      // earliest pair) is positional and must match the historical
      // row-major traversal exactly.
      Cost* joint = joint_.data();
      k_.joint_block(joint, cost_v, cost_u, fwd, rows, cols);
      for (std::size_t a = 0; a < rows; ++a) {
        const Cost* joint_row = joint + a * cols;
        for (std::size_t b = 0; b < cols; ++b) {
          if (joint_row[b] + 1e-12 < best) {
            best = joint_row[b];
            best_u = static_cast<Label>(a);
            best_v = static_cast<Label>(b);
          }
        }
      }
      if (best_u != labels[u] || best_v != labels[v]) {
        labels[u] = best_u;
        labels[v] = best_v;
        changed = true;
        record_change(u);
        record_change(v);
      }
    }
    return changed;
  }

  /// One ICM (coordinate-descent) sweep over `labels`; returns whether any
  /// label changed.  Used to polish the extracted primal: message-passing
  /// rounding can leave single-variable improvements on the table.
  bool icm_sweep(std::vector<Label>& labels) const {
    bool changed = false;
    Cost* score = score_.data();
    for (VariableId i = 0; i < n_; ++i) {
      if (touched_stamp_[i] <= var_scan_stamp_[i]) continue;
      var_scan_stamp_[i] = clock_;
      const std::size_t count = compiled_.label_count(i);
      const Cost** rows = rows_.data();
      std::size_t r = 0;
      rows[r++] = compiled_.unary(i);
      for (const CompiledIncident& in : compiled_.incident(i)) {
        rows[r++] = in.recv + static_cast<std::size_t>(labels[in.other]) * count;
      }
      k_.sum_rows(score, rows, r, count);
      const auto best = static_cast<Label>(std::min_element(score, score + count) - score);
      if (best != labels[i] && score[best] < score[labels[i]]) {
        labels[i] = best;
        changed = true;
        record_change(i);
      }
    }
    return changed;
  }

 private:
  /// Marks a polish label change of variable i: bumps the global change
  /// clock and stamps i plus every neighbour as touched — exactly the
  /// variables whose icm/pair scans read labels[i].
  void record_change(VariableId i) const {
    ++clock_;
    touched_stamp_[i] = clock_;
    for (const CompiledIncident& in : compiled_.incident(i)) touched_stamp_[in.other] = clock_;
  }

  /// Leave-one-out conditional profile of variable i excluding its
  /// incident edge at `slot`: unary + Σ recv rows of the other incident
  /// edges at the current neighbour labels.  All deg profiles of a
  /// variable are built together in O(deg·L) by one fused prefix/suffix
  /// fold (the `loo_profiles` kernel) — O(deg²·L) per-edge recomputation
  /// was the polish bottleneck — and cached until a neighbour's label
  /// changes (the profile never depends on labels[i] itself, so the
  /// touched stamp is a conservative guard).  The kernel fixes the fold
  /// order, so results stay deterministic and dispatch-bit-identical.
  const Cost* loo_profile(VariableId i, std::size_t slot, const std::vector<Label>& labels) const {
    const std::size_t stride = compiled_.max_label_count();
    Cost* base = loo_.data() + incident_offset_[i] * stride;
    if (touched_stamp_[i] > loo_stamp_[i]) {
      loo_stamp_[i] = clock_;
      const std::size_t count = compiled_.label_count(i);
      const Cost** rows = rows_.data();
      std::size_t r = 0;
      for (const CompiledIncident& in : compiled_.incident(i)) {
        rows[r++] = in.recv + static_cast<std::size_t>(labels[in.other]) * count;
      }
      k_.loo_profiles(base, stride, compiled_.unary(i), rows, r, count);
    }
    return base + slot * stride;
  }

  void build_gamma() {
    gamma_.assign(n_, 1.0);
    for (VariableId i = 0; i < n_; ++i) {
      std::size_t later = 0;
      std::size_t earlier = 0;
      for (const CompiledIncident& in : compiled_.incident(i)) {
        (in.other > i ? later : earlier) += 1;
      }
      const std::size_t denom = std::max(later, earlier);
      gamma_[i] = denom == 0 ? 1.0 : 1.0 / static_cast<double>(denom);
    }
  }

  /// BFS spanning forest over the MRF adjacency; parallel edges beyond the
  /// first and all non-forest edges become chords.
  void build_forest() {
    forest_parent_.assign(n_, kNoParent);
    forest_edge_.assign(n_, 0);
    std::vector<bool> visited(n_, false);
    std::vector<bool> edge_in_forest(compiled_.edge_count(), false);
    forest_order_.clear();
    forest_order_.reserve(n_);
    for (VariableId seed = 0; seed < n_; ++seed) {
      if (visited[seed]) continue;
      visited[seed] = true;
      std::size_t frontier_begin = forest_order_.size();
      forest_order_.push_back(seed);
      while (frontier_begin < forest_order_.size()) {
        const VariableId u = forest_order_[frontier_begin++];
        for (const CompiledIncident& in : compiled_.incident(u)) {
          if (visited[in.other]) continue;
          visited[in.other] = true;
          forest_parent_[in.other] = u;
          forest_edge_[in.other] = in.edge;
          edge_in_forest[in.edge] = true;
          forest_order_.push_back(in.other);
        }
      }
    }
    chord_edges_.clear();
    for (std::size_t e = 0; e < compiled_.edge_count(); ++e) {
      if (!edge_in_forest[e]) chord_edges_.push_back(e);
    }
  }

  /// Processes variable i in a sweep: aggregates θ̂_i, then updates the
  /// messages towards neighbours on the sweep's leading side.
  void process(VariableId i, bool send_to_later) {
    const std::size_t count = compiled_.label_count(i);
    Cost* d = scratch_d_.data();
    aggregate(k_, compiled_, i, messages_.data(), d, rows_.data());
    const double gamma = gamma_[i];

    for (const CompiledIncident& in : compiled_.incident(i)) {
      const bool is_later = in.other > i;
      if (is_later != send_to_later) continue;

      const Cost* reverse = messages_.data() + in.msg_in;  // M_{j→i}
      Cost* out = messages_.data() + in.msg_out;
      const std::size_t out_count = compiled_.label_count(in.other);
      // Fused γ·θ̂ − M reparameterisation + min-convolution; `send` rows
      // are contiguous over the neighbour's labels in both orientations
      // (transposed cache), so one kernel covers both.
      const Cost delta = k_.min_convolve2(out, in.send, gamma, d, reverse, count, out_count);
      // Normalise to min 0 to keep message magnitudes bounded.
      k_.sub_scalar(out, delta, out_count);
    }
  }

  static constexpr VariableId kNoParent = static_cast<VariableId>(-1);

  const CompiledMrf& compiled_;
  const std::size_t n_;
  /// Active SIMD kernel table, resolved once per solve (DESIGN.md §14).
  const support::simd::Kernels& k_;
  std::vector<double> gamma_;
  std::vector<Cost> messages_;
  std::vector<Cost> scratch_d_;
  // Per-call scratch hoisted out of the iteration loops (mutable: the
  // queries are logically const).
  mutable std::vector<Cost> score_;
  mutable std::vector<Cost> fold_;
  mutable std::vector<Cost> joint_;
  mutable std::vector<Cost> node_cost_;
  mutable std::vector<const Cost*> rows_;  ///< sum_rows pointer scratch
  // Version stamps pruning redundant polish rescans (see pair_sweep) and
  // the leave-one-out profile cache (see loo_profile).
  mutable std::uint64_t clock_ = 1;
  mutable std::vector<std::uint64_t> touched_stamp_;    ///< per variable
  mutable std::vector<std::uint64_t> var_scan_stamp_;   ///< icm, per variable
  mutable std::vector<std::uint64_t> edge_scan_stamp_;  ///< pair, per edge
  mutable std::vector<std::uint64_t> loo_stamp_;        ///< per variable
  mutable std::vector<Cost> loo_;  ///< (incident slot) × max_labels profiles
  std::vector<std::size_t> incident_offset_;  ///< CSR offsets into loo_
  std::vector<std::size_t> edge_slot_u_;      ///< edge → slot in u's incident list
  std::vector<std::size_t> edge_slot_v_;      ///< edge → slot in v's incident list
  std::vector<Cost> matrix_min_;              ///< min entry per shared matrix
  // Spanning forest for the lower bound (see lower_bound()).
  std::vector<VariableId> forest_parent_;
  std::vector<std::size_t> forest_edge_;   ///< edge to parent, per non-root
  std::vector<VariableId> forest_order_;   ///< BFS order, roots first
  std::vector<std::size_t> chord_edges_;
};

}  // namespace

SolveResult TrwsSolver::solve(const Mrf& mrf, const SolveOptions& options) const {
  const CompiledMrf compiled(mrf);
  return solve_compiled(compiled, options);
}

SolveResult TrwsSolver::solve_compiled(const CompiledMrf& compiled,
                                       const SolveOptions& options) const {
  support::Stopwatch watch;
  const Mrf& mrf = compiled.mrf();
  SolveResult result;
  result.labels.assign(mrf.variable_count(), 0);
  if (mrf.variable_count() == 0) {
    result.energy = 0;
    result.lower_bound = 0;
    result.converged = true;
    return result;
  }
  result.energy = mrf.energy(result.labels);

  Machine machine(compiled);
  Cost previous_bound = -std::numeric_limits<Cost>::infinity();

  for (std::size_t iteration = 1; iteration <= options.max_iterations; ++iteration) {
    if (options.cancel.expired()) {
      result.truncated = true;
      break;
    }
    machine.sweep(/*ascending=*/true);
    if (options.cancel.expired()) {
      result.truncated = true;
      break;
    }
    machine.sweep(/*ascending=*/false);

    const Cost bound = machine.lower_bound();
    result.lower_bound = std::max(result.lower_bound, bound);

    std::vector<Label> labels = machine.extract();
    const Cost energy = mrf.energy(labels);
    if (energy < result.energy) {
      result.energy = energy;
      result.labels = std::move(labels);
    }
    result.iterations = iteration;

    support::LogLine(support::LogLevel::Debug)
        << "trws iter " << iteration << ": bound=" << bound << " energy=" << result.energy;

    // Converged: the dual stalled and the primal already matches it (or the
    // dual improvement fell below tolerance).
    if (std::abs(bound - previous_bound) < options.tolerance) {
      result.converged = true;
      break;
    }
    if (result.energy - bound < options.tolerance) {
      result.converged = true;
      break;
    }
    previous_bound = bound;
  }

  // No polish on truncation: it is a full pass over the model, exactly the
  // work an expired deadline says we no longer have time for.
  if (result.truncated) {
    result.seconds = watch.seconds();
    return result;
  }

  // Polish the best rounding once: coordinate descent, then joint edge
  // moves for frustrated (anti-Potts) cycles, repeated until stable.  All
  // moves are monotone, so this can only improve the primal.
  {
    std::vector<Label> labels = result.labels;
    for (int round = 0; round < 3; ++round) {
      bool changed = false;
      for (int sweep = 0; sweep < 4 && machine.icm_sweep(labels); ++sweep) changed = true;
      if (machine.pair_sweep(labels)) changed = true;
      if (!changed) break;
    }
    const Cost energy = mrf.energy(labels);
    if (energy < result.energy) {
      result.energy = energy;
      result.labels = std::move(labels);
    }
  }

  result.seconds = watch.seconds();
  return result;
}

}  // namespace icsdiv::mrf
