// The zero-day propagation model shared by the BN metric (§VI) and the
// agent-based simulator (§VII-C2).
//
// The attacker holds one zero-day exploit per service category (the case
// study assumes three: OS, WB, DB).  From a compromised host u, a linked
// host v can be infected through:
//
//  * a *similarity channel* per shared service s — the exploit used on
//    α'(u,s) also works on α'(v,s) with probability proportional to the
//    vulnerability similarity of the two products (Def. 1); and
//  * a *baseline channel* — the paper's "average zero-day propagation
//    rate" P_avg, the residual success rate that exists regardless of the
//    product assignment (this is what the no-similarity variant of the BN
//    uses exclusively, making P' an assignment-independent floor and
//    d_bn = P'/P ≤ 1 as required by Def. 6).
//
// The channels combine as independent alternatives (noisy-OR):
//
//   r(u,v) = 1 − (1 − P_avg) · Π_s (1 − w · sim(α'(u,s), α'(v,s)))
//
// with w = `similarity_weight`.  The paper does not publish its exact
// parameterisation; our defaults are calibrated so the case study lands in
// the paper's reported ranges (see EXPERIMENTS.md): the BN metric uses
// w ≈ P_avg (a per-evaluation-window propagation rate), the simulator uses
// a larger per-attempt weight.
#pragma once

#include "core/metrics.hpp"

namespace icsdiv::bayes {

struct PropagationModel {
  /// Baseline channel: average zero-day propagation rate P_avg.
  double p_avg = 0.07;
  /// Similarity channel weight w.
  double similarity_weight = 0.07;
  /// When false, every edge has rate exactly P_avg (the P' variant).
  bool consider_similarity = true;
};

/// Noisy-OR edge infection rate r(u, v) under the model, over the
/// similarity channels `shared` lists from u towards v: the product of
/// the misses 1 − w·sim is taken in the order of u's services.  Callers
/// build the table once per assignment and rate every edge from it.
[[nodiscard]] double edge_infection_rate(const core::SharedServices& shared, core::HostId u,
                                         core::HostId v, const PropagationModel& model);

}  // namespace icsdiv::bayes
