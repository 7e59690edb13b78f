// The BN-based network diversity metric d_bn (Def. 6).
//
//   d_bn = P'(target = T) / P(target = T)
//
// where P is the compromise probability of the target considering the
// vulnerability similarity of the assigned products, and P' the same
// probability with every edge at the flat baseline rate P_avg (the
// assignment-independent "maximum potential of the network diversity").
// d_bn ∈ (0, 1]; larger means the assignment extracts more of the
// topology's diversity potential (Table V of the paper).
#pragma once

#include "bayes/compiled.hpp"

namespace icsdiv::bayes {

struct DiversityMetricResult {
  double p_with_similarity = 0.0;     ///< P_{h_t = T}
  double p_without_similarity = 0.0;  ///< P'_{h_t = T}
  double d_bn = 0.0;

  [[nodiscard]] double log10_with() const;
  [[nodiscard]] double log10_without() const;
};

/// Evaluates Def. 6 for (entry → target) under `assignment`, with the
/// default PropagationModel.
[[nodiscard]] DiversityMetricResult bn_diversity_metric(const core::Assignment& assignment,
                                                        core::HostId entry, core::HostId target,
                                                        const InferenceOptions& inference = {});

}  // namespace icsdiv::bayes
