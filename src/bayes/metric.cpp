#include "bayes/metric.hpp"

#include <cmath>

namespace icsdiv::bayes {

double DiversityMetricResult::log10_with() const { return std::log10(p_with_similarity); }
double DiversityMetricResult::log10_without() const { return std::log10(p_without_similarity); }

DiversityMetricResult bn_diversity_metric(const core::Assignment& assignment, core::HostId entry,
                                          core::HostId target, const InferenceOptions& inference) {
  // One compiled substrate resolves both nets: the model's noisy-OR rates
  // (P) and the flat P_avg baseline (P') share the build — and, under the
  // Monte-Carlo engine, a single coupled sampling pass.
  const CompiledReliability compiled(assignment, entry);
  const core::HostId targets[] = {target};
  const ReliabilitySweep sweep = compiled.solve_targets(targets, inference);

  DiversityMetricResult result;
  result.p_with_similarity = sweep.p[target];
  result.p_without_similarity = sweep.p_baseline[target];
  require(result.p_with_similarity > 0.0, "bn_diversity_metric",
          "target is unreachable from the entry (P = 0); d_bn is undefined");
  result.d_bn = result.p_without_similarity / result.p_with_similarity;
  return result;
}

}  // namespace icsdiv::bayes
