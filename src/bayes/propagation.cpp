#include "bayes/propagation.hpp"

namespace icsdiv::bayes {

double edge_infection_rate(const core::SharedServices& shared, core::HostId u, core::HostId v,
                           const PropagationModel& model) {
  if (!model.consider_similarity) return model.p_avg;
  double miss = 1.0 - model.p_avg;
  shared.for_each(u, v, [&](double similarity, bool) {
    miss *= 1.0 - model.similarity_weight * similarity;
  });
  return 1.0 - miss;
}

}  // namespace icsdiv::bayes
