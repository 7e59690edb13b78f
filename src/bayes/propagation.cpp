#include "bayes/propagation.hpp"

namespace icsdiv::bayes {

namespace {

/// Visits each u→v similarity channel's success probability, in the
/// shared-service order of `network.services_of(u)`.
template <typename Visitor>
void for_each_channel(const core::Assignment& assignment, core::HostId u, core::HostId v,
                      const PropagationModel& model, Visitor&& visit) {
  const core::Network& network = assignment.network();
  const core::ProductCatalog& catalog = network.catalog();
  for (const core::ServiceInstance& instance : network.services_of(u)) {
    if (!network.host_runs(v, instance.service)) continue;
    const auto product_u = assignment.product_of(u, instance.service);
    const auto product_v = assignment.product_of(v, instance.service);
    if (!product_u || !product_v) continue;
    const double sim = catalog.similarity(*product_u, *product_v);
    visit(model.similarity_weight * sim);
  }
}

}  // namespace

std::size_t append_similarity_probabilities(const core::Assignment& assignment, core::HostId u,
                                            core::HostId v, const PropagationModel& model,
                                            std::vector<double>& out) {
  std::size_t appended = 0;
  for_each_channel(assignment, u, v, model, [&](double probability) {
    out.push_back(probability);
    ++appended;
  });
  return appended;
}

double edge_infection_rate(const core::Assignment& assignment, core::HostId u, core::HostId v,
                           const PropagationModel& model) {
  if (!model.consider_similarity) return model.p_avg;
  double miss = 1.0 - model.p_avg;
  for_each_channel(assignment, u, v, model, [&](double probability) { miss *= 1.0 - probability; });
  return 1.0 - miss;
}

}  // namespace icsdiv::bayes
