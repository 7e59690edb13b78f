#include "core/problem.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <unordered_map>

namespace icsdiv::core {

namespace {

/// Pr_const of Eq. 2: flat preference cost per assigned product.
constexpr double kUnaryConstant = 0.01;
/// Soft co-occurrence penalty of the ConditionalUnary encoding when the
/// trigger is not pinned (split across the trigger and partner labels).
constexpr double kConditionalUnaryPenalty = 2.0;

}  // namespace

DiversificationProblem::DiversificationProblem(const Network& network, ConstraintSet constraints,
                                               ProblemOptions options)
    : network_(&network), constraints_(std::move(constraints)), options_(std::move(options)) {
  constraints_.validate(network);
  build_variables();
  build_service_edges();
  build_constraint_factors();
}

DiversificationProblem::DiversificationProblem(std::shared_ptr<const Network> network,
                                               ConstraintSet constraints, ProblemOptions options)
    : DiversificationProblem(
          (require(network != nullptr, "DiversificationProblem", "network must not be null"),
           *network),
          std::move(constraints), std::move(options)) {
  network_owner_ = std::move(network);
}

void DiversificationProblem::build_variables() {
  const std::size_t host_count = network_->host_count();

  // Bucket the fixed assignments by host (a stable counting sort), so each
  // slot reads only its own host's pins, in their original order.
  const std::vector<FixedAssignment>& fixed = constraints_.fixed();
  std::vector<std::size_t> pins_begin(host_count + 1, 0);
  for (const FixedAssignment& pin : fixed) ++pins_begin[pin.host + 1];
  std::partial_sum(pins_begin.begin(), pins_begin.end(), pins_begin.begin());
  std::vector<const FixedAssignment*> pins(fixed.size());
  std::vector<std::size_t> cursor = pins_begin;
  for (const FixedAssignment& pin : fixed) pins[cursor[pin.host]++] = &pin;

  std::map<std::vector<ProductId>, std::uint32_t> range_ids;
  std::vector<ProductId> pinned;
  first_variable_.reserve(host_count + 1);
  for (HostId host = 0; host < host_count; ++host) {
    first_variable_.push_back(static_cast<mrf::VariableId>(mrf_.variable_count()));
    const auto services = network_->services_of(host);
    for (std::size_t slot = 0; slot < services.size(); ++slot) {
      const ServiceInstance& instance = services[slot];

      // Fixed-host constraints restrict the label set to one product.
      const std::vector<ProductId>* candidates = &instance.candidates;
      for (std::size_t p = pins_begin[host]; p < pins_begin[host + 1]; ++p) {
        const FixedAssignment& pin = *pins[p];
        if (pin.service != instance.service) continue;
        if (std::find(candidates->begin(), candidates->end(), pin.product) ==
            candidates->end()) {
          throw Infeasible("DiversificationProblem: fixed product '" +
                           network_->catalog().product(pin.product).name +
                           "' is not a candidate on host '" + network_->host_name(host) + "'");
        }
        pinned.assign(1, pin.product);
        candidates = &pinned;
      }

      const auto [range, inserted] =
          range_ids.try_emplace(*candidates, static_cast<std::uint32_t>(ranges_.size()));
      if (inserted) ranges_.push_back(*candidates);

      const mrf::VariableId variable = mrf_.add_variable(candidates->size());
      // Eq. 2: flat preference cost Pr_const for every choice.
      for (auto& cost : mrf_.unary(variable)) cost = kUnaryConstant;
      range_of_.push_back(range->second);
      slot_of_variable_.emplace_back(host, slot);
    }
  }
  first_variable_.push_back(static_cast<mrf::VariableId>(mrf_.variable_count()));
}

void DiversificationProblem::build_service_edges() {
  const ProductCatalog& catalog = network_->catalog();

  // Share one matrix per (ordered) pair of label ranges: on the random
  // networks of §VIII every host has identical ranges, so each service
  // contributes exactly one matrix regardless of edge count.  Matrices are
  // created in first-use order, which fixes every MatrixId.
  std::unordered_map<std::uint64_t, mrf::MatrixId> cache;
  const auto similarity_matrix = [&](mrf::VariableId u, mrf::VariableId v) {
    const std::uint64_t cache_key = (std::uint64_t{range_of_[u]} << 32) | range_of_[v];
    if (const auto it = cache.find(cache_key); it != cache.end()) return it->second;
    const std::vector<ProductId>& rows = label_products(u);
    const std::vector<ProductId>& cols = label_products(v);
    std::vector<mrf::Cost> data;
    data.reserve(rows.size() * cols.size());
    for (ProductId a : rows) {
      for (ProductId b : cols) data.push_back(catalog.similarity(a, b));
    }
    const mrf::MatrixId id = mrf_.add_matrix(rows.size(), cols.size(), std::move(data));
    cache.emplace(cache_key, id);
    return id;
  };

  // Eq. 3: one factor per link per service shared by both endpoints.
  for (const graph::Edge& link : network_->topology().edges()) {
    const auto services_u = network_->services_of(link.u);
    for (std::size_t slot_u = 0; slot_u < services_u.size(); ++slot_u) {
      const auto slot_v = network_->service_slot(link.v, services_u[slot_u].service);
      if (!slot_v) continue;
      const mrf::VariableId var_u = first_variable_[link.u] + slot_u;
      const mrf::VariableId var_v = first_variable_[link.v] + *slot_v;
      mrf_.add_edge(var_u, var_v, similarity_matrix(var_u, var_v));
    }
  }
}

void DiversificationProblem::build_constraint_factors() {
  const auto apply_to_host = [&](const PairConstraint& pair, HostId host) {
    const auto trigger_slot = network_->service_slot(host, pair.trigger_service);
    const auto partner_slot = network_->service_slot(host, pair.partner_service);
    if (!trigger_slot || !partner_slot) return;
    const mrf::VariableId trigger_var = first_variable_[host] + *trigger_slot;
    const mrf::VariableId partner_var = first_variable_[host] + *partner_slot;
    const auto& trigger_labels = label_products(trigger_var);
    const auto& partner_labels = label_products(partner_var);

    const auto trigger_index = [&]() -> std::optional<std::size_t> {
      const auto it =
          std::find(trigger_labels.begin(), trigger_labels.end(), pair.trigger_product);
      if (it == trigger_labels.end()) return std::nullopt;
      return static_cast<std::size_t>(it - trigger_labels.begin());
    }();
    if (!trigger_index) return;  // trigger product not available here: vacuous

    const auto forbidden_partner = [&](ProductId partner) {
      return pair.polarity == ConstraintPolarity::Forbid ? partner == pair.partner_product
                                                         : partner != pair.partner_product;
    };

    if (options_.encoding == ConstraintEncoding::IntraHostPairwise) {
      std::vector<mrf::Cost> data(trigger_labels.size() * partner_labels.size(), 0.0);
      for (std::size_t b = 0; b < partner_labels.size(); ++b) {
        if (forbidden_partner(partner_labels[b])) {
          data[*trigger_index * partner_labels.size() + b] = mrf::kForbidden;
        }
      }
      const mrf::MatrixId matrix =
          mrf_.add_matrix(trigger_labels.size(), partner_labels.size(), std::move(data));
      mrf_.add_edge(trigger_var, partner_var, matrix);
      ++intra_host_edges_;
      return;
    }

    // ConditionalUnary (§V-A): exact only when the trigger is pinned.
    if (trigger_labels.size() == 1) {
      for (std::size_t b = 0; b < partner_labels.size(); ++b) {
        if (forbidden_partner(partner_labels[b])) {
          mrf_.add_to_unary(partner_var, static_cast<mrf::Label>(b), mrf::kForbidden);
        }
      }
      return;
    }
    // Soft approximation: discourage the trigger label and the banned
    // partner labels independently.
    const double half = kConditionalUnaryPenalty / 2.0;
    mrf_.add_to_unary(trigger_var, static_cast<mrf::Label>(*trigger_index), half);
    for (std::size_t b = 0; b < partner_labels.size(); ++b) {
      if (forbidden_partner(partner_labels[b])) {
        mrf_.add_to_unary(partner_var, static_cast<mrf::Label>(b), half);
      }
    }
  };

  for (const PairConstraint& pair : constraints_.pairs()) {
    if (pair.host != kAllHosts) {
      apply_to_host(pair, pair.host);
    } else {
      for (HostId host = 0; host < network_->host_count(); ++host) apply_to_host(pair, host);
    }
  }
}

mrf::VariableId DiversificationProblem::variable_of(HostId host, std::size_t slot) const {
  require(host < first_variable_.size() - 1, "DiversificationProblem::variable_of",
          "unknown host id");
  require(slot < first_variable_[host + 1] - first_variable_[host],
          "DiversificationProblem::variable_of", "slot out of range");
  return first_variable_[host] + static_cast<mrf::VariableId>(slot);
}

std::span<const ProductId> DiversificationProblem::labels_of(mrf::VariableId variable) const {
  require(variable < range_of_.size(), "DiversificationProblem::labels_of",
          "unknown variable id");
  return label_products(variable);
}

Assignment DiversificationProblem::decode(std::span<const mrf::Label> labels) const {
  mrf_.check_labeling(labels);
  Assignment assignment(*network_);
  for (mrf::VariableId variable = 0; variable < range_of_.size(); ++variable) {
    const auto [host, slot] = slot_of_variable_[variable];
    const ServiceInstance& instance = network_->services_of(host)[slot];
    assignment.assign(host, instance.service, label_products(variable)[labels[variable]]);
  }
  return assignment;
}

std::vector<mrf::Label> DiversificationProblem::encode(const Assignment& assignment) const {
  assignment.validate();
  std::vector<mrf::Label> labels(range_of_.size(), 0);
  for (mrf::VariableId variable = 0; variable < range_of_.size(); ++variable) {
    const auto [host, slot] = slot_of_variable_[variable];
    const ServiceInstance& instance = network_->services_of(host)[slot];
    const auto product = assignment.product_of(host, instance.service);
    ensure(product.has_value(), "DiversificationProblem::encode", "incomplete assignment");
    const auto& candidates = label_products(variable);
    const auto it = std::find(candidates.begin(), candidates.end(), *product);
    require(it != candidates.end(), "DiversificationProblem::encode",
            "assignment uses a product excluded by the problem's constraints on host '" +
                network_->host_name(host) + "'");
    labels[variable] = static_cast<mrf::Label>(it - candidates.begin());
  }
  return labels;
}

mrf::Cost DiversificationProblem::energy_of(const Assignment& assignment) const {
  return mrf_.energy(encode(assignment));
}

}  // namespace icsdiv::core
