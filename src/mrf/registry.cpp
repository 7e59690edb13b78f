#include "mrf/registry.hpp"

#include <iterator>

#include "mrf/exhaustive.hpp"
#include "mrf/icm.hpp"
#include "mrf/trws.hpp"

namespace icsdiv::mrf {

namespace {

struct Entry {
  std::string_view name;
  std::unique_ptr<Solver> (*make)();
};

template <typename S>
std::unique_ptr<Solver> make() {
  return std::make_unique<S>();
}

/// Sorted by name, the order names() reports.
constexpr Entry kSolvers[] = {
    {"exhaustive", make<ExhaustiveSolver>},
    {"icm", make<IcmSolver>},
    {"trws", make<TrwsSolver>},
};

const Entry* find(std::string_view name) noexcept {
  for (const Entry& entry : kSolvers) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

}  // namespace

const SolverRegistry& SolverRegistry::instance() {
  static const SolverRegistry registry{};
  return registry;
}

std::unique_ptr<Solver> SolverRegistry::create(std::string_view name) const {
  require_known(name);
  return find(name)->make();
}

void SolverRegistry::require_known(std::string_view name) const {
  if (find(name) == nullptr) {
    throw InvalidArgument("unknown solver: " + std::string(name) +
                          " (registered: " + names_joined(", ") + ")");
  }
}

bool SolverRegistry::contains(std::string_view name) const noexcept {
  return find(name) != nullptr;
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(std::size(kSolvers));
  for (const Entry& entry : kSolvers) result.emplace_back(entry.name);
  return result;
}

std::string SolverRegistry::names_joined(std::string_view separator) const {
  std::string result;
  for (const Entry& entry : kSolvers) {
    if (!result.empty()) result += separator;
    result += entry.name;
  }
  return result;
}

}  // namespace icsdiv::mrf
