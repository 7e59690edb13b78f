#include "nvd/synthetic.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>

#include "nvd/cvss.hpp"
#include "support/rng.hpp"

namespace icsdiv::nvd {

void OverlapSpec::validate() const {
  const std::size_t n = products.size();
  require(n > 0, "OverlapSpec::validate", "spec must contain products");
  require(totals.size() == n, "OverlapSpec::validate", "totals size must match products");

  std::vector<std::size_t> allocated(n, 0);
  for (const OverlapBlock& block : blocks) {
    require(block.members.size() >= 2, "OverlapSpec::validate",
            "blocks must span at least two products");
    require(std::is_sorted(block.members.begin(), block.members.end()) &&
                std::adjacent_find(block.members.begin(), block.members.end()) ==
                    block.members.end(),
            "OverlapSpec::validate", "block members must be strictly increasing");
    require(block.members.back() < n, "OverlapSpec::validate", "block member out of range");
    require(block.count > 0, "OverlapSpec::validate", "blocks must be non-empty");
    for (std::size_t member : block.members) allocated[member] += block.count;
  }
  for (std::size_t i = 0; i < n; ++i) {
    require(allocated[i] <= totals[i], "OverlapSpec::validate",
            "product '" + products[i].name + "' has more shared vulnerabilities than its total");
  }
}

std::vector<std::size_t> OverlapSpec::implied_shared_matrix() const {
  validate();
  const std::size_t n = products.size();
  std::vector<std::size_t> shared(n * n, 0);
  for (std::size_t i = 0; i < n; ++i) shared[i * n + i] = totals[i];
  for (const OverlapBlock& block : blocks) {
    for (std::size_t a = 0; a < block.members.size(); ++a) {
      for (std::size_t b = a + 1; b < block.members.size(); ++b) {
        const std::size_t i = block.members[a];
        const std::size_t j = block.members[b];
        shared[i * n + j] += block.count;
        shared[j * n + i] += block.count;
      }
    }
  }
  return shared;
}

SimilarityTable OverlapSpec::implied_similarity_table() const {
  const std::size_t n = products.size();
  std::vector<std::size_t> shared = implied_shared_matrix();
  std::vector<double> similarity(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    similarity[i * n + i] = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::size_t common = shared[i * n + j];
      const std::size_t together = totals[i] + totals[j] - common;
      const double sim =
          together == 0 ? 0.0 : static_cast<double>(common) / static_cast<double>(together);
      similarity[i * n + j] = similarity[j * n + i] = sim;
    }
  }
  std::vector<std::string> names;
  names.reserve(n);
  for (const ProductRef& product : products) names.push_back(product.name);
  return SimilarityTable(std::move(names), totals, std::move(shared), std::move(similarity));
}

VulnerabilityDatabase generate_feed(const OverlapSpec& spec) {
  // The paper studies the NVD entries of 1999–2016.
  constexpr int kYearFrom = 1999;
  constexpr int kYearTo = 2016;
  constexpr std::uint64_t kSeed = 7;
  spec.validate();

  support::Rng rng(kSeed);
  VulnerabilityDatabase db;
  std::map<int, std::size_t> next_sequence;  // per-year CVE numbering

  const auto emit = [&](const std::vector<std::size_t>& members) {
    const int year = static_cast<int>(rng.uniform_int(kYearFrom, kYearTo));
    std::size_t& seq = next_sequence[year];
    seq += 1;
    std::array<char, 32> id{};
    std::snprintf(id.data(), id.size(), "CVE-%04d-%04zu", year, seq);

    CveEntry entry;
    entry.id = id.data();
    entry.year = year;
    // Internally-consistent CVSS v2 vector + base score: draw a random
    // vector biased towards network-exploitable, partial-impact entries —
    // the realistic bulk of the NVD.
    CvssV2Vector vector;
    vector.access_vector = rng.bernoulli(0.8) ? AccessVector::Network
                           : rng.bernoulli(0.5) ? AccessVector::AdjacentNetwork
                                                : AccessVector::Local;
    vector.access_complexity = rng.bernoulli(0.5)   ? AccessComplexity::Low
                               : rng.bernoulli(0.7) ? AccessComplexity::Medium
                                                    : AccessComplexity::High;
    vector.authentication = rng.bernoulli(0.85) ? Authentication::None : Authentication::Single;
    const auto impact = [&rng] {
      return rng.bernoulli(0.45)   ? ImpactLevel::Partial
             : rng.bernoulli(0.55) ? ImpactLevel::Complete
                                   : ImpactLevel::None;
    };
    vector.confidentiality = impact();
    vector.integrity = impact();
    vector.availability = impact();
    entry.cvss_vector = vector.to_string();
    entry.cvss = vector.base_score();
    entry.affected.reserve(members.size());
    for (std::size_t member : members) entry.affected.push_back(spec.products[member].cpe);
    db.add(std::move(entry));
  };

  std::vector<std::size_t> allocated(spec.products.size(), 0);
  for (const OverlapBlock& block : spec.blocks) {
    for (std::size_t k = 0; k < block.count; ++k) emit(block.members);
    for (std::size_t member : block.members) allocated[member] += block.count;
  }
  for (std::size_t i = 0; i < spec.products.size(); ++i) {
    const std::size_t unique = spec.totals[i] - allocated[i];
    const std::vector<std::size_t> only{i};
    for (std::size_t k = 0; k < unique; ++k) emit(only);
  }
  return db;
}

}  // namespace icsdiv::nvd
