#include "nvd/similarity.hpp"

#include <algorithm>

namespace icsdiv::nvd {

std::size_t intersection_size(std::span<const std::string> a, std::span<const std::string> b) {
  std::size_t count = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++count;
      ++ia;
      ++ib;
    }
  }
  return count;
}

double jaccard_similarity(std::span<const std::string> a, std::span<const std::string> b) {
  const std::size_t shared = intersection_size(a, b);
  const std::size_t together = a.size() + b.size() - shared;
  if (together == 0) return 0.0;
  return static_cast<double>(shared) / static_cast<double>(together);
}

SimilarityTable::SimilarityTable(std::vector<std::string> product_names,
                                 std::vector<std::size_t> totals, std::vector<std::size_t> shared,
                                 std::vector<double> similarity)
    : names_(std::move(product_names)),
      totals_(std::move(totals)),
      shared_(std::move(shared)),
      similarity_(std::move(similarity)) {
  const std::size_t n = names_.size();
  require(n > 0, "SimilarityTable", "table must contain at least one product");
  require(totals_.size() == n, "SimilarityTable", "totals size mismatch");
  require(shared_.size() == n * n, "SimilarityTable", "shared matrix size mismatch");
  require(similarity_.size() == n * n, "SimilarityTable", "similarity matrix size mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      require(shared_[at(i, j)] == shared_[at(j, i)], "SimilarityTable",
              "shared matrix must be symmetric");
      require(similarity_[at(i, j)] == similarity_[at(j, i)], "SimilarityTable",
              "similarity matrix must be symmetric");
      require(similarity_[at(i, j)] >= 0.0 && similarity_[at(i, j)] <= 1.0, "SimilarityTable",
              "similarity must be in [0,1]");
    }
    require(shared_[at(i, i)] == totals_[i], "SimilarityTable",
            "diagonal of shared matrix must equal totals");
  }
  // Names must be unique: lookups are by name.
  std::vector<std::string> sorted = names_;
  std::sort(sorted.begin(), sorted.end());
  require(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(), "SimilarityTable",
          "product names must be unique");
}

SimilarityTable SimilarityTable::from_database(const VulnerabilityDatabase& db,
                                               std::span<const ProductRef> products,
                                               int year_from, int year_to) {
  require(!products.empty(), "SimilarityTable::from_database", "no products given");
  const std::size_t n = products.size();

  std::vector<std::vector<std::string>> sets;
  sets.reserve(n);
  std::vector<std::string> names;
  names.reserve(n);
  for (const ProductRef& product : products) {
    names.push_back(product.name);
    sets.push_back(db.vulnerability_ids(product.cpe, year_from, year_to));
  }

  std::vector<std::size_t> totals(n);
  std::vector<std::size_t> shared(n * n, 0);
  std::vector<double> similarity(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    totals[i] = sets[i].size();
    shared[i * n + i] = totals[i];
    similarity[i * n + i] = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::size_t common = intersection_size(sets[i], sets[j]);
      const double sim = jaccard_similarity(sets[i], sets[j]);
      shared[i * n + j] = shared[j * n + i] = common;
      similarity[i * n + j] = similarity[j * n + i] = sim;
    }
  }
  return SimilarityTable(std::move(names), std::move(totals), std::move(shared),
                         std::move(similarity));
}

std::size_t SimilarityTable::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  throw NotFound("SimilarityTable: unknown product '" + std::string(name) + "'");
}

double SimilarityTable::similarity(std::size_t i, std::size_t j) const {
  require(i < names_.size() && j < names_.size(), "SimilarityTable::similarity",
          "index out of range");
  return similarity_[at(i, j)];
}

double SimilarityTable::similarity(std::string_view a, std::string_view b) const {
  return similarity(index_of(a), index_of(b));
}

std::size_t SimilarityTable::shared_count(std::size_t i, std::size_t j) const {
  require(i < names_.size() && j < names_.size(), "SimilarityTable::shared_count",
          "index out of range");
  return shared_[at(i, j)];
}

std::size_t SimilarityTable::shared_count(std::string_view a, std::string_view b) const {
  return shared_count(index_of(a), index_of(b));
}

std::size_t SimilarityTable::total_count(std::size_t i) const {
  require(i < names_.size(), "SimilarityTable::total_count", "index out of range");
  return totals_[i];
}

std::size_t SimilarityTable::total_count(std::string_view name) const {
  return total_count(index_of(name));
}

support::Json SimilarityTable::to_json() const {
  const std::size_t n = names_.size();
  support::JsonArray names;
  for (const std::string& name : names_) names.emplace_back(name);
  support::JsonArray totals;
  for (std::size_t total : totals_) totals.emplace_back(total);
  support::JsonArray shared_rows;
  support::JsonArray similarity_rows;
  for (std::size_t i = 0; i < n; ++i) {
    support::JsonArray shared_row;
    support::JsonArray sim_row;
    for (std::size_t j = 0; j < n; ++j) {
      shared_row.emplace_back(shared_[at(i, j)]);
      sim_row.emplace_back(similarity_[at(i, j)]);
    }
    shared_rows.emplace_back(std::move(shared_row));
    similarity_rows.emplace_back(std::move(sim_row));
  }
  support::JsonObject root;
  root.set("products", support::Json(std::move(names)));
  root.set("totals", support::Json(std::move(totals)));
  root.set("shared", support::Json(std::move(shared_rows)));
  root.set("similarity", support::Json(std::move(similarity_rows)));
  return support::Json(std::move(root));
}

SimilarityTable SimilarityTable::from_json(const support::Json& json) {
  const auto& root = json.as_object();
  std::vector<std::string> names;
  for (const auto& name : root.at("products").as_array()) names.push_back(name.as_string());
  std::vector<std::size_t> totals;
  for (const auto& total : root.at("totals").as_array()) {
    totals.push_back(static_cast<std::size_t>(total.as_integer()));
  }
  const std::size_t n = names.size();
  std::vector<std::size_t> shared;
  shared.reserve(n * n);
  for (const auto& row : root.at("shared").as_array()) {
    for (const auto& cell : row.as_array()) {
      shared.push_back(static_cast<std::size_t>(cell.as_integer()));
    }
  }
  std::vector<double> similarity;
  similarity.reserve(n * n);
  for (const auto& row : root.at("similarity").as_array()) {
    for (const auto& cell : row.as_array()) similarity.push_back(cell.as_double());
  }
  return SimilarityTable(std::move(names), std::move(totals), std::move(shared),
                         std::move(similarity));
}

}  // namespace icsdiv::nvd
