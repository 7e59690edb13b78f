// Vulnerability-similarity metric (Def. 1) and similarity tables.
//
// sim(x_i, x_j) = |V_i ∩ V_j| / |V_i ∪ V_j|   (Jaccard coefficient)
//
// A SimilarityTable stores the pairwise similarities for a named family of
// products (one table per service in the paper: OS, web browser, database
// server) together with the shared-vulnerability counts and per-product
// totals so the paper's Tables II/III can be regenerated verbatim.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nvd/cpe.hpp"
#include "nvd/database.hpp"
#include "support/json.hpp"

namespace icsdiv::nvd {

/// Jaccard similarity of two sorted, de-duplicated id sets.
/// Empty-vs-empty is defined as 0 (no statistical evidence of similarity).
[[nodiscard]] double jaccard_similarity(std::span<const std::string> a,
                                        std::span<const std::string> b);

/// |a ∩ b| for sorted, de-duplicated id sets.
[[nodiscard]] std::size_t intersection_size(std::span<const std::string> a,
                                            std::span<const std::string> b);

/// A product row in a similarity table: display name plus the CPE query
/// used to collect its vulnerability set.
struct ProductRef {
  std::string name;  ///< e.g. "Win7"
  CpeUri cpe;        ///< e.g. cpe:/o:microsoft:windows_7
};

/// Symmetric pairwise similarity table with provenance counts.
class SimilarityTable {
 public:
  /// Builds from explicit data; `shared` and `similarity` are dense n×n
  /// row-major symmetric matrices, `totals` the per-product set sizes.
  SimilarityTable(std::vector<std::string> product_names, std::vector<std::size_t> totals,
                  std::vector<std::size_t> shared, std::vector<double> similarity);

  /// Runs Def. 1 for every pair over the database (the paper's pipeline).
  static SimilarityTable from_database(const VulnerabilityDatabase& db,
                                       std::span<const ProductRef> products,
                                       int year_from = 0, int year_to = 9999);

  [[nodiscard]] std::size_t product_count() const noexcept { return names_.size(); }
  [[nodiscard]] const std::vector<std::string>& product_names() const noexcept { return names_; }

  /// Index of a product name; throws NotFound.
  [[nodiscard]] std::size_t index_of(std::string_view name) const;

  [[nodiscard]] double similarity(std::size_t i, std::size_t j) const;
  [[nodiscard]] double similarity(std::string_view a, std::string_view b) const;
  [[nodiscard]] std::size_t shared_count(std::size_t i, std::size_t j) const;
  [[nodiscard]] std::size_t shared_count(std::string_view a, std::string_view b) const;
  [[nodiscard]] std::size_t total_count(std::size_t i) const;
  [[nodiscard]] std::size_t total_count(std::string_view name) const;

  [[nodiscard]] support::Json to_json() const;
  static SimilarityTable from_json(const support::Json& json);

 private:
  [[nodiscard]] std::size_t at(std::size_t i, std::size_t j) const {
    return i * names_.size() + j;
  }

  std::vector<std::string> names_;
  std::vector<std::size_t> totals_;
  std::vector<std::size_t> shared_;   ///< n×n, symmetric, diagonal = totals
  std::vector<double> similarity_;    ///< n×n, symmetric, diagonal = 1
};

}  // namespace icsdiv::nvd
