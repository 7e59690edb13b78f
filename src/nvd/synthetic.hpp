// Synthetic NVD feed generation.
//
// We cannot query the live NVD offline, so the reproduction generates a
// concrete CVE corpus whose *statistics match the paper's published
// numbers*: per-product vulnerability totals (the diagonals of Tables
// II/III) and shared-vulnerability block sizes (the off-diagonal counts).
// The Jaccard pipeline (database → CPE filter → set intersection) then
// recomputes the published similarity values from raw synthetic entries,
// exercising exactly the code path the paper ran against the real NVD.
//
// An OverlapSpec describes the corpus as a union of *blocks*: a block is a
// set of ≥2 products plus the number of CVEs shared by precisely those
// products; the remainder of each product's total becomes product-unique
// entries.  Pairwise counts then satisfy
//     shared(i, j) = Σ { block.count : {i, j} ⊆ block.members }.
// Most tables need only 2-product blocks; the Windows 7/8.1/10 family
// additionally needs one 3-product block (see DESIGN.md).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "nvd/cpe.hpp"
#include "nvd/database.hpp"
#include "nvd/similarity.hpp"

namespace icsdiv::nvd {

struct OverlapBlock {
  std::vector<std::size_t> members;  ///< product indices, ≥2, strictly increasing
  std::size_t count = 0;             ///< CVEs shared by exactly these products
};

struct OverlapSpec {
  std::vector<ProductRef> products;
  std::vector<std::size_t> totals;   ///< |V_i| per product
  std::vector<OverlapBlock> blocks;

  /// Throws InvalidArgument when any product's block allocation exceeds its
  /// total, a block is degenerate, or an index is out of range.
  void validate() const;

  /// Analytic pairwise shared counts implied by the blocks (n×n symmetric,
  /// diagonal = totals).
  [[nodiscard]] std::vector<std::size_t> implied_shared_matrix() const;

  /// Builds the similarity table implied by the spec *without* generating
  /// entries — exact and fast; used as the library's built-in tables.
  [[nodiscard]] SimilarityTable implied_similarity_table() const;
};

/// Generates a concrete database realising the spec: every block becomes
/// `count` CVE entries affecting all its members' CPEs; per-product
/// remainders become single-product entries.  Years (in the paper's
/// 1999–2016 window) and CVSS scores are drawn from a fixed seed, so the
/// feed is a pure function of the spec.
[[nodiscard]] VulnerabilityDatabase generate_feed(const OverlapSpec& spec);

}  // namespace icsdiv::nvd
