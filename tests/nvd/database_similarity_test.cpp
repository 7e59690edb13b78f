// Vulnerability database, Jaccard similarity, similarity tables.
#include <gtest/gtest.h>

#include "nvd/database.hpp"
#include "nvd/similarity.hpp"

namespace icsdiv::nvd {
namespace {

CveEntry entry(const char* id, std::initializer_list<const char*> cpes, double cvss = 5.0) {
  CveEntry e;
  e.id = id;
  e.year = cve_year(id);
  e.cvss = cvss;
  for (const char* cpe : cpes) e.affected.push_back(CpeUri::parse(cpe));
  return e;
}

VulnerabilityDatabase sample_db() {
  VulnerabilityDatabase db;
  db.add(entry("CVE-2010-0001", {"cpe:/o:acme:alpha", "cpe:/o:acme:beta"}));
  db.add(entry("CVE-2011-0002", {"cpe:/o:acme:alpha"}));
  db.add(entry("CVE-2012-0003", {"cpe:/o:acme:beta", "cpe:/o:acme:gamma"}));
  db.add(entry("CVE-2013-0004", {"cpe:/o:acme:alpha", "cpe:/o:acme:beta",
                                 "cpe:/o:acme:gamma"}));
  db.add(entry("CVE-2014-0005", {"cpe:/o:other:delta"}));
  return db;
}

TEST(Database, AddAndQuery) {
  const VulnerabilityDatabase db = sample_db();
  EXPECT_EQ(db.size(), 5u);
  EXPECT_TRUE(db.contains("CVE-2010-0001"));
  EXPECT_FALSE(db.contains("CVE-2010-9999"));

  const auto alpha = db.vulnerability_ids(CpeUri::parse("cpe:/o:acme:alpha"));
  EXPECT_EQ(alpha, (std::vector<std::string>{"CVE-2010-0001", "CVE-2011-0002",
                                             "CVE-2013-0004"}));
}

TEST(Database, DuplicateIdRejected) {
  VulnerabilityDatabase db;
  db.add(entry("CVE-2010-0001", {"cpe:/o:acme:alpha"}));
  EXPECT_THROW(db.add(entry("CVE-2010-0001", {"cpe:/o:acme:beta"})),
               icsdiv::InvalidArgument);
}

TEST(Database, YearWindowFilters) {
  const VulnerabilityDatabase db = sample_db();
  const auto recent = db.vulnerability_ids(CpeUri::parse("cpe:/o:acme:alpha"), 2012, 2016);
  EXPECT_EQ(recent, (std::vector<std::string>{"CVE-2013-0004"}));
}

TEST(Database, JsonRoundTrip) {
  const VulnerabilityDatabase db = sample_db();
  const auto restored = VulnerabilityDatabase::from_json_text(db.to_json().dump());
  EXPECT_EQ(restored.size(), db.size());
  for (const CveEntry& e : db.entries()) {
    EXPECT_TRUE(restored.contains(e.id));
  }
  const auto alpha = restored.vulnerability_ids(CpeUri::parse("cpe:/o:acme:alpha"));
  EXPECT_EQ(alpha.size(), 3u);
}

TEST(Jaccard, Properties) {
  const std::vector<std::string> a{"1", "2", "3"};
  const std::vector<std::string> b{"2", "3", "4", "5"};
  const std::vector<std::string> empty;
  // Hand value: |{2,3}| / |{1,2,3,4,5}| = 2/5.
  EXPECT_DOUBLE_EQ(jaccard_similarity(a, b), 0.4);
  // Symmetry.
  EXPECT_DOUBLE_EQ(jaccard_similarity(a, b), jaccard_similarity(b, a));
  // Identity.
  EXPECT_DOUBLE_EQ(jaccard_similarity(a, a), 1.0);
  // Disjoint.
  EXPECT_DOUBLE_EQ(jaccard_similarity(a, std::vector<std::string>{"9"}), 0.0);
  // Empty convention.
  EXPECT_DOUBLE_EQ(jaccard_similarity(empty, empty), 0.0);
  EXPECT_DOUBLE_EQ(jaccard_similarity(a, empty), 0.0);
}

TEST(Jaccard, IntersectionSize) {
  const std::vector<std::string> a{"a", "c", "e"};
  const std::vector<std::string> b{"b", "c", "d", "e"};
  EXPECT_EQ(intersection_size(a, b), 2u);
  EXPECT_EQ(intersection_size(b, a), 2u);
  EXPECT_EQ(intersection_size(a, {}), 0u);
}

TEST(SimilarityTable, FromDatabaseMatchesHandComputation) {
  const VulnerabilityDatabase db = sample_db();
  const std::vector<ProductRef> products{
      {"alpha", CpeUri::parse("cpe:/o:acme:alpha")},
      {"beta", CpeUri::parse("cpe:/o:acme:beta")},
      {"gamma", CpeUri::parse("cpe:/o:acme:gamma")},
  };
  const SimilarityTable table = SimilarityTable::from_database(db, products);

  EXPECT_EQ(table.total_count("alpha"), 3u);
  EXPECT_EQ(table.total_count("beta"), 3u);
  EXPECT_EQ(table.total_count("gamma"), 2u);
  EXPECT_EQ(table.shared_count("alpha", "beta"), 2u);
  EXPECT_EQ(table.shared_count("alpha", "gamma"), 1u);
  // alpha∩beta = 2, union = 4.
  EXPECT_DOUBLE_EQ(table.similarity("alpha", "beta"), 0.5);
  // Diagonal.
  EXPECT_DOUBLE_EQ(table.similarity("alpha", "alpha"), 1.0);
  // Symmetry through both lookup paths.
  EXPECT_DOUBLE_EQ(table.similarity("beta", "alpha"), table.similarity("alpha", "beta"));
  EXPECT_DOUBLE_EQ(table.similarity(0, 2), table.similarity(2, 0));
}

TEST(SimilarityTable, YearWindowAffectsTable) {
  const VulnerabilityDatabase db = sample_db();
  const std::vector<ProductRef> products{
      {"alpha", CpeUri::parse("cpe:/o:acme:alpha")},
      {"beta", CpeUri::parse("cpe:/o:acme:beta")},
  };
  const SimilarityTable all = SimilarityTable::from_database(db, products);
  const SimilarityTable late = SimilarityTable::from_database(db, products, 2013, 2016);
  EXPECT_GT(all.total_count("alpha"), late.total_count("alpha"));
  EXPECT_DOUBLE_EQ(late.similarity("alpha", "beta"), 1.0);  // only the shared 2013 CVE
}

TEST(SimilarityTable, LookupErrors) {
  const VulnerabilityDatabase db = sample_db();
  const std::vector<ProductRef> products{{"alpha", CpeUri::parse("cpe:/o:acme:alpha")}};
  const SimilarityTable table = SimilarityTable::from_database(db, products);
  EXPECT_THROW((void)table.index_of("nope"), icsdiv::NotFound);
  EXPECT_THROW((void)table.similarity(0, 5), icsdiv::InvalidArgument);
}

TEST(SimilarityTable, JsonRoundTrip) {
  const VulnerabilityDatabase db = sample_db();
  const std::vector<ProductRef> products{
      {"alpha", CpeUri::parse("cpe:/o:acme:alpha")},
      {"beta", CpeUri::parse("cpe:/o:acme:beta")},
      {"gamma", CpeUri::parse("cpe:/o:acme:gamma")},
  };
  const SimilarityTable table = SimilarityTable::from_database(db, products);
  const SimilarityTable restored = SimilarityTable::from_json(table.to_json());
  EXPECT_EQ(restored.product_names(), table.product_names());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(restored.similarity(i, j), table.similarity(i, j));
      EXPECT_EQ(restored.shared_count(i, j), table.shared_count(i, j));
    }
  }
}

TEST(SimilarityTable, ConstructorValidation) {
  // Asymmetric similarity matrix must be rejected.
  EXPECT_THROW(SimilarityTable({"a", "b"}, {1, 1}, {1, 0, 0, 1}, {1.0, 0.2, 0.3, 1.0}),
               icsdiv::InvalidArgument);
  // Diagonal of shared counts must equal totals.
  EXPECT_THROW(SimilarityTable({"a", "b"}, {1, 2}, {9, 0, 0, 2}, {1.0, 0.0, 0.0, 1.0}),
               icsdiv::InvalidArgument);
  // Duplicate names rejected.
  EXPECT_THROW(SimilarityTable({"a", "a"}, {1, 1}, {1, 0, 0, 1}, {1.0, 0.0, 0.0, 1.0}),
               icsdiv::InvalidArgument);
}

}  // namespace
}  // namespace icsdiv::nvd
