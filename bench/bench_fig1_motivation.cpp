// E3 — reproduces Figure 1, the motivational example: an 8-host network
// where the modelling assumptions are progressively refined.
//
//  (a) single-label hosts, products share NO vulnerabilities: perfect
//      diversification stops the exploit at the entry → P(target) = 0;
//  (b) the same diversification but the two products have similarity 0.5:
//      the exploit leaks through → P(target) ≈ 0.125 in the paper;
//  (c) multi-label hosts (a second service) and an attacker with one
//      zero-day per service: collaborating exploits raise P(target) ≈ 0.5.
//
// We rebuild the three variants with our network model and compute the
// exact target compromise probability with the attack-BN engine of §VI
// (baseline channel disabled: the figure reasons about the similarity
// channels alone).
#include <iostream>

#include "bayes/compiled.hpp"
#include "support/table.hpp"

namespace {

using namespace icsdiv;

/// Fig. 1 topology: entry → two depth-1 hosts → two depth-2 hosts → two
/// depth-3 hosts → target (two parallel 4-hop routes that merge).
struct Fig1Network {
  core::ProductCatalog catalog;
  std::unique_ptr<core::Network> network;
  core::ServiceId round;    ///< the "circle/triangle label" service
  core::ServiceId square;   ///< the extra service of variant (c)
  core::ProductId circle;
  core::ProductId triangle;
  core::ProductId square_product;

  explicit Fig1Network(double similarity, bool with_square_service) {
    round = catalog.add_service("round");
    circle = catalog.add_product(round, "circle");
    triangle = catalog.add_product(round, "triangle");
    if (similarity > 0.0) catalog.set_similarity(circle, triangle, similarity);
    square = catalog.add_service("square");
    square_product = catalog.add_product(square, "square");

    network = std::make_unique<core::Network>(catalog);
    for (int i = 0; i < 8; ++i) {
      const core::HostId h = network->add_host(std::string("n").append(std::to_string(i)));
      network->add_service(h, round, {circle, triangle});
      // Variant (c): alternate hosts additionally expose the square
      // service — the red squares of Fig. 1(c).
      if (with_square_service && i % 2 == 0) {
        network->add_service(h, square, {square_product});
      }
    }
    // 0 = entry, 7 = target; two merging 4-hop routes.
    const auto link = [&](core::HostId a, core::HostId b) { network->add_link(a, b); };
    link(0, 1);
    link(0, 2);
    link(1, 3);
    link(2, 4);
    link(3, 5);
    link(4, 6);
    link(5, 7);
    link(6, 7);
  }

  /// Alternating diversification: the defence of Fig. 1(a)/(b).
  [[nodiscard]] core::Assignment diversified() const {
    core::Assignment assignment(*network);
    const auto depth = std::vector<int>{0, 1, 1, 2, 2, 3, 3, 4};
    for (core::HostId h = 0; h < 8; ++h) {
      assignment.assign(h, round, depth[h] % 2 == 0 ? circle : triangle);
      if (network->host_runs(h, square)) assignment.assign(h, square, square_product);
    }
    return assignment;
  }
};

double target_probability(const Fig1Network& fig, double similarity_weight) {
  bayes::PropagationModel model;
  model.p_avg = 0.0;  // the figure reasons about similarity channels only
  model.similarity_weight = similarity_weight;
  const bayes::CompiledReliability bn(fig.diversified(), 0, model);
  bayes::InferenceOptions options;
  options.engine = bayes::InferenceEngine::Exact;
  return bn.compromise_probability(7, options);
}

}  // namespace

int main() {
  support::print_banner(std::cout, "Figure 1 — motivational example (target compromise probability)");

  // (a) single-label, zero similarity.
  const Fig1Network a(/*similarity=*/0.0, /*with_square_service=*/false);
  const double p_a = target_probability(a, 1.0);

  // (b) single-label, similarity 0.5 between circle and triangle.
  const Fig1Network b(/*similarity=*/0.5, /*with_square_service=*/false);
  const double p_b = target_probability(b, 1.0);

  // (c) multi-label: alternate hosts also run the square service, and the
  // attacker's second zero-day propagates over it with certainty.
  const Fig1Network c(/*similarity=*/0.5, /*with_square_service=*/true);
  const double p_c = target_probability(c, 1.0);

  support::TextTable table({"variant", "model", "P(target) ours", "P(target) paper"});
  table.add_row({"(a)", "single-label, disjoint products", support::TextTable::num(p_a, 4), "0"});
  table.add_row({"(b)", "single-label, similarity 0.5", support::TextTable::num(p_b, 4),
                 "~0.125"});
  table.add_row({"(c)", "multi-label + second exploit", support::TextTable::num(p_c, 4),
                 "~0.5"});
  table.print(std::cout);
  std::cout << "\nShape check: (a) is exactly 0; (b) leaks through the 0.5-similarity\n"
               "labels; (c) roughly quadruples (b) because the square-label exploit\n"
               "rides along every second host.\n";
  return 0;
}
