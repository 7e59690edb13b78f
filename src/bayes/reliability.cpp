#include "bayes/reliability.hpp"

#include <algorithm>
#include <deque>
#include <map>

namespace icsdiv::bayes {

void ReliabilityProblem::validate() const {
  require(source < node_count && target < node_count, "ReliabilityProblem",
          "source/target out of range");
  for (const ReliabilityEdge& edge : edges) {
    require(edge.from < node_count && edge.to < node_count, "ReliabilityProblem",
            "edge endpoint out of range");
    require(edge.probability >= 0.0 && edge.probability <= 1.0, "ReliabilityProblem",
            "edge probability must be in [0,1]");
  }
}

namespace {

using Edge = ReliabilityEdge;

/// Working copy of a problem during factoring.
struct State {
  std::size_t node_count;
  std::vector<Edge> edges;
  std::uint32_t source;
  std::uint32_t target;
};

std::vector<bool> forward_reachable(const State& s) {
  std::vector<bool> seen(s.node_count, false);
  std::deque<std::uint32_t> frontier{s.source};
  seen[s.source] = true;
  while (!frontier.empty()) {
    const std::uint32_t u = frontier.front();
    frontier.pop_front();
    for (const Edge& e : s.edges) {
      if (e.from == u && !seen[e.to]) {
        seen[e.to] = true;
        frontier.push_back(e.to);
      }
    }
  }
  return seen;
}

std::vector<bool> backward_reachable(const State& s) {
  std::vector<bool> seen(s.node_count, false);
  std::deque<std::uint32_t> frontier{s.target};
  seen[s.target] = true;
  while (!frontier.empty()) {
    const std::uint32_t u = frontier.front();
    frontier.pop_front();
    for (const Edge& e : s.edges) {
      if (e.to == u && !seen[e.from]) {
        seen[e.from] = true;
        frontier.push_back(e.from);
      }
    }
  }
  return seen;
}

/// Applies all safe simplifications until a fixed point:
/// prune zero/self/irrelevant edges, merge parallels, series-contract
/// pass-through nodes, absorb certain (p=1) source edges.
void reduce(State& s) {
  bool changed = true;
  while (changed) {
    changed = false;
    if (s.source == s.target) return;

    // Drop self-loops and zero edges; absorb p=1 edges out of the source by
    // merging their head into the source (the head is then always reached).
    for (std::size_t i = 0; i < s.edges.size();) {
      Edge& e = s.edges[i];
      if (e.from == e.to || e.probability <= 0.0) {
        e = s.edges.back();
        s.edges.pop_back();
        changed = true;
        continue;
      }
      if (e.from == s.source && e.probability >= 1.0) {
        const std::uint32_t head = e.to;
        if (head == s.target) {
          s.source = s.target;  // certain connection
          return;
        }
        for (Edge& other : s.edges) {
          if (other.from == head) other.from = s.source;
          if (other.to == head) other.to = s.source;
        }
        changed = true;
        continue;  // re-examine slot i (the edge there may have mutated)
      }
      ++i;
    }
    // Edges into the source are useless (the source is always compromised).
    std::erase_if(s.edges, [&](const Edge& e) { return e.to == s.source; });

    // Relevance pruning.
    const std::vector<bool> fwd = forward_reachable(s);
    if (!fwd[s.target]) {
      s.edges.clear();
      return;  // disconnected: probability 0
    }
    const std::vector<bool> bwd = backward_reachable(s);
    const std::size_t before = s.edges.size();
    std::erase_if(s.edges, [&](const Edge& e) { return !fwd[e.from] || !bwd[e.to]; });
    changed = changed || s.edges.size() != before;

    // Merge parallel edges.
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> first_seen;
    for (std::size_t i = 0; i < s.edges.size();) {
      const auto key = std::make_pair(s.edges[i].from, s.edges[i].to);
      const auto [it, inserted] = first_seen.try_emplace(key, i);
      if (!inserted) {
        Edge& kept = s.edges[it->second];
        kept.probability = 1.0 - (1.0 - kept.probability) * (1.0 - s.edges[i].probability);
        s.edges[i] = s.edges.back();
        s.edges.pop_back();
        first_seen.clear();  // indices shifted; restart scan
        i = 0;
        changed = true;
        continue;
      }
      ++i;
    }

    // Series reduction: v ∉ {s, t} with unique in- and out-edge.
    std::vector<std::uint32_t> in_degree(s.node_count, 0);
    std::vector<std::uint32_t> out_degree(s.node_count, 0);
    std::vector<std::size_t> in_edge(s.node_count, 0);
    std::vector<std::size_t> out_edge(s.node_count, 0);
    for (std::size_t i = 0; i < s.edges.size(); ++i) {
      out_degree[s.edges[i].from] += 1;
      out_edge[s.edges[i].from] = i;
      in_degree[s.edges[i].to] += 1;
      in_edge[s.edges[i].to] = i;
    }
    for (std::uint32_t v = 0; v < s.node_count; ++v) {
      if (v == s.source || v == s.target) continue;
      if (in_degree[v] != 1 || out_degree[v] != 1) continue;
      const std::size_t ei = in_edge[v];
      const std::size_t eo = out_edge[v];
      if (s.edges[ei].from == s.edges[eo].to) continue;  // 2-cycle: irrelevant
      s.edges[ei].probability *= s.edges[eo].probability;
      s.edges[ei].to = s.edges[eo].to;
      s.edges[eo] = s.edges.back();
      s.edges.pop_back();
      changed = true;
      break;  // degree tables are stale; recompute on next sweep
    }
  }
}

double solve(State s, std::size_t max_edges, int depth) {
  reduce(s);
  if (s.source == s.target) return 1.0;
  if (s.edges.empty()) return 0.0;
  require(depth < 64, "reliability_exact", "factoring recursion too deep");
  require(s.edges.size() <= max_edges, "reliability_exact",
          "reduced problem still too large for exact factoring");

  // Factor on an edge out of the source (guaranteed to exist after
  // reduction, since the target is forward-reachable).
  std::size_t pivot = s.edges.size();
  for (std::size_t i = 0; i < s.edges.size(); ++i) {
    if (s.edges[i].from == s.source) {
      pivot = i;
      break;
    }
  }
  ensure(pivot < s.edges.size(), "reliability_exact", "no source edge after reduction");
  const double p = s.edges[pivot].probability;

  // Condition on the edge being up: its head joins the source.
  State up = s;
  up.edges[pivot].probability = 1.0;
  // Condition on the edge being down: remove it.
  State down = std::move(s);
  down.edges[pivot] = down.edges.back();
  down.edges.pop_back();

  double result = 0.0;
  if (p > 0.0) result += p * solve(std::move(up), max_edges, depth + 1);
  if (p < 1.0) result += (1.0 - p) * solve(std::move(down), max_edges, depth + 1);
  return result;
}

}  // namespace

double reliability_exact(const ReliabilityProblem& problem, std::size_t max_edges) {
  problem.validate();
  State state{problem.node_count, problem.edges, problem.source, problem.target};
  try {
    return solve(std::move(state), max_edges, 0);
  } catch (const InvalidArgument& e) {
    throw Infeasible(e.what());
  }
}

}  // namespace icsdiv::bayes
