#include "cliqueforest/wcig.hpp"

#include <algorithm>
#include <stdexcept>

namespace chordal {

std::vector<std::vector<int>> clique_membership(
    const std::vector<std::vector<int>>& cliques, int num_graph_vertices) {
  std::vector<std::vector<int>> member(
      static_cast<std::size_t>(num_graph_vertices));
  for (std::size_t c = 0; c < cliques.size(); ++c) {
    for (int v : cliques[c]) {
      if (v < 0 || v >= num_graph_vertices) {
        throw std::out_of_range("clique_membership: vertex out of range");
      }
      member[v].push_back(static_cast<int>(c));
    }
  }
  return member;
}

std::vector<WcigEdge> wcig_edges(const std::vector<std::vector<int>>& cliques,
                                 int num_graph_vertices) {
  auto member = clique_membership(cliques, num_graph_vertices);
  // Two cliques intersect iff some vertex lists both; collect pairs.
  std::vector<std::pair<int, int>> pairs;
  for (const auto& list : member) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      for (std::size_t j = i + 1; j < list.size(); ++j) {
        pairs.emplace_back(list[i], list[j]);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  std::vector<WcigEdge> edges;
  edges.reserve(pairs.size());
  for (auto [a, b] : pairs) {
    const auto& ca = cliques[a];
    const auto& cb = cliques[b];
    int weight = 0;
    std::size_t i = 0, j = 0;
    while (i < ca.size() && j < cb.size()) {
      if (ca[i] < cb[j]) {
        ++i;
      } else if (ca[i] > cb[j]) {
        ++j;
      } else {
        ++weight;
        ++i;
        ++j;
      }
    }
    edges.push_back({a, b, weight});
  }
  return edges;
}

bool wcig_edge_less(const WcigEdge& e, const WcigEdge& f,
                    const CliqueFamily& cliques) {
  if (e.weight != f.weight) return e.weight < f.weight;
  CliqueWord el = cliques[e.a];
  CliqueWord eh = cliques[e.b];
  if (word_less(eh, el)) std::swap(el, eh);
  CliqueWord fl = cliques[f.a];
  CliqueWord fh = cliques[f.b];
  if (word_less(fh, fl)) std::swap(fl, fh);
  if (!word_eq(el, fl)) return word_less(el, fl);
  return word_less(eh, fh);
}

bool wcig_edge_less(const WcigEdge& e, const WcigEdge& f,
                    const std::vector<std::vector<int>>& cliques) {
  if (e.weight != f.weight) return e.weight < f.weight;
  const auto& ea = cliques[e.a];
  const auto& eb = cliques[e.b];
  const auto& fa = cliques[f.a];
  const auto& fb = cliques[f.b];
  const auto& el = std::min(ea, eb);  // lexicographic vector comparison
  const auto& eh = std::max(ea, eb);
  const auto& fl = std::min(fa, fb);
  const auto& fh = std::max(fa, fb);
  if (el != fl) return el < fl;
  return eh < fh;
}

}  // namespace chordal
