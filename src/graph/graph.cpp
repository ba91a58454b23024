#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace chordal {

bool Graph::has_edge(int u, int v) const {
  auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), static_cast<VertexId>(v));
}

int Graph::max_degree() const {
  int d = 0;
  for (int v = 0; v < n_; ++v) d = std::max(d, degree(v));
  return d;
}

std::vector<std::pair<int, int>> Graph::edges() const {
  std::vector<std::pair<int, int>> out;
  out.reserve(edge_count_);
  for (int u = 0; u < n_; ++u) {
    for (int v : neighbors(u)) {
      if (u < v) out.emplace_back(u, static_cast<int>(v));
    }
  }
  return out;
}

Graph Graph::induced_subgraph(std::span<const VertexId> vertices,
                              std::vector<int>* original_of) const {
  std::vector<int> local(static_cast<std::size_t>(n_), -1);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    auto v = vertices[i];
    if (v < 0 || v >= n_) {
      throw std::out_of_range("induced_subgraph: vertex out of range");
    }
    if (local[v] != -1) {
      throw std::invalid_argument("induced_subgraph: duplicate vertex");
    }
    local[v] = static_cast<int>(i);
  }
  GraphBuilder builder(static_cast<int>(vertices.size()));
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    for (auto w : neighbors(static_cast<int>(vertices[i]))) {
      if (local[w] > static_cast<int>(i)) {
        builder.add_edge(static_cast<int>(i), local[w]);
      }
    }
  }
  if (original_of != nullptr) {
    original_of->assign(vertices.begin(), vertices.end());
  }
  return builder.build();
}

void Graph::assign_csr(int n, std::span<const EdgeIndex> offsets,
                       std::span<const VertexId> adj) {
  if (static_cast<int>(offsets.size()) != n + 1) {
    throw std::invalid_argument("assign_csr: offsets size mismatch");
  }
  n_ = n;
  edge_count_ = adj.size() / 2;
  offsets_.assign(offsets.begin(), offsets.end());
  adj_.assign(adj.begin(), adj.end());
}

void Graph::adopt_csr(int n, std::vector<EdgeIndex>&& offsets,
                      std::vector<VertexId>&& adj) {
  if (n < 0) throw std::invalid_argument("adopt_csr: negative n");
  if (static_cast<long long>(offsets.size()) !=
      static_cast<long long>(n) + 1) {
    throw std::invalid_argument("adopt_csr: offsets size mismatch");
  }
  if (static_cast<std::size_t>(offsets[n]) != adj.size()) {
    throw std::invalid_argument("adopt_csr: offsets[n] != adjacency size");
  }
  n_ = n;
  edge_count_ = adj.size() / 2;
  offsets_ = std::move(offsets);
  adj_ = std::move(adj);
}

std::string Graph::summary() const {
  return "Graph(n=" + std::to_string(n_) + ", m=" + std::to_string(edge_count_) +
         ")";
}

GraphBuilder::GraphBuilder(int n) : n_(n) {
  if (n < 0) throw std::invalid_argument("GraphBuilder: negative n");
}

void GraphBuilder::add_edge(int u, int v) {
  if (u == v) throw std::invalid_argument("GraphBuilder: self-loop");
  if (u < 0 || v < 0 || u >= n_ || v >= n_) {
    throw std::out_of_range("GraphBuilder: vertex out of range");
  }
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::build() {
  // Sort + dedup in place: the staged pair list doubles as the sort buffer,
  // so finalizing stages no second copy of the edge list. The builder stays
  // valid - the deduplicated list represents the same edge set.
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  Graph g;
  g.n_ = n_;
  g.edge_count_ = edges_.size();
  const EdgeIndex slots = checked_edge_index(
      2 * static_cast<long long>(edges_.size()), "GraphBuilder::build");
  g.offsets_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (auto [u, v] : edges_) {
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (int v = 0; v < n_; ++v) g.offsets_[v + 1] += g.offsets_[v];
  g.adj_.resize(static_cast<std::size_t>(slots));
  std::vector<EdgeIndex> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (auto [u, v] : edges_) {
    g.adj_[cursor[u]++] = static_cast<VertexId>(v);
    g.adj_[cursor[v]++] = static_cast<VertexId>(u);
  }
  // Edges are processed ascending in (u, v), so both the forward lists and
  // the appended reverse entries come out ascending; keep the defensive
  // per-row sort as a no-op-cost invariant guard in debug terms.
  for (int v = 0; v < n_; ++v) {
    std::sort(g.adj_.begin() + g.offsets_[v], g.adj_.begin() + g.offsets_[v + 1]);
  }
  return g;
}

}  // namespace chordal
