#include "apps/graph/graph.hpp"

#include <algorithm>
#include <deque>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ppm::apps::graph {

namespace {

Graph from_edges(uint64_t vertices,
                 const std::vector<std::pair<uint64_t, uint64_t>>& edges) {
  // Symmetrize and drop self-loops straight into per-source rows (a
  // counting pass sizes them), then sort and deduplicate each row in
  // place: linear in the edges plus one short sort per row, instead of a
  // sort of every symmetrized pair.
  Graph g;
  g.num_vertices = vertices;
  g.row_ptr.assign(vertices + 1, 0);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    ++g.row_ptr[u + 1];
    ++g.row_ptr[v + 1];
  }
  for (uint64_t i = 0; i < vertices; ++i) g.row_ptr[i + 1] += g.row_ptr[i];
  g.adjacency.resize(g.row_ptr[vertices]);
  std::vector<uint64_t> cursor(g.row_ptr.begin(), g.row_ptr.end() - 1);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    g.adjacency[cursor[u]++] = v;
    g.adjacency[cursor[v]++] = u;
  }
  // Compact the deduplicated rows towards the front; row u's old extent
  // is [begin, row_ptr[u + 1]) until row_ptr[u + 1] is rewritten.
  uint64_t* const adj = g.adjacency.data();
  uint64_t begin = 0, out = 0;
  for (uint64_t u = 0; u < vertices; ++u) {
    const uint64_t end = g.row_ptr[u + 1];
    std::sort(adj + begin, adj + end);
    uint64_t* const last = std::unique(adj + begin, adj + end);
    if (out != begin) std::copy(adj + begin, last, adj + out);
    out += static_cast<uint64_t>(last - (adj + begin));
    g.row_ptr[u + 1] = out;
    begin = end;
  }
  g.adjacency.resize(out);
  return g;
}

}  // namespace

Graph Graph::row_slice(uint64_t begin, uint64_t end) const {
  PPM_CHECK(begin <= end && end <= num_vertices, "bad row slice");
  Graph out;
  out.num_vertices = num_vertices;
  const uint64_t k0 = row_ptr[begin];
  out.row_ptr.push_back(0);
  for (uint64_t v = begin; v < end; ++v) {
    out.row_ptr.push_back(row_ptr[v + 1] - k0);
  }
  out.adjacency.assign(adjacency.begin() + static_cast<int64_t>(k0),
                       adjacency.begin() + static_cast<int64_t>(row_ptr[end]));
  return out;
}

Graph make_uniform_graph(uint64_t vertices, double avg_degree,
                         uint64_t seed) {
  PPM_CHECK(vertices >= 2, "graph needs at least two vertices");
  Rng rng(seed);
  const auto edges_wanted =
      static_cast<uint64_t>(static_cast<double>(vertices) * avg_degree / 2);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  edges.reserve(edges_wanted);
  for (uint64_t e = 0; e < edges_wanted; ++e) {
    edges.emplace_back(rng.next_below(vertices), rng.next_below(vertices));
  }
  return from_edges(vertices, edges);
}

Graph make_rmat_graph(uint64_t vertices, double avg_degree, uint64_t seed) {
  PPM_CHECK(vertices >= 2, "graph needs at least two vertices");
  // Round up to a power of two for the recursive quadrant construction;
  // endpoints beyond `vertices` are folded back with modulo.
  uint64_t side = 1;
  while (side < vertices) side <<= 1;
  Rng rng(seed);
  const auto edges_wanted =
      static_cast<uint64_t>(static_cast<double>(vertices) * avg_degree / 2);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  edges.reserve(edges_wanted);
  for (uint64_t e = 0; e < edges_wanted; ++e) {
    uint64_t u = 0, v = 0;
    for (uint64_t bit = side >> 1; bit > 0; bit >>= 1) {
      const double p = rng.next_double();
      // (a, b, c, d) = (0.45, 0.22, 0.22, 0.11)
      if (p < 0.45) {
        // upper-left: nothing to add
      } else if (p < 0.67) {
        v |= bit;
      } else if (p < 0.89) {
        u |= bit;
      } else {
        u |= bit;
        v |= bit;
      }
    }
    edges.emplace_back(u % vertices, v % vertices);
  }
  return from_edges(vertices, edges);
}

std::vector<int64_t> bfs_serial(const Graph& g, uint64_t source) {
  PPM_CHECK(source < g.num_vertices, "bfs source out of range");
  std::vector<int64_t> dist(g.num_vertices, kUnreached);
  std::deque<uint64_t> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const uint64_t u = queue.front();
    queue.pop_front();
    for (uint64_t k = g.row_ptr[u]; k < g.row_ptr[u + 1]; ++k) {
      const uint64_t v = g.adjacency[k];
      if (dist[v] == kUnreached) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<int64_t> components_serial(const Graph& g) {
  // Label propagation to a fixpoint: label(v) = min over component of v.
  std::vector<int64_t> label(g.num_vertices);
  for (uint64_t v = 0; v < g.num_vertices; ++v) {
    label[v] = static_cast<int64_t>(v);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint64_t u = 0; u < g.num_vertices; ++u) {
      for (uint64_t k = g.row_ptr[u]; k < g.row_ptr[u + 1]; ++k) {
        const uint64_t v = g.adjacency[k];
        if (label[v] < label[u]) {
          label[u] = label[v];
          changed = true;
        }
      }
    }
  }
  return label;
}

}  // namespace ppm::apps::graph
