#include "graph/lexbfs.hpp"

namespace chordal {

// Partition-refinement Lex-BFS in O(n + m). Groups of unvisited vertices
// with equal labels form a doubly linked list ordered by label
// (lexicographically largest label first); each group is itself a doubly
// linked list of its members in ascending id order. The pivot is the first
// member of the first group. Refining by the pivot's neighbors moves each
// one to the tail of a new group created immediately in front of its old
// group; neighbor rows are sorted ascending, so the new groups stay
// id-sorted and the tie-break (smallest id first) needs no ordered set.
// Emptied groups leave the list and their slots are reused, so at most n
// group slots exist at once.
std::vector<int> lexbfs_order(const Graph& g) {
  const int n = g.num_vertices();
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  if (n == 0) return order;

  const auto nz = static_cast<std::size_t>(n);
  // Member lists: vertex -> neighbors in its group, and its group (-1 once
  // visited).
  std::vector<int> next(nz), prev(nz), group_of(nz, 0);
  for (int v = 0; v < n; ++v) {
    next[v] = v + 1 < n ? v + 1 : -1;
    prev[v] = v - 1;
  }
  struct Group {
    int first = -1, last = -1;  // member list
    int prev = -1, next = -1;   // group list
    int split_step = -1;        // pivot step of the last split of this group
    int split_into = -1;        // the group created in front by that split
  };
  std::vector<Group> groups;
  std::vector<int> free_groups;
  groups.reserve(nz);
  groups.push_back({0, n - 1, -1, -1, -1, -1});
  int head = 0;

  auto unlink_group = [&](int gi) {
    Group& gr = groups[gi];
    if (gr.prev != -1) {
      groups[gr.prev].next = gr.next;
    } else {
      head = gr.next;
    }
    if (gr.next != -1) groups[gr.next].prev = gr.prev;
    free_groups.push_back(gi);
  };
  // Removes v from its group's member list, dropping the group once empty.
  auto detach = [&](int v) {
    const int gi = group_of[v];
    Group& gr = groups[gi];
    if (prev[v] != -1) {
      next[prev[v]] = next[v];
    } else {
      gr.first = next[v];
    }
    if (next[v] != -1) {
      prev[next[v]] = prev[v];
    } else {
      gr.last = prev[v];
    }
    if (gr.first == -1) unlink_group(gi);
  };

  for (int step = 0; step < n; ++step) {
    const int pivot = groups[head].first;
    detach(pivot);
    group_of[pivot] = -1;
    order.push_back(pivot);

    for (int w : g.neighbors(pivot)) {
      const int gw = group_of[w];
      if (gw == -1) continue;  // visited
      if (groups[gw].split_step != step) {
        // A fresh group immediately in front of gw (larger label). A
        // reused slot is re-initialized, so no stale split survives.
        int ng;
        if (free_groups.empty()) {
          ng = static_cast<int>(groups.size());
          groups.emplace_back();
        } else {
          ng = free_groups.back();
          free_groups.pop_back();
          groups[ng] = Group{};
        }
        Group& gr = groups[gw];
        groups[ng].prev = gr.prev;
        groups[ng].next = gw;
        if (gr.prev != -1) {
          groups[gr.prev].next = ng;
        } else {
          head = ng;
        }
        gr.prev = ng;
        gr.split_step = step;
        gr.split_into = ng;
      }
      const int ng = groups[gw].split_into;
      detach(w);
      Group& target = groups[ng];
      next[w] = -1;
      prev[w] = target.last;
      if (target.last != -1) {
        next[target.last] = w;
      } else {
        target.first = w;
      }
      target.last = w;
      group_of[w] = ng;
    }
  }
  return order;
}

}  // namespace chordal
