#include "src/lock/deadlock.h"

#include <algorithm>
#include <set>

namespace locus {

std::string WaitForGraph::Key(const LockOwner& o) { return ToString(o); }

void WaitForGraph::AddEdges(const std::vector<WaitEdge>& edges) {
  for (const WaitEdge& e : edges) {
    std::string from = Key(e.waiter);
    std::string to = Key(e.holder);
    owners_[from] = e.waiter;
    owners_[to] = e.holder;
    auto& adj = adjacency_[from];
    if (std::find(adj.begin(), adj.end(), to) == adj.end()) {
      adj.push_back(to);
    }
    adjacency_.try_emplace(to);
  }
}

int WaitForGraph::edge_count() const {
  int n = 0;
  for (const auto& [node, adj] : adjacency_) {
    n += static_cast<int>(adj.size());
  }
  return n;
}

std::vector<std::vector<LockOwner>> WaitForGraph::FindCycles() const {
  // Iterative DFS with colors; reports each cycle found via the back-edge
  // stack slice. Good enough for the small graphs a detector daemon sees.
  std::vector<std::vector<LockOwner>> cycles;
  std::set<std::string> done;

  for (const auto& [start, unused] : adjacency_) {
    if (done.contains(start)) {
      continue;
    }
    std::vector<std::string> stack;
    std::set<std::string> on_stack;
    // Each frame: node + index of next neighbour to visit.
    std::vector<std::pair<std::string, size_t>> frames;
    frames.push_back({start, 0});
    stack.push_back(start);
    on_stack.insert(start);

    while (!frames.empty()) {
      auto& [node, idx] = frames.back();
      const auto& adj = adjacency_.at(node);
      if (idx >= adj.size()) {
        done.insert(node);
        on_stack.erase(node);
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const std::string& next = adj[idx++];
      if (on_stack.contains(next)) {
        // Back edge: the cycle is the stack slice from `next` onward.
        std::vector<LockOwner> cycle;
        auto it = std::find(stack.begin(), stack.end(), next);
        for (; it != stack.end(); ++it) {
          cycle.push_back(owners_.at(*it));
        }
        cycles.push_back(std::move(cycle));
        continue;
      }
      if (done.contains(next)) {
        continue;
      }
      frames.push_back({next, 0});
      stack.push_back(next);
      on_stack.insert(next);
    }
  }
  return cycles;
}

std::vector<LockOwner> WaitForGraph::SelectVictims() const {
  std::vector<LockOwner> victims;
  std::set<std::string> chosen;
  for (const auto& cycle : FindCycles()) {
    const LockOwner* victim = nullptr;
    for (const LockOwner& o : cycle) {
      if (!o.txn.valid()) {
        continue;
      }
      if (victim == nullptr || o.txn > victim->txn) {
        victim = &o;
      }
    }
    if (victim == nullptr) {
      // No transaction on the cycle: evict the largest pid.
      for (const LockOwner& o : cycle) {
        if (victim == nullptr || o.pid > victim->pid) {
          victim = &o;
        }
      }
    }
    if (victim != nullptr && chosen.insert(Key(*victim)).second) {
      victims.push_back(*victim);
    }
  }
  return victims;
}

}  // namespace locus
