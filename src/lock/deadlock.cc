#include "src/lock/deadlock.h"

#include <algorithm>

namespace locus {

WaitForGraph::Key WaitForGraph::KeyOf(const LockOwner& o) {
  return o.txn.valid() ? Key{o.txn, kNoPid} : Key{kNoTxn, o.pid};
}

int WaitForGraph::NodeOf(const LockOwner& o) {
  Key key = KeyOf(o);
  auto it = std::lower_bound(index_.begin(), index_.end(), key,
                             [](const auto& entry, const Key& k) { return entry.first < k; });
  if (it != index_.end() && it->first == key) {
    nodes_[it->second].owner = o;
    return it->second;
  }
  int node = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{o, {}});
  index_.insert(it, {key, node});
  return node;
}

void WaitForGraph::AddEdges(const std::vector<WaitEdge>& edges) {
  for (const WaitEdge& e : edges) {
    int from = NodeOf(e.waiter);
    int to = NodeOf(e.holder);
    std::vector<int>& out = nodes_[from].out;
    if (std::find(out.begin(), out.end(), to) == out.end()) {
      out.push_back(to);
    }
  }
}

int WaitForGraph::edge_count() const {
  int n = 0;
  for (const Node& node : nodes_) {
    n += static_cast<int>(node.out.size());
  }
  return n;
}

std::vector<std::vector<LockOwner>> WaitForGraph::FindCycles() const {
  // Iterative DFS with colors; reports each cycle found via the back-edge
  // stack slice. Good enough for the small graphs a detector daemon sees.
  std::vector<std::vector<LockOwner>> cycles;
  std::vector<bool> done(nodes_.size(), false);
  std::vector<bool> on_stack(nodes_.size(), false);
  std::vector<int> stack;
  // Each frame: node + index of next neighbour to visit.
  std::vector<std::pair<int, size_t>> frames;

  for (const auto& [key, start] : index_) {
    if (done[start]) {
      continue;
    }
    frames.push_back({start, 0});
    stack.push_back(start);
    on_stack[start] = true;

    while (!frames.empty()) {
      auto& [node, idx] = frames.back();
      const std::vector<int>& out = nodes_[node].out;
      if (idx >= out.size()) {
        done[node] = true;
        on_stack[node] = false;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      int next = out[idx++];
      if (on_stack[next]) {
        // Back edge: the cycle is the stack slice from `next` onward.
        std::vector<LockOwner> cycle;
        for (auto it = std::find(stack.begin(), stack.end(), next); it != stack.end(); ++it) {
          cycle.push_back(nodes_[*it].owner);
        }
        cycles.push_back(std::move(cycle));
        continue;
      }
      if (done[next]) {
        continue;
      }
      frames.push_back({next, 0});
      stack.push_back(next);
      on_stack[next] = true;
    }
  }
  return cycles;
}

std::vector<LockOwner> WaitForGraph::SelectVictims() const {
  std::vector<LockOwner> victims;
  std::vector<Key> chosen;
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
    if (victim == nullptr) {
      continue;
    }
    Key key = KeyOf(*victim);
    if (std::find(chosen.begin(), chosen.end(), key) == chosen.end()) {
      chosen.push_back(key);
      victims.push_back(*victim);
    }
  }
  return victims;
}

}  // namespace locus
