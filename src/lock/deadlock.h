// User-level deadlock detection (section 3.1).
//
// The Locus kernel does not detect deadlock; it exports the per-site wait-for
// edges and a system process builds the global graph with conventional
// techniques [Coffman 71], picks victims, and drives resolution. This module
// is that system process's library: cycle detection over collected edges and
// a victim-selection policy (youngest transaction first, so the transaction
// that has done the least work is redone).

#ifndef SRC_LOCK_DEADLOCK_H_
#define SRC_LOCK_DEADLOCK_H_

#include <utility>
#include <vector>

#include "src/lock/lock_manager.h"

namespace locus {

class WaitForGraph {
 public:
  void AddEdges(const std::vector<WaitEdge>& edges);

  // All distinct owners that appear on a cycle, grouped per cycle.
  std::vector<std::vector<LockOwner>> FindCycles() const;

  // Picks one victim per cycle: the youngest transaction on the cycle
  // (largest TxnId); cycles with no transaction member fall back to the
  // largest pid.
  std::vector<LockOwner> SelectVictims() const;

  int edge_count() const;

 private:
  // An owner's identity, the one ToString(LockOwner) encodes: its
  // transaction, or its pid when it has none.
  struct Key {
    TxnId txn;
    Pid pid = kNoPid;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  struct Node {
    LockOwner owner;       // As last seen in an edge.
    std::vector<int> out;  // Distinct holders this owner waits for.
  };

  static Key KeyOf(const LockOwner& o);
  // The node of `o`, added when new.
  int NodeOf(const LockOwner& o);

  std::vector<Node> nodes_;
  // (key, node) sorted by key: lookups and a deterministic visiting order.
  std::vector<std::pair<Key, int>> index_;
};

}  // namespace locus

#endif  // SRC_LOCK_DEADLOCK_H_
