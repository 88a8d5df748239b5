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

#include <map>
#include <string>
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

  int node_count() const { return static_cast<int>(adjacency_.size()); }
  int edge_count() const;

 private:
  // Owners are keyed by a canonical string (transaction id or pid).
  static std::string Key(const LockOwner& o);

  std::map<std::string, LockOwner> owners_;
  std::map<std::string, std::vector<std::string>> adjacency_;
};

}  // namespace locus

#endif  // SRC_LOCK_DEADLOCK_H_
