// The original flat-vector LockList, retained verbatim as the reference
// implementation for differential testing (tests/lock_index_test.cc): every
// operation is a linear scan over one unordered vector of entries, which is
// easy to audit against the paper but O(entries) per call. The indexed
// LockList (lock_list.h) must answer every query identically.

#ifndef TESTS_NAIVE_LOCK_LIST_H_
#define TESTS_NAIVE_LOCK_LIST_H_

#include <vector>

#include "src/base/ids.h"
#include "src/lock/lock_list.h"
#include "src/lock/range.h"

namespace locus {

class NaiveLockList {
 public:
  using Entry = LockList::Entry;

  bool CanGrant(const ByteRange& range, const LockOwner& owner, LockMode mode) const;
  void Grant(const ByteRange& range, const LockOwner& owner, LockMode mode,
             bool non_transaction);
  void Unlock(const ByteRange& range, const LockOwner& owner);
  void MarkDirtyCovered(const ByteRange& range, const LockOwner& owner);
  void ReleaseTransaction(const TxnId& txn);
  void ReleaseProcess(Pid pid);
  bool MayRead(const ByteRange& range, const LockOwner& owner) const;
  bool MayWrite(const ByteRange& range, const LockOwner& owner) const;
  std::vector<LockOwner> ConflictingOwners(const ByteRange& range, const LockOwner& owner,
                                           LockMode mode) const;
  bool Holds(const ByteRange& range, const LockOwner& owner, LockMode mode) const;
  bool HoldsNonTransaction(const ByteRange& range, const LockOwner& owner) const;

  const std::vector<Entry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

 private:
  bool AccessPermitted(const ByteRange& range, const LockOwner& owner, bool write) const;

  std::vector<Entry> entries_;
};

}  // namespace locus

#endif  // TESTS_NAIVE_LOCK_LIST_H_
