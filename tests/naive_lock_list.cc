#include "tests/naive_lock_list.h"

namespace locus {

bool NaiveLockList::CanGrant(const ByteRange& range, const LockOwner& owner,
                             LockMode mode) const {
  for (const Entry& e : entries_) {
    if (e.owner.SameAs(owner) || !e.range.Overlaps(range)) {
      continue;
    }
    // Retained locks are still held for synchronization purposes (section
    // 3.1: unlocked resources stay unavailable outside the transaction).
    if (!LocksCompatible(e.mode, mode)) {
      return false;
    }
  }
  return true;
}

void NaiveLockList::Grant(const ByteRange& range, const LockOwner& owner, LockMode mode,
                          bool non_transaction) {
  bool inherits_dirty = false;
  std::vector<Entry> out;
  out.reserve(entries_.size() + 1);
  for (const Entry& e : entries_) {
    if (!e.owner.SameAs(owner) || !e.range.Overlaps(range)) {
      out.push_back(e);
      continue;
    }
    if (e.covers_dirty) {
      inherits_dirty = true;
    }
    // Carve the new range out of the owner's previous entry; this is what
    // implements upgrade, downgrade, extension and contraction.
    for (const ByteRange& piece : e.range.Subtract(range)) {
      Entry rest = e;
      rest.range = piece;
      out.push_back(rest);
    }
  }
  Entry granted;
  granted.range = range;
  granted.owner = owner;
  granted.mode = mode;
  granted.retained = false;
  granted.non_transaction = non_transaction;
  granted.covers_dirty = inherits_dirty && !non_transaction;
  out.push_back(granted);
  entries_ = std::move(out);
}

void NaiveLockList::Unlock(const ByteRange& range, const LockOwner& owner) {
  std::vector<Entry> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    if (!e.owner.SameAs(owner) || !e.range.Overlaps(range)) {
      out.push_back(e);
      continue;
    }
    for (const ByteRange& piece : e.range.Subtract(range)) {
      Entry rest = e;
      rest.range = piece;
      out.push_back(rest);
    }
    Entry unlocked = e;
    unlocked.range = e.range.Intersect(range);
    if (e.covers_dirty) {
      // Rule 2 (section 3.3): the record is modified and uncommitted, so the
      // lock is sticky until the transaction resolves.
      unlocked.retained = true;
      out.push_back(unlocked);
    } else if (e.owner.txn.valid() && !e.non_transaction) {
      // Rule 1: two-phase locking — a transaction's lock is retained.
      unlocked.retained = true;
      out.push_back(unlocked);
    }
    // Non-transaction owners and non-transaction locks are dropped outright.
  }
  entries_ = std::move(out);
}

void NaiveLockList::MarkDirtyCovered(const ByteRange& range, const LockOwner& owner) {
  for (Entry& e : entries_) {
    if (e.owner.SameAs(owner) && e.range.Overlaps(range) && !e.non_transaction &&
        e.owner.txn.valid()) {
      e.covers_dirty = true;
    }
  }
}

void NaiveLockList::ReleaseTransaction(const TxnId& txn) {
  std::erase_if(entries_, [&](const Entry& e) { return e.owner.txn == txn; });
}

void NaiveLockList::ReleaseProcess(Pid pid) {
  std::erase_if(entries_,
                [&](const Entry& e) { return !e.owner.txn.valid() && e.owner.pid == pid; });
}

bool NaiveLockList::AccessPermitted(const ByteRange& range, const LockOwner& owner,
                                    bool write) const {
  for (const Entry& e : entries_) {
    if (e.owner.SameAs(owner)) {
      continue;
    }
    ByteRange overlap = e.range.Intersect(range);
    if (overlap.empty()) {
      continue;
    }
    // The accessor acts in the strongest mode it holds over the contested
    // bytes; with no covering lock it acts in Unix mode.
    LockMode acting = LockMode::kUnix;
    for (const Entry& mine : entries_) {
      if (mine.owner.SameAs(owner) && mine.range.Contains(overlap)) {
        if (mine.mode == LockMode::kExclusive ||
            (mine.mode == LockMode::kShared && acting == LockMode::kUnix)) {
          acting = mine.mode;
        }
      }
    }
    AccessAllowed allowed = CompatibleAccess(e.mode, acting);
    if (write && allowed != AccessAllowed::kReadWrite) {
      return false;
    }
    if (!write && allowed == AccessAllowed::kNone) {
      return false;
    }
  }
  return true;
}

bool NaiveLockList::MayRead(const ByteRange& range, const LockOwner& owner) const {
  return AccessPermitted(range, owner, /*write=*/false);
}

bool NaiveLockList::MayWrite(const ByteRange& range, const LockOwner& owner) const {
  return AccessPermitted(range, owner, /*write=*/true);
}

std::vector<LockOwner> NaiveLockList::ConflictingOwners(const ByteRange& range,
                                                        const LockOwner& owner,
                                                        LockMode mode) const {
  std::vector<LockOwner> out;
  for (const Entry& e : entries_) {
    if (e.owner.SameAs(owner) || !e.range.Overlaps(range)) {
      continue;
    }
    if (!LocksCompatible(e.mode, mode)) {
      out.push_back(e.owner);
    }
  }
  return out;
}

bool NaiveLockList::HoldsNonTransaction(const ByteRange& range, const LockOwner& owner) const {
  RangeSet covered;
  for (const Entry& e : entries_) {
    if (e.owner.SameAs(owner) && !e.retained && e.non_transaction) {
      covered.Add(e.range);
    }
  }
  int64_t bytes = 0;
  for (const ByteRange& piece : covered.IntersectionsWith(range)) {
    bytes += piece.length;
  }
  return bytes == range.length;
}

bool NaiveLockList::Holds(const ByteRange& range, const LockOwner& owner, LockMode mode) const {
  RangeSet covered;
  for (const Entry& e : entries_) {
    if (!e.owner.SameAs(owner) || e.retained) {
      continue;
    }
    bool strong_enough =
        e.mode == LockMode::kExclusive || (e.mode == mode && mode == LockMode::kShared);
    if (strong_enough) {
      covered.Add(e.range);
    }
  }
  auto pieces = covered.IntersectionsWith(range);
  int64_t bytes = 0;
  for (const ByteRange& p : pieces) {
    bytes += p.length;
  }
  return bytes == range.length;
}

}  // namespace locus
