// Differential test: the indexed LockList (offset-sorted per-owner buckets)
// against NaiveLockList, the original flat-vector implementation kept as the
// semantic reference. Thousands of randomized operations — grants, unlocks,
// dirty-cover marks, transaction/process releases, with empty and overlapping
// ranges — are applied to both; after every step the entry sets and the
// answers to every query API must agree exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "src/lock/lock_list.h"
#include "tests/naive_lock_list.h"

namespace locus {
namespace {

// Normalized view of one entry for set comparison.
using EntryKey = std::tuple<Pid, int32_t, uint32_t, uint64_t,  // owner
                            int64_t, int64_t,                  // range
                            int, bool, bool, bool>;            // mode + flags

EntryKey KeyOf(const LockList::Entry& e) {
  return EntryKey{e.owner.pid,          e.owner.txn.site, e.owner.txn.epoch,
                  e.owner.txn.serial,   e.range.start,    e.range.length,
                  static_cast<int>(e.mode), e.retained,   e.non_transaction,
                  e.covers_dirty};
}

std::vector<EntryKey> Normalize(const std::vector<LockList::Entry>& entries) {
  std::vector<EntryKey> keys;
  keys.reserve(entries.size());
  for (const LockList::Entry& e : entries) {
    keys.push_back(KeyOf(e));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

using OwnerTuple = std::tuple<Pid, int32_t, uint32_t, uint64_t>;

std::vector<OwnerTuple> SortedOwners(const std::vector<LockOwner>& owners) {
  std::vector<OwnerTuple> out;
  out.reserve(owners.size());
  for (const LockOwner& o : owners) {
    out.push_back(OwnerTuple{o.pid, o.txn.site, o.txn.epoch, o.txn.serial});
  }
  std::sort(out.begin(), out.end());
  return out;
}

class DifferentialHarness {
 public:
  explicit DifferentialHarness(uint32_t seed) : rng_(seed) {
    for (Pid pid = 1; pid <= 5; ++pid) {
      TxnId txn{/*site=*/static_cast<int32_t>(pid % 3), /*epoch=*/1,
                /*serial=*/static_cast<uint64_t>(pid % 2 + 1)};
      owners_.push_back(LockOwner{pid, kNoTxn});        // Plain process.
      owners_.push_back(LockOwner{pid, txn});           // In-transaction.
    }
    // Transaction-only identity (locks held on behalf of the txn itself).
    owners_.push_back(LockOwner{kNoPid, TxnId{0, 1, 1}});
  }

  void RunSteps(int steps) {
    for (int i = 0; i < steps; ++i) {
      Step(i);
      CompareAll(i);
    }
  }

 private:
  ByteRange RandomRange() {
    int64_t start = std::uniform_int_distribution<int64_t>(0, 96)(rng_);
    // Length 0 is deliberate: empty ranges have their own overlap semantics.
    int64_t length = std::uniform_int_distribution<int64_t>(0, 24)(rng_);
    return ByteRange{start, length};
  }

  const LockOwner& RandomOwner() {
    size_t i = std::uniform_int_distribution<size_t>(0, owners_.size() - 1)(rng_);
    return owners_[i];
  }

  LockMode RandomMode() {
    switch (std::uniform_int_distribution<int>(0, 2)(rng_)) {
      case 0: return LockMode::kUnix;
      case 1: return LockMode::kShared;
      default: return LockMode::kExclusive;
    }
  }

  void Step(int step) {
    int op = std::uniform_int_distribution<int>(0, 99)(rng_);
    ByteRange range = RandomRange();
    LockOwner owner = RandomOwner();
    if (op < 55) {  // Grant attempt (most common, builds up state).
      LockMode mode = RandomMode();
      bool non_txn = !owner.txn.valid() ||
                     std::uniform_int_distribution<int>(0, 9)(rng_) == 0;
      bool can_indexed = indexed_.CanGrant(range, owner, mode);
      bool can_naive = naive_.CanGrant(range, owner, mode);
      ASSERT_EQ(can_indexed, can_naive)
          << "CanGrant diverged at step " << step << " range [" << range.start
          << "," << range.end() << ") owner " << ToString(owner);
      if (can_indexed) {
        indexed_.Grant(range, owner, mode, non_txn);
        naive_.Grant(range, owner, mode, non_txn);
      }
    } else if (op < 75) {  // Unlock.
      indexed_.Unlock(range, owner);
      naive_.Unlock(range, owner);
    } else if (op < 85) {  // Dirty-cover mark (rule 2 stickiness).
      indexed_.MarkDirtyCovered(range, owner);
      naive_.MarkDirtyCovered(range, owner);
    } else if (op < 93) {  // Transaction resolution.
      if (owner.txn.valid()) {
        indexed_.ReleaseTransaction(owner.txn);
        naive_.ReleaseTransaction(owner.txn);
      }
    } else {  // Process exit.
      if (owner.pid != kNoPid) {
        indexed_.ReleaseProcess(owner.pid);
        naive_.ReleaseProcess(owner.pid);
      }
    }
  }

  void CompareAll(int step) {
    ASSERT_EQ(Normalize(indexed_.entries()), Normalize(naive_.entries()))
        << "entry sets diverged at step " << step;
    ASSERT_EQ(indexed_.empty(), naive_.empty()) << "empty() diverged at step " << step;
    // Probe the query APIs with fresh random arguments.
    for (int probe = 0; probe < 4; ++probe) {
      ByteRange range = RandomRange();
      LockOwner owner = RandomOwner();
      LockMode mode = RandomMode();
      ASSERT_EQ(indexed_.CanGrant(range, owner, mode), naive_.CanGrant(range, owner, mode))
          << "CanGrant probe diverged at step " << step;
      ASSERT_EQ(indexed_.MayRead(range, owner), naive_.MayRead(range, owner))
          << "MayRead probe diverged at step " << step;
      ASSERT_EQ(indexed_.MayWrite(range, owner), naive_.MayWrite(range, owner))
          << "MayWrite probe diverged at step " << step;
      ASSERT_EQ(indexed_.Holds(range, owner, mode), naive_.Holds(range, owner, mode))
          << "Holds probe diverged at step " << step;
      ASSERT_EQ(indexed_.HoldsNonTransaction(range, owner),
                naive_.HoldsNonTransaction(range, owner))
          << "HoldsNonTransaction probe diverged at step " << step;
      ASSERT_EQ(SortedOwners(indexed_.ConflictingOwners(range, owner, mode)),
                SortedOwners(naive_.ConflictingOwners(range, owner, mode)))
          << "ConflictingOwners probe diverged at step " << step;
    }
  }

  std::mt19937 rng_;
  std::vector<LockOwner> owners_;
  LockList indexed_;
  NaiveLockList naive_;
};

TEST(LockIndexDifferentialTest, RandomizedOpsMatchNaive) {
  // Several independent seeds; 10k+ randomized operations in total.
  for (uint32_t seed : {1u, 7u, 42u, 1985u}) {
    DifferentialHarness harness(seed);
    harness.RunSteps(3000);
  }
}

}  // namespace
}  // namespace locus
