// Wait-for-graph construction, cycle detection and victim selection
// (section 3.1: deadlock detection is a user-level service built on the
// kernel's exported wait-for data), plus an end-to-end deadlock between two
// distributed transactions resolved by the detector daemon.

#include "src/lock/deadlock.h"

#include <gtest/gtest.h>

#include "src/locus/system.h"

namespace locus {
namespace {

const TxnId kT1{0, 0, 1};
const TxnId kT2{0, 0, 2};
const TxnId kT3{0, 0, 3};
const FileId kFile{0, 1};

LockOwner Txn(const TxnId& t) { return LockOwner{kNoPid, t}; }
LockOwner Proc(Pid p) { return LockOwner{p, kNoTxn}; }

WaitEdge Edge(LockOwner waiter, LockOwner holder) { return WaitEdge{waiter, holder, kFile}; }

TEST(WaitForGraph, NoCycleInChain) {
  WaitForGraph g;
  g.AddEdges({Edge(Txn(kT1), Txn(kT2)), Edge(Txn(kT2), Txn(kT3))});
  EXPECT_TRUE(g.FindCycles().empty());
  EXPECT_TRUE(g.SelectVictims().empty());
}

TEST(WaitForGraph, DetectsTwoCycle) {
  WaitForGraph g;
  g.AddEdges({Edge(Txn(kT1), Txn(kT2)), Edge(Txn(kT2), Txn(kT1))});
  auto cycles = g.FindCycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].size(), 2u);
  // Victim: the youngest transaction (largest id).
  auto victims = g.SelectVictims();
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].txn, kT2);
}

TEST(WaitForGraph, DetectsSelfCycle) {
  // Degenerate but must not loop: an owner waiting on itself (bad data).
  WaitForGraph g;
  g.AddEdges({Edge(Txn(kT1), Txn(kT1))});
  EXPECT_EQ(g.FindCycles().size(), 1u);
}

TEST(WaitForGraph, DetectsLongCycleAmongChaff) {
  WaitForGraph g;
  g.AddEdges({
      Edge(Txn(kT1), Txn(kT2)),
      Edge(Txn(kT2), Txn(kT3)),
      Edge(Txn(kT3), Txn(kT1)),      // 3-cycle.
      Edge(Proc(50), Txn(kT1)),      // Dangling waiter.
      Edge(Txn(kT3), Proc(60)),      // Dangling holder.
  });
  auto cycles = g.FindCycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].size(), 3u);
  auto victims = g.SelectVictims();
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].txn, kT3);
}

TEST(WaitForGraph, NonTransactionCycleFallsBackToPid) {
  WaitForGraph g;
  g.AddEdges({Edge(Proc(7), Proc(9)), Edge(Proc(9), Proc(7))});
  auto victims = g.SelectVictims();
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].pid, 9);
}

TEST(WaitForGraph, DuplicateEdgesCollapse) {
  WaitForGraph g;
  g.AddEdges({Edge(Txn(kT1), Txn(kT2)), Edge(Txn(kT1), Txn(kT2))});
  EXPECT_EQ(g.edge_count(), 1);
}

// --- End-to-end: two transactions deadlock; the detector aborts the younger,
// the older completes. ---

TEST(DeadlockEndToEnd, DetectorBreaksDistributedDeadlock) {
  System system(2);
  int committed = 0;
  int aborted = 0;

  auto contender = [&](SiteId home, const std::string& first, const std::string& second) {
    return [&, home, first, second](Syscalls& sys) {
      ASSERT_EQ(sys.BeginTrans(), Err::kOk);
      auto f1 = sys.Open(first, {.read = true, .write = true});
      ASSERT_TRUE(f1.ok());
      ASSERT_EQ(sys.Lock(f1.value, 10, LockOp::kExclusive).err, Err::kOk);
      sys.Compute(Milliseconds(80));  // Ensure both hold their first lock.
      auto f2 = sys.Open(second, {.read = true, .write = true});
      ASSERT_TRUE(f2.ok());
      // This queues, forming the cycle; the detector aborts one victim.
      auto r = sys.Lock(f2.value, 10, LockOp::kExclusive, {.wait = true});
      if (r.err != Err::kOk) {
        ++aborted;
        return;  // Victim: its transaction was aborted under it.
      }
      sys.Close(f1.value);
      sys.Close(f2.value);
      if (sys.EndTrans() == Err::kOk) {
        ++committed;
      } else {
        ++aborted;
      }
    };
  };

  system.Spawn(0, "setup", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/a"), Err::kOk);
    auto fa = sys.Open("/a", {.read = true, .write = true});
    sys.WriteString(fa.value, "AAAAAAAAAAAAAAA");
    sys.Close(fa.value);
    sys.Fork(1, [](Syscalls& c) {
      ASSERT_EQ(c.Creat("/b"), Err::kOk);
      auto fb = c.Open("/b", {.read = true, .write = true});
      c.WriteString(fb.value, "BBBBBBBBBBBBBBB");
      c.Close(fb.value);
    });
    sys.WaitChildren();
    // Launch the two contenders in opposite lock orders.
    sys.Fork(0, contender(0, "/a", "/b"));
    sys.Fork(1, contender(1, "/b", "/a"));
    sys.WaitChildren();
  });
  system.StartDeadlockDetector(0, Milliseconds(100));
  system.RunFor(Seconds(20));
  system.StopDaemons();
  system.RunFor(Seconds(1));

  EXPECT_GE(system.stats().Get("deadlock.victims"), 1);
  EXPECT_EQ(aborted, 1);
  EXPECT_EQ(committed, 1);
}

TEST(DeadlockEndToEnd, NoFalsePositivesUnderPlainContention) {
  // Heavy but acyclic contention: the detector must not abort anyone.
  System system(2);
  int completed = 0;
  system.Spawn(0, "setup", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/hot"), Err::kOk);
    auto fd = sys.Open("/hot", {.read = true, .write = true});
    sys.WriteString(fd.value, std::string(64, 'x'));
    sys.Close(fd.value);
    for (int i = 0; i < 4; ++i) {
      sys.Fork(i % 2, [&completed](Syscalls& c) {
        ASSERT_EQ(c.BeginTrans(), Err::kOk);
        auto f = c.Open("/hot", {.read = true, .write = true});
        // Everyone locks the same range in the same order: no cycle.
        ASSERT_EQ(c.Lock(f.value, 64, LockOp::kExclusive).err, Err::kOk);
        c.Compute(Milliseconds(30));
        c.Close(f.value);
        ASSERT_EQ(c.EndTrans(), Err::kOk);
        ++completed;
      });
    }
    sys.WaitChildren();
  });
  system.StartDeadlockDetector(0, Milliseconds(50));
  system.RunFor(Seconds(20));
  system.StopDaemons();
  system.RunFor(Seconds(1));
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(system.stats().Get("deadlock.victims"), 0);
}

// --- Queued waiters of a lost transaction: a foreign transaction queues a
// lock at a storage site, then its home crashes or is partitioned away. The
// storage site's topology-change abort scan must withdraw the queued request;
// otherwise it is granted to the dead transaction when the holder releases,
// and the lock is held by a ghost forever. No detector runs. ---

enum class HomeLoss { kCrash, kPartition };

void RunQueuedWaiterOfLostHome(HomeLoss loss) {
  constexpr SiteId kStorage = 1;
  constexpr SiteId kHome = 2;
  System system(3);
  bool late_committed = false;
  system.Spawn(kStorage, "holder", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/f"), Err::kOk);
    auto fd = sys.Open("/f", {.read = true, .write = true});
    sys.WriteString(fd.value, "FFFFFFFF");
    sys.Close(fd.value);
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    fd = sys.Open("/f", {.read = true, .write = true});
    ASSERT_EQ(sys.Lock(fd.value, 8, LockOp::kExclusive).err, Err::kOk);
    sys.Compute(Seconds(2));  // The waiter queues and loses its home meanwhile.
    sys.Close(fd.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
  });
  system.Spawn(kHome, "waiter", [](Syscalls& sys) {
    sys.Compute(Milliseconds(200));
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/f", {.read = true, .write = true});
    ASSERT_TRUE(fd.ok());
    sys.Lock(fd.value, 8, LockOp::kExclusive, {.wait = true});  // Queues.
  });
  system.Spawn(0, "injector", [loss](Syscalls& sys) {
    sys.Compute(Seconds(1));
    if (loss == HomeLoss::kCrash) {
      sys.system().CrashSite(kHome);
    } else {
      sys.system().Partition({{0, kStorage}, {kHome}});
    }
  });
  // After the holder commits, a later transaction must get the lock.
  system.Spawn(0, "late", [&](Syscalls& sys) {
    sys.Compute(Seconds(3));
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/f", {.read = true, .write = true});
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(sys.Lock(fd.value, 8, LockOp::kExclusive, {.wait = true}).err, Err::kOk);
    sys.Close(fd.value);
    late_committed = sys.EndTrans() == Err::kOk;
  });
  system.Run();

  EXPECT_TRUE(late_committed);
  EXPECT_EQ(system.sim().blocked_process_count(), 0);
  LockManager& locks = system.kernel(kStorage).lock_manager();
  EXPECT_EQ(locks.waiting_count(), 0);
  for (const auto& [file, list] : locks.files()) {
    for (const LockList::Entry& e : list.entries()) {
      EXPECT_NE(e.owner.txn.site, kHome) << "ghost lock of " << ToString(e.owner.txn);
    }
  }
}

TEST(QueuedWaiterOfLostHome, HomeCrashWithdrawsQueuedRequest) {
  RunQueuedWaiterOfLostHome(HomeLoss::kCrash);
}

TEST(QueuedWaiterOfLostHome, HomePartitionWithdrawsQueuedRequest) {
  RunQueuedWaiterOfLostHome(HomeLoss::kPartition);
}

}  // namespace
}  // namespace locus
