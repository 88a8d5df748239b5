// Wait-for-graph construction, cycle detection and victim selection
// (section 3.1: deadlock detection is a user-level service built on the
// kernel's exported wait-for data), plus an end-to-end deadlock between two
// distributed transactions resolved by the detector daemon.

#include "src/lock/deadlock.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>

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

// --- Event-driven detection: tier 1 breaks a cycle at one site the moment
// it forms, without messages; tier 2 finds cross-site cycles in the wait-for
// edges that sites with aged cross-site waits push once per period. ---

// Creates `path` (one record) at `site` and waits for it.
void CreateAt(Syscalls& sys, SiteId site, const std::string& path) {
  sys.Fork(site, [path](Syscalls& c) {
    ASSERT_EQ(c.Creat(path), Err::kOk);
    auto fd = c.Open(path, {.read = true, .write = true});
    c.WriteString(fd.value, "RRRRRRRR");
    c.Close(fd.value);
  });
  sys.WaitChildren();
}

// One contender of a two-file deadlock: locks `first`, holds it 100 ms, then
// locks `second`. Records when the second request was made and returned.
struct Contender {
  Contender(std::string first_path, std::string second_path, SimTime start_delay)
      : first(std::move(first_path)), second(std::move(second_path)), start(start_delay) {}

  std::string first;
  std::string second;
  SimTime start;  // Delay before BeginTrans, so ids order by start.
  std::function<void(Syscalls&)> before_second;  // Runs just before the second Lock.
  SimTime asked_at = -1;
  SimTime answered_at = -1;
  Err second_err = Err::kOk;
  bool committed = false;

  void Run(Syscalls& sys) {
    sys.Compute(start);
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto f1 = sys.Open(first, {.read = true, .write = true});
    ASSERT_TRUE(f1.ok());
    ASSERT_EQ(sys.Lock(f1.value, 8, LockOp::kExclusive).err, Err::kOk);
    sys.Compute(Milliseconds(100));
    auto f2 = sys.Open(second, {.read = true, .write = true});
    ASSERT_TRUE(f2.ok());
    if (before_second) {
      before_second(sys);
    }
    asked_at = sys.system().sim().Now();
    second_err = sys.Lock(f2.value, 8, LockOp::kExclusive, {.wait = true}).err;
    answered_at = sys.system().sim().Now();
    if (second_err != Err::kOk) {
      return;  // The victim: its transaction was aborted under it.
    }
    sys.Close(f1.value);
    sys.Close(f2.value);
    committed = sys.EndTrans() == Err::kOk;
  }
};

TEST(DeadlockEventDriven, LocalCycleBrokenWhenItFormsWithoutMessages) {
  // Both transactions and both files live at site 0; the tier-2 rounds run
  // at site 1 with a period far longer than the run needs.
  System system(2);
  Contender older{"/a", "/b", 0};
  Contender younger{"/b", "/a", Milliseconds(10)};
  system.Spawn(0, "setup", [&](Syscalls& sys) {
    CreateAt(sys, 0, "/a");
    CreateAt(sys, 0, "/b");
    sys.Fork(0, [&](Syscalls& c) { older.Run(c); });
    sys.Fork(0, [&](Syscalls& c) { younger.Run(c); });
    sys.WaitChildren();
  });
  system.StartDeadlockDetector(1, Seconds(10));
  system.RunFor(Seconds(5));

  EXPECT_EQ(system.stats().Get("deadlock.victims"), 1);
  EXPECT_EQ(system.stats().Get("deadlock.local_victims"), 1);
  EXPECT_TRUE(older.committed);
  EXPECT_EQ(younger.second_err, Err::kAborted);
  // The younger transaction's request closed the cycle; the abort answered
  // it within the local lock service time, not at a later detector round.
  EXPECT_GT(younger.asked_at, older.asked_at);
  EXPECT_LT(younger.answered_at - younger.asked_at, Milliseconds(5));
  EXPECT_EQ(system.net().stats().Get("net.messages"), 0);
  system.StopDaemons();
  system.Run();
  EXPECT_EQ(system.sim().blocked_process_count(), 0);
}

TEST(DeadlockEventDriven, CrossSiteCycleFoundWhenWaiterHoldsOnlyHomeLocks) {
  // T1 (home S) locks /r at R, then waits at S for T3 (home S), which holds
  // /s at S, its home, and waits at R for T1. T3 holds no lock away from
  // its home, yet its wait at R is cross-site: it holds a lock at a site
  // other than R. Both sites must report for the rounds to see the cycle.
  constexpr SiteId kS = 0;
  constexpr SiteId kR = 1;
  System system(3);
  Contender t1{"/r", "/s", 0};
  Contender t3{"/s", "/r", Milliseconds(10)};
  system.Spawn(kS, "setup", [&](Syscalls& sys) {
    CreateAt(sys, kS, "/s");
    CreateAt(sys, kR, "/r");
    sys.Fork(kS, [&](Syscalls& c) { t1.Run(c); });
    sys.Fork(kS, [&](Syscalls& c) { t3.Run(c); });
    sys.WaitChildren();
  });
  system.StartDeadlockDetector(2, Milliseconds(100));
  system.RunFor(Seconds(10));

  EXPECT_EQ(system.stats().Get("deadlock.victims"), 1);
  EXPECT_EQ(system.stats().Get("deadlock.local_victims"), 0);
  // S reports when T1's wait there ages, and the round that report wakes
  // sees only S's edges, since T3's wait at R ages 9 ms later. Each site
  // reports again a period later; the next round sees the cycle and aborts
  // T3, whose wait at R is still queued when R's second report leaves.
  EXPECT_EQ(system.stats().Get("deadlock.reports"), 4);
  EXPECT_GE(system.stats().Get("deadlock.rounds"), 1);
  EXPECT_TRUE(t1.committed);
  EXPECT_EQ(t3.second_err, Err::kAborted);
  system.StopDaemons();
  system.Run();
  EXPECT_EQ(system.sim().blocked_process_count(), 0);
}

TEST(DeadlockEventDriven, CrossSiteCycleBrokenAfterDetectorSiteHeals) {
  // The cycle of the test above forms while the detector site D is
  // partitioned from S and R, so every report is lost. After the heal, each
  // site's next report leaves within a period, and the round that sees the
  // later of the two runs within a period of its arrival: the victim is
  // chosen within two periods and a message latency.
  constexpr SiteId kS = 0;
  constexpr SiteId kR = 1;
  constexpr SiteId kD = 2;
  constexpr SimTime kPeriod = Milliseconds(100);
  System system(3);
  Contender t1{"/r", "/s", 0};
  Contender t3{"/s", "/r", Milliseconds(10)};
  system.Spawn(kS, "setup", [&](Syscalls& sys) {
    CreateAt(sys, kS, "/s");
    CreateAt(sys, kR, "/r");
    sys.Fork(kS, [&](Syscalls& c) { t1.Run(c); });
    sys.Fork(kS, [&](Syscalls& c) { t3.Run(c); });
    sys.WaitChildren();
  });
  system.Partition({{kS, kR}, {kD}});
  system.StartDeadlockDetector(kD, kPeriod);
  system.RunFor(Seconds(2));
  EXPECT_GT(system.stats().Get("deadlock.reports"), 10);
  EXPECT_EQ(system.stats().Get("deadlock.victims"), 0);
  EXPECT_LT(t3.answered_at, 0);  // Still waiting.

  system.HealPartitions();
  system.RunFor(2 * kPeriod);
  EXPECT_EQ(system.stats().Get("deadlock.victims"), 1);
  system.RunFor(Seconds(5));
  EXPECT_EQ(system.stats().Get("deadlock.victims"), 1);
  EXPECT_TRUE(t1.committed);
  EXPECT_EQ(t3.second_err, Err::kAborted);
  system.StopDaemons();
  system.Run();
  EXPECT_EQ(system.sim().blocked_process_count(), 0);
}

// Runs one cross-site wait that ages but closes no cycle: T1 (home S) holds
// /r at R for a second while T2 (home S), holding /s at S, queues for /r at
// R. With the detector at D, R reports once per period while T2 waits.
struct AgedWaitRun {
  int64_t messages = 0;
  int64_t reports = 0;
  int64_t victims = 0;
  bool committed = false;
};

AgedWaitRun RunAgedCrossSiteWait(bool detector) {
  constexpr SiteId kS = 0;
  constexpr SiteId kR = 1;
  constexpr SiteId kD = 2;
  System system(3);
  Contender t1{"/r", "/r2", 0};
  t1.before_second = [](Syscalls& sys) { sys.Compute(Seconds(1)); };
  Contender t2{"/s", "/r", Milliseconds(10)};
  system.Spawn(kS, "setup", [&](Syscalls& sys) {
    CreateAt(sys, kS, "/s");
    CreateAt(sys, kR, "/r");
    CreateAt(sys, kR, "/r2");
    sys.Fork(kS, [&](Syscalls& c) { t1.Run(c); });
    sys.Fork(kS, [&](Syscalls& c) { t2.Run(c); });
    sys.WaitChildren();
  });
  if (detector) {
    system.StartDeadlockDetector(kD, Milliseconds(100));
  }
  system.RunFor(Seconds(10));
  system.StopDaemons();
  system.Run();
  EXPECT_EQ(system.sim().blocked_process_count(), 0);
  return AgedWaitRun{system.net().stats().Get("net.messages"),
                     system.stats().Get("deadlock.reports"),
                     system.stats().Get("deadlock.victims"), t1.committed && t2.committed};
}

TEST(DeadlockEventDriven, DetectorTrafficIsOneMessagePerReport) {
  AgedWaitRun without = RunAgedCrossSiteWait(false);
  AgedWaitRun with = RunAgedCrossSiteWait(true);
  EXPECT_TRUE(without.committed);
  EXPECT_TRUE(with.committed);
  EXPECT_GE(with.reports, 5);  // T2 waits about 1.1 s with a 100 ms period.
  EXPECT_EQ(with.victims, 0);
  EXPECT_EQ(with.messages - without.messages, with.reports);
}

TEST(DeadlockEventDriven, RequestQueuedDuringRouteAbortIsExamined) {
  // Cycle 1 forms at S between two transactions whose home is R, so S's
  // detector blocks in RouteAbort's call to R. Cycle 2, between two
  // transactions of S, closes while that call is out; no request queues
  // after it, so only a search after RouteAbort returns can break it.
  constexpr SiteId kS = 0;
  constexpr SiteId kR = 1;
  System system(2);
  SimTime cycle1_closing_at = -1;
  Contender r_older{"/a", "/b", 0};
  Contender r_younger{"/b", "/a", Milliseconds(10)};
  r_younger.before_second = [&](Syscalls& sys) { cycle1_closing_at = sys.system().sim().Now(); };
  Contender s_older{"/c", "/d", Milliseconds(20)};
  Contender s_younger{"/d", "/c", Milliseconds(30)};
  s_younger.before_second = [&](Syscalls& sys) {
    while (cycle1_closing_at < 0) {
      sys.Compute(Milliseconds(1));
    }
    // The remote request reaches S about 9 ms after it is made, and S's
    // abort call to R returns about 15 ms after that.
    sys.Compute(cycle1_closing_at + Milliseconds(15) - sys.system().sim().Now());
  };
  system.Spawn(kS, "setup", [&](Syscalls& sys) {
    for (const char* path : {"/a", "/b", "/c", "/d"}) {
      CreateAt(sys, kS, path);
    }
    sys.Fork(kR, [&](Syscalls& c) { r_older.Run(c); });
    sys.Fork(kR, [&](Syscalls& c) { r_younger.Run(c); });
    sys.Fork(kS, [&](Syscalls& c) { s_older.Run(c); });
    sys.Fork(kS, [&](Syscalls& c) { s_younger.Run(c); });
    sys.WaitChildren();
  });
  system.StartDeadlockDetector(kS, Seconds(10));
  system.RunFor(Seconds(5));

  EXPECT_EQ(system.stats().Get("deadlock.local_victims"), 2);
  EXPECT_TRUE(r_older.committed);
  EXPECT_EQ(r_younger.second_err, Err::kAborted);
  EXPECT_TRUE(s_older.committed);
  EXPECT_EQ(s_younger.second_err, Err::kAborted);
  // Cycle 2 broke as soon as the detector was free again.
  EXPECT_LT(s_younger.answered_at - s_younger.asked_at, Milliseconds(30));
  system.StopDaemons();
  system.Run();
  EXPECT_EQ(system.sim().blocked_process_count(), 0);
}

TEST(DeadlockEventDriven, IdleClusterSendsNothing) {
  System system(4);
  system.sim().set_drain_watchdog(DrainWatchdog::kFatal);
  system.StartDeadlockDetector(0, Milliseconds(150));
  // Parked detectors are not lost wake-ups, and hold no run open.
  system.Run();
  EXPECT_EQ(system.sim().Now(), 0);
  EXPECT_EQ(system.sim().blocked_process_count(), 0);
  system.RunFor(Seconds(60));
  EXPECT_EQ(system.net().stats().Get("net.messages"), 0);
  EXPECT_EQ(system.stats().Get("deadlock.rounds"), 0);
}

TEST(DeadlockEventDriven, RestartsAfterStopDaemons) {
  System system(2);
  int before = system.sim().live_process_count();
  system.StartDeadlockDetector(0, Milliseconds(150));
  system.Run();
  EXPECT_GT(system.sim().live_process_count(), before);
  system.StopDaemons();
  system.Run();
  EXPECT_EQ(system.sim().live_process_count(), before);  // Parked detectors exited.

  // Started again, it breaks a deadlock.
  Contender older{"/a", "/b", 0};
  Contender younger{"/b", "/a", Milliseconds(10)};
  system.Spawn(0, "setup", [&](Syscalls& sys) {
    CreateAt(sys, 0, "/a");
    CreateAt(sys, 0, "/b");
    sys.Fork(0, [&](Syscalls& c) { older.Run(c); });
    sys.Fork(0, [&](Syscalls& c) { younger.Run(c); });
    sys.WaitChildren();
  });
  system.StartDeadlockDetector(0, Milliseconds(150));
  system.RunFor(Seconds(5));
  EXPECT_EQ(system.stats().Get("deadlock.victims"), 1);
  EXPECT_TRUE(older.committed);
  system.StopDaemons();
  system.Run();
  EXPECT_EQ(system.sim().live_process_count(), before);
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
