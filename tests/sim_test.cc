// Tests for the discrete-event engine: ordering, virtual time, cooperative
// processes, wait queues, determinism, forced termination, and the fiber
// scheduler's stack pool and per-fiber register state.

#include "src/sim/simulation.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>
#include <xmmintrin.h>

#include <algorithm>
#include <cfenv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/time.h"

namespace locus {
namespace {

TEST(SimTime, UnitConversions) {
  EXPECT_EQ(Milliseconds(1), 1000);
  EXPECT_EQ(Seconds(1), 1000 * 1000);
  EXPECT_DOUBLE_EQ(ToMilliseconds(Milliseconds(42)), 42.0);
}

TEST(SimTime, InstructionCostMatchesPaperCalibration) {
  // 750 instructions should land near the paper's 1.5-2 ms local lock cost.
  SimTime lock_cost = InstructionCost(750);
  EXPECT_GE(lock_cost, Microseconds(1400));
  EXPECT_LE(lock_cost, Milliseconds(2));
  // 9450 instructions should land near the 21 ms non-overlap commit service.
  SimTime commit_cost = InstructionCost(9450);
  EXPECT_GE(commit_cost, Milliseconds(20));
  EXPECT_LE(commit_cost, Milliseconds(22));
}

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(Milliseconds(30), [&] { order.push_back(3); });
  sim.Schedule(Milliseconds(10), [&] { order.push_back(1); });
  sim.Schedule(Milliseconds(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Milliseconds(30));
}

TEST(Simulation, TiesBreakInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(Simulation, ProcessSleepAdvancesVirtualTime) {
  Simulation sim;
  SimTime observed = -1;
  sim.Spawn("sleeper", [&] {
    sim.Sleep(Milliseconds(7));
    observed = sim.Now();
  });
  sim.Run();
  EXPECT_EQ(observed, Milliseconds(7));
}

TEST(Simulation, ProcessesInterleaveAtBlockingPoints) {
  Simulation sim;
  std::vector<std::string> log;
  sim.Spawn("a", [&] {
    log.push_back("a1");
    sim.Sleep(Milliseconds(10));
    log.push_back("a2");
  });
  sim.Spawn("b", [&] {
    log.push_back("b1");
    sim.Sleep(Milliseconds(5));
    log.push_back("b2");
  });
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"a1", "b1", "b2", "a2"}));
}

TEST(Simulation, WaitQueueBlocksUntilNotified) {
  Simulation sim;
  WaitQueue queue(&sim);
  SimTime woke_at = -1;
  sim.Spawn("waiter", [&] {
    queue.Wait();
    woke_at = sim.Now();
  });
  sim.Schedule(Milliseconds(25), [&] { queue.NotifyOne(); });
  sim.Run();
  EXPECT_EQ(woke_at, Milliseconds(25));
  EXPECT_EQ(sim.blocked_process_count(), 0);
}

TEST(Simulation, NotifyAllWakesEveryWaiter) {
  Simulation sim;
  WaitQueue queue(&sim);
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    sim.Spawn("w" + std::to_string(i), [&] {
      queue.Wait();
      ++woken;
    });
  }
  sim.Schedule(Milliseconds(1), [&] { queue.NotifyAll(); });
  sim.Run();
  EXPECT_EQ(woken, 5);
}

TEST(Simulation, BlockedProcessReportedWhenNeverNotified) {
  Simulation sim;
  WaitQueue queue(&sim);
  sim.Spawn("stuck", [&] { queue.Wait(); });
  sim.Run();
  EXPECT_EQ(sim.blocked_process_count(), 1);
}

TEST(Simulation, KillUnwindsBlockedProcess) {
  Simulation sim;
  WaitQueue queue(&sim);
  bool cleaned_up = false;
  bool reached_end = false;
  ProcessHandle victim = sim.Spawn("victim", [&] {
    struct Guard {
      bool* flag;
      ~Guard() { *flag = true; }
    } guard{&cleaned_up};
    queue.Wait();
    reached_end = true;
  });
  sim.Schedule(Milliseconds(10), [&] { sim.Kill(victim); });
  sim.Run();
  EXPECT_TRUE(cleaned_up);   // RAII ran during unwind.
  EXPECT_FALSE(reached_end);  // Body never resumed normally.
  EXPECT_EQ(sim.Find(victim), nullptr);  // Finished and reclaimed.
  EXPECT_EQ(sim.live_process_count(), 0);
}

TEST(Simulation, KillIsIdempotentAndStaleWakeupsAreHarmless) {
  Simulation sim;
  WaitQueue queue(&sim);
  bool cleaned_up = false;
  ProcessHandle victim = sim.Spawn("victim", [&] {
    struct Guard {
      bool* flag;
      ~Guard() { *flag = true; }
    } guard{&cleaned_up};
    queue.Wait();
  });
  sim.Schedule(Milliseconds(1), [&] {
    sim.Kill(victim);
    sim.Kill(victim);
  });
  sim.Schedule(Milliseconds(2), [&] {
    sim.Kill(victim);   // Reclaimed by now: a no-op.
    queue.NotifyAll();  // Stale wake-up.
  });
  sim.Run();
  EXPECT_TRUE(cleaned_up);
  EXPECT_EQ(sim.Find(victim), nullptr);
}

TEST(Simulation, StaleHandleFindsNothingAfterItsSlotIsReused) {
  Simulation sim;
  WaitQueue queue(&sim);
  ProcessHandle first = sim.Spawn("first", [] {});
  sim.Run();
  ProcessHandle second = sim.Spawn("second", [&] { queue.Wait(); });
  EXPECT_EQ(second.slot, first.slot);  // The finished process's slot.
  EXPECT_EQ(sim.Find(first), nullptr);
  ASSERT_NE(sim.Find(second), nullptr);
  EXPECT_EQ(sim.Find(second)->name(), "second");
  EXPECT_EQ(sim.Find(ProcessHandle{}), nullptr);
  sim.Kill(first);  // Must not touch "second".
  sim.Run();
  EXPECT_EQ(sim.blocked_process_count(), 1);
  EXPECT_EQ(sim.live_process_count(), 1);
}

TEST(Simulation, FinishedProcessReleasesItsBodyCaptures) {
  Simulation sim;
  auto token = std::make_shared<int>(0);
  sim.Spawn("holder", [token, &sim] { sim.Sleep(Milliseconds(1)); });
  EXPECT_EQ(token.use_count(), 2);
  sim.Run();
  EXPECT_EQ(token.use_count(), 1);  // Gone with the process, not with the sim.
}

TEST(Simulation, KilledSleepersTimerFiresButWakesNoReusedSlot) {
  // The victim's 10 ms sleep timer stays queued after the kill (cancelling it
  // would renumber later events); when it fires, the victim's slot belongs to
  // a process parked in a WaitQueue, which it must not wake.
  Simulation sim;
  WaitQueue queue(&sim);
  bool cleaned_up = false;
  bool successor_woke = false;
  ProcessHandle victim = sim.Spawn("sleeper", [&] {
    struct Guard {
      bool* flag;
      ~Guard() { *flag = true; }
    } guard{&cleaned_up};
    sim.Sleep(Milliseconds(10));
  });
  ProcessHandle successor;
  sim.Schedule(Milliseconds(1), [&] { sim.Kill(victim); });
  sim.Schedule(Milliseconds(2), [&] {
    successor = sim.Spawn("successor", [&] {
      queue.Wait();
      successor_woke = true;
    });
  });
  sim.Run();
  EXPECT_TRUE(cleaned_up);
  EXPECT_EQ(sim.Find(victim), nullptr);
  EXPECT_EQ(successor.slot, victim.slot);
  EXPECT_EQ(sim.Now(), Milliseconds(10));  // The stale timer still ran.
  EXPECT_FALSE(successor_woke);
  EXPECT_EQ(sim.blocked_process_count(), 1);
}

TEST(Simulation, KilledWaitersEntryWakesNoReusedSlot) {
  // The victim's WaitQueue entry outlives it; NotifyAll then reaches the
  // victim's slot while a sleeping process owns it, and must not cut that
  // sleep short.
  Simulation sim;
  WaitQueue queue(&sim);
  bool cleaned_up = false;
  SimTime successor_woke_at = -1;
  ProcessHandle victim = sim.Spawn("waiter", [&] {
    struct Guard {
      bool* flag;
      ~Guard() { *flag = true; }
    } guard{&cleaned_up};
    queue.Wait();
  });
  ProcessHandle successor;
  sim.Schedule(Milliseconds(1), [&] {
    sim.Kill(victim);
    EXPECT_EQ(queue.size(), 1u);
  });
  sim.Schedule(Milliseconds(2), [&] {
    successor = sim.Spawn("successor", [&] {
      sim.Sleep(Milliseconds(10));
      successor_woke_at = sim.Now();
    });
  });
  sim.Schedule(Milliseconds(3), [&] { queue.NotifyAll(); });
  sim.Run();
  EXPECT_TRUE(cleaned_up);
  EXPECT_EQ(successor.slot, victim.slot);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(successor_woke_at, Milliseconds(12));
}

TEST(Simulation, RunForStopsAtDeadline) {
  Simulation sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    sim.Schedule(Milliseconds(10), tick);
  };
  sim.Schedule(Milliseconds(10), tick);
  sim.RunFor(Milliseconds(55));
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(sim.Now(), Milliseconds(55));
}

TEST(Simulation, CancelledEventNeverRuns) {
  Simulation sim;
  std::vector<int> order;
  EventId timeout = sim.Schedule(Seconds(600), [&] { order.push_back(600); });
  sim.Schedule(Milliseconds(10), [&] { order.push_back(1); });
  EventId doomed = sim.Schedule(Milliseconds(20), [&] { order.push_back(2); });
  sim.Schedule(Milliseconds(30), [&] {
    order.push_back(3);
    sim.Cancel(timeout);  // From event context, as a reply cancels its timeout.
  });
  EXPECT_EQ(sim.pending_event_count(), 4u);
  sim.Cancel(doomed);
  EXPECT_EQ(sim.pending_event_count(), 3u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  // Run returns at the last live event, not at the cancelled timer behind it.
  EXPECT_EQ(sim.Now(), Milliseconds(30));
  EXPECT_EQ(sim.pending_event_count(), 0u);
}

TEST(Simulation, CancelAfterRunIsANoOp) {
  Simulation sim;
  int ran = 0;
  EventId id = sim.Schedule(Milliseconds(1), [&] { ++ran; });
  // Cancelling itself from inside its own callback is a no-op too.
  EventId self;
  self = sim.Schedule(Milliseconds(2), [&] {
    ++ran;
    sim.Cancel(self);
  });
  sim.Run();
  EXPECT_EQ(ran, 2);
  sim.Cancel(id);
  sim.Cancel(id);  // Twice: still nothing to do.
  sim.Cancel(EventId{});
  EXPECT_EQ(sim.pending_event_count(), 0u);
  sim.Schedule(Milliseconds(1), [&] { ++ran; });
  sim.Run();
  EXPECT_EQ(ran, 3);
}

TEST(Simulation, StaleHandleDoesNotCancelTheEventReusingItsSlot) {
  Simulation sim;
  int ran = 0;
  EventId first = sim.Schedule(Milliseconds(1), [&] { ++ran; });
  sim.Cancel(first);
  EventId second = sim.Schedule(Milliseconds(2), [&] { ++ran; });
  ASSERT_EQ(second.slot, first.slot) << "the freed slot should be reused";
  ASSERT_NE(second.seq, first.seq);
  sim.Cancel(first);  // Names the old event, not the one now in its slot.
  EXPECT_EQ(sim.pending_event_count(), 1u);
  sim.Run();
  EXPECT_EQ(ran, 1);

  // The same after the earlier event ran rather than being cancelled.
  EventId ran_already = sim.Schedule(Milliseconds(1), [&] { ++ran; });
  sim.Run();
  EventId reuser = sim.Schedule(Milliseconds(1), [&] { ++ran; });
  ASSERT_EQ(reuser.slot, ran_already.slot);
  sim.Cancel(ran_already);
  sim.Run();
  EXPECT_EQ(ran, 3);
}

// Drives the queue with random schedules and cancels from inside event
// callbacks, and checks every step against a reference ordered set of
// (time, seq): each event that runs must be the reference's first, at its
// own time, and the queue's size must match the reference's.
TEST(Simulation, RandomScheduleCancelMatchesReferenceOrder) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Simulation sim;
    Rng rng(seed);
    std::set<std::pair<SimTime, uint64_t>> reference;
    std::vector<EventId> handles;  // Live, run and cancelled alike.
    int64_t ran = 0;
    int64_t cancelled_live = 0;
    int64_t budget = 3000;  // Schedules left in this run.
    std::function<void(SimTime, uint64_t)> body;
    auto schedule = [&](SimTime delay) {
      const SimTime at = sim.Now() + delay;
      const size_t index = handles.size();
      EventId id = sim.Schedule(delay, [&, at, index] { body(at, handles[index].seq); });
      handles.push_back(id);
      reference.insert({at, id.seq});
      --budget;
    };
    body = [&](SimTime at, uint64_t seq) {
      ASSERT_FALSE(reference.empty());
      ASSERT_EQ(*reference.begin(), std::make_pair(at, seq)) << "seed " << seed;
      ASSERT_EQ(sim.Now(), at);
      reference.erase(reference.begin());
      ++ran;
      int ops = 1 + static_cast<int>(rng.Below(4));
      for (int i = 0; i < ops; ++i) {
        if (budget > 0 && rng.Chance(0.6)) {
          // Small delays make exact-time ties common.
          schedule(static_cast<SimTime>(rng.Below(8)));
        } else if (!handles.empty()) {
          // A recent handle: a live event, one that ran, or one already
          // cancelled.
          const size_t recent = std::min<size_t>(handles.size(), 32);
          EventId victim = handles[handles.size() - 1 - rng.Below(recent)];
          sim.Cancel(victim);
          for (auto it = reference.begin(); it != reference.end(); ++it) {
            if (it->second == victim.seq) {
              reference.erase(it);
              ++cancelled_live;
              break;
            }
          }
        }
      }
      ASSERT_EQ(sim.pending_event_count(), reference.size());
    };
    for (int i = 0; i < 16; ++i) {
      schedule(static_cast<SimTime>(rng.Below(8)));
    }
    sim.Run();
    EXPECT_TRUE(reference.empty()) << "seed " << seed;
    EXPECT_EQ(sim.pending_event_count(), 0u);
    EXPECT_GT(ran, 500) << "seed " << seed;
    EXPECT_GT(cancelled_live, 100) << "seed " << seed;
  }
}

// Picks a fixed option index at every tie, recording what it was offered.
class PickIndexPolicy : public SchedulePolicy {
 public:
  explicit PickIndexPolicy(size_t index) : index_(index) {}
  size_t PickNext(SimTime, const std::vector<EventInfo>& options) override {
    offered.push_back(options.size());
    return index_;
  }
  std::vector<size_t> offered;

 private:
  size_t index_;
};

TEST(Simulation, TiedEventsPutBackByAPolicyStayCancellable) {
  Simulation sim;
  PickIndexPolicy policy(1);
  sim.set_schedule_policy(&policy);
  std::vector<int> order;
  std::vector<EventId> ids(4);
  for (int i = 0; i < 4; ++i) {
    EventInfo info{EventTag::kGeneric, i, -1, -1};
    ids[i] = sim.Schedule(Milliseconds(5), info, [&, i] {
      order.push_back(i);
      if (i == 1) {
        // Events 0, 2 and 3 were popped as the tie and put back: their
        // handles must still name them.
        sim.Cancel(ids[0]);
        sim.Cancel(ids[3]);
      }
    });
  }
  sim.Schedule(Milliseconds(9), [&] { order.push_back(9); });
  sim.Run();
  // Tie of four: the policy picks option 1. Only event 2 is left at 5 ms,
  // so no further tie is offered.
  EXPECT_EQ(policy.offered, (std::vector<size_t>{4}));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 9}));
  EXPECT_EQ(sim.pending_event_count(), 0u);
}

TEST(Simulation, BurnInstructionsAdvancesClock) {
  Simulation sim;
  sim.Spawn("cpu", [&] { sim.BurnInstructions(kInstructionsPerMs * 3); });
  sim.Run();
  EXPECT_EQ(sim.Now(), Milliseconds(3));
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run_once = [](uint64_t seed) {
    Simulation sim(seed);
    std::vector<int64_t> trace;
    for (int i = 0; i < 4; ++i) {
      sim.Spawn("p" + std::to_string(i), [&, i] {
        for (int j = 0; j < 5; ++j) {
          sim.Sleep(Microseconds(static_cast<int64_t>(sim.rng().Below(5000))));
          trace.push_back(sim.Now() * 16 + i);
        }
      });
    }
    sim.Run();
    return trace;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(Simulation, TeardownWithBlockedProcessesDoesNotHang) {
  auto sim = std::make_unique<Simulation>();
  WaitQueue queue(sim.get());
  for (int i = 0; i < 3; ++i) {
    sim->Spawn("stuck" + std::to_string(i), [&] { queue.Wait(); });
  }
  sim->Run();
  sim.reset();  // Must unwind every blocked fiber without deadlock.
  SUCCEED();
}

// Number of memory mappings of this process (lines of /proc/self/maps).
int MapCount() {
  std::ifstream maps("/proc/self/maps");
  std::string line;
  int n = 0;
  while (std::getline(maps, line)) {
    ++n;
  }
  return n;
}

TEST(Simulation, FinishedProcessesReturnTheirStacksToThePool) {
  // 100k processes through one Simulation, at most 200 alive at once. Were a
  // finished process to keep its guarded stack (two mappings) until the
  // Simulation dies, this would pass vm.max_map_count (65530 by default);
  // were it to keep its record, the live count would climb to 100k.
  constexpr int kProcesses = 100000;
  constexpr int kBatch = 200;
  Simulation sim;
  const int maps_before = MapCount();
  int finished = 0;
  int maps_during = 0;
  int most_live = 0;
  sim.Spawn("spawner", [&] {
    for (int i = 0; i < kProcesses; ++i) {
      sim.Spawn("child", [&] {
        sim.Sleep(Microseconds(1));
        ++finished;
      });
      most_live = std::max(most_live, sim.live_process_count());
      if (i % kBatch == kBatch - 1) {
        sim.Sleep(Microseconds(10));
      }
    }
    maps_during = MapCount();
  });
  sim.Run();
  EXPECT_EQ(finished, kProcesses);
  EXPECT_EQ(sim.spawned_process_count(), kProcesses + 1);
  EXPECT_EQ(sim.live_process_count(), 0);
  EXPECT_LE(most_live, kBatch + 1);  // The spawner plus one batch.
  EXPECT_EQ(sim.blocked_process_count(), 0);
  // Mappings follow the live fibers (about kBatch), not the 100k spawned: two
  // per stack, plus whatever the TSan runtime keeps per live fiber (about 8).
  EXPECT_LT(maps_during - maps_before, 20 * kBatch);
}

TEST(Simulation, KillAndTeardownUnwindProcessesOnRecycledStacks) {
  auto sim = std::make_unique<Simulation>();
  WaitQueue queue(sim.get());
  uintptr_t first_frame = 0;
  sim->Spawn("first", [&] {
    int local = 0;
    first_frame = reinterpret_cast<uintptr_t>(&local);
  });
  sim->Run();  // "first" finished; its stack is back in the pool.

  struct Guard {
    int* unwound;
    ~Guard() { ++*unwound; }
  };
  int unwound = 0;
  bool resumed = false;
  uintptr_t victim_frame = 0;
  ProcessHandle victim = sim->Spawn("victim", [&] {
    Guard guard{&unwound};
    int local = 0;
    victim_frame = reinterpret_cast<uintptr_t>(&local);
    queue.Wait();
    resumed = true;
  });
  sim->Schedule(Milliseconds(1), [&] { sim->Kill(victim); });
  sim->Run();
  // The victim ran on the stack "first" gave back, and Kill unwound it there.
  const uintptr_t distance = victim_frame > first_frame ? victim_frame - first_frame
                                                        : first_frame - victim_frame;
  EXPECT_LT(distance, 64u * 1024);
  EXPECT_EQ(sim->Find(victim), nullptr);
  EXPECT_EQ(unwound, 1);
  EXPECT_FALSE(resumed);

  // The victim's stack went back too; teardown unwinds blocked processes on
  // recycled stacks through SimCancelled.
  for (int i = 0; i < 3; ++i) {
    sim->Spawn("stuck", [&] {
      Guard guard{&unwound};
      queue.Wait();
      resumed = true;
    });
  }
  sim->Run();
  EXPECT_EQ(sim->blocked_process_count(), 3);
  sim.reset();
  EXPECT_EQ(unwound, 4);
  EXPECT_FALSE(resumed);
}

// Recurses through `depth` frames of a little over 1 KiB each. Each frame
// reaches at most that far below the one above it, so the first access past
// the end of a stack lands in the 4 KiB guard page below it.
__attribute__((noinline)) int Recurse(int depth) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  frame[sizeof(frame) - 1] = frame[0];
  if (depth == 0) {
    return frame[0];
  }
  return Recurse(depth - 1) + frame[sizeof(frame) - 1];
}

// Runs one process to completion so its stack is pooled, then runs `body`
// on that recycled stack.
void RunOnPooledStack(const std::function<void()>& body) {
  Simulation sim;
  sim.Spawn("warm", [] {});
  sim.Run();
  sim.Spawn("deep", body);
  sim.Run();
}

// Upper end of the deep fiber's stack. Stacks are 512 KiB and end on a page
// boundary, with a 4 KiB guard page below them.
uintptr_t g_deep_stack_top = 0;

void ReportOverflowFault(int, siginfo_t* info, void*) {
  const uintptr_t guard_end = g_deep_stack_top - 512 * 1024;
  const uintptr_t addr = reinterpret_cast<uintptr_t>(info->si_addr);
  const bool on_guard = addr < guard_end && addr >= guard_end - 4096;
  const char* msg = on_guard ? "fault on guard page\n" : "fault elsewhere\n";
  (void)!write(STDERR_FILENO, msg, strlen(msg));
  _exit(1);
}

void OverflowPooledStack() {
  // The overflow leaves the fiber no stack to run a handler on.
  static char alt_stack[64 * 1024];
  stack_t ss{};
  ss.ss_sp = alt_stack;
  ss.ss_size = sizeof(alt_stack);
  sigaltstack(&ss, nullptr);
  struct sigaction sa {};
  sa.sa_sigaction = ReportOverflowFault;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigaction(SIGSEGV, &sa, nullptr);
  RunOnPooledStack([] {
    int top = 0;
    g_deep_stack_top = (reinterpret_cast<uintptr_t>(&top) + 4095) & ~uintptr_t{4095};
    Recurse(640);  // At least 640 KiB.
  });
}

TEST(SimulationDeathTest, OverflowFaultsOnGuardPageOfPooledStack) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  bool done = false;
  RunOnPooledStack([&] { done = Recurse(256) != -1; });  // Under 512 KiB.
  EXPECT_TRUE(done);
  EXPECT_DEATH(OverflowPooledStack(), "fault on guard page");
}

TEST(Simulation, FloatingPointControlIsSavedPerFiber) {
  // fesetround sets both the x87 control word (read back by fegetround) and
  // MXCSR (which rounds SSE arithmetic); a switch must carry both.
  Simulation sim;
  int a_x87 = -1, b_x87 = -1, event_x87 = -1;
  unsigned a_sse = 0, b_sse = 0, event_sse = 0;
  sim.Spawn("a", [&] {
    fesetround(FE_UPWARD);
    sim.Sleep(Microseconds(10));
    a_x87 = fegetround();
    a_sse = _MM_GET_ROUNDING_MODE();
  });
  sim.Spawn("b", [&] {
    sim.Sleep(Microseconds(5));
    b_x87 = fegetround();
    b_sse = _MM_GET_ROUNDING_MODE();
  });
  sim.Schedule(Microseconds(5), [&] {
    event_x87 = fegetround();
    event_sse = _MM_GET_ROUNDING_MODE();
  });
  sim.Run();
  const int scheduler_x87 = fegetround();
  fesetround(FE_TONEAREST);
  EXPECT_EQ(a_x87, FE_UPWARD);
  EXPECT_EQ(a_sse, static_cast<unsigned>(_MM_ROUND_UP));
  EXPECT_EQ(b_x87, FE_TONEAREST);
  EXPECT_EQ(b_sse, static_cast<unsigned>(_MM_ROUND_NEAREST));
  EXPECT_EQ(event_x87, FE_TONEAREST);
  EXPECT_EQ(event_sse, static_cast<unsigned>(_MM_ROUND_NEAREST));
  EXPECT_EQ(scheduler_x87, FE_TONEAREST);
}

TEST(Rng, DeterministicAndRoughlyUniform) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Rng r(1);
  int buckets[10] = {0};
  for (int i = 0; i < 10000; ++i) {
    buckets[r.Below(10)]++;
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_GT(buckets[i], 800);
    EXPECT_LT(buckets[i], 1200);
  }
}

TEST(Rng, RangeIsInclusive) {
  Rng r(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.Range(2, 4);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 4);
    saw_lo |= v == 2;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

}  // namespace
}  // namespace locus
