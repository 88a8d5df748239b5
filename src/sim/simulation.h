// Discrete-event simulation engine with cooperative blocking processes.
//
// The engine is single-threaded from the simulation's point of view: exactly
// one piece of simulated code runs at any instant, either an event callback
// or a SimProcess. Process bodies are written in natural blocking style (as
// Unix syscalls are) while the run stays fully deterministic.
//
// Every process is a fiber on a guarded stack, and there is one scheduler in
// every build. A switch saves the callee-saved registers, MXCSR and the x87
// control word, swaps the stack pointer and returns: no signal-mask syscall,
// no OS scheduler. That unchecked hand-off is safe because the scheduler is
// the only thing that ever resumes a fiber, and it does so in an order fixed
// by the event queue; the virtual results cannot depend on how fast a switch
// is. Stacks come from a per-Simulation free list: a process takes one the
// first time it runs and gives it back once its body has finished. Each
// pooled stack keeps its PROT_NONE guard page, so an overflow still faults
// instead of silently corrupting a neighbouring stack. ASan and TSan builds
// run this same scheduler, with each switch announced through the sanitizer
// fiber API.
//
// Memory follows live processes, not the number ever spawned. Processes sit
// in a slot array, and a finished process is destroyed, with its body's
// captures and its name, as soon as its fiber has switched out for the last
// time and its stack is back in the pool. Everything that refers to a
// process from outside it (a wake-up event, a sleep timer, a WaitQueue
// entry, a kernel's process table) holds a ProcessHandle, which resolves to
// nullptr once the process is gone. Events addressed to a dead process still
// fire and do nothing, exactly as they did when finished processes were
// kept, so the event order is the same either way.
//
// The event queue holds only live events. It is an indexed 4-ary heap of
// small (time, seq, slot) nodes; each event's callback and tag stay put in a
// slot array while the nodes sift, and every slot records where its node
// sits in the heap. That index is what makes an event cancellable: Schedule
// returns an EventId, and Cancel removes the event in O(log n). A timer that
// has become pointless (an RPC timeout whose reply has arrived, a formation
// flush a size flush has pre-empted) is cancelled rather than left to run as
// a no-op, so the heap stays as small as the set of things that can still
// happen, and Run returns as soon as nothing can. Cancelling never reorders
// what remains: live events still run in (time, seq) order.

#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/time.h"

namespace locus {

class Simulation;
class SimProcess;

// Handle to a scheduled event, returned by Simulation::Schedule/ScheduleAt.
// It names the event's slot and its seq (unique per event), so a handle can
// safely outlive its event: once the event has run or been cancelled, and
// even after its slot has been reused, Cancel(handle) does nothing. A
// default-constructed handle names no event.
struct EventId {
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  uint32_t slot = kNoSlot;
  uint64_t seq = 0;

  explicit operator bool() const { return slot != kNoSlot; }
};

// Handle to a process, returned by Simulation::Spawn. Like EventId it names a
// slot plus something that tells its occupants apart: the slot's generation,
// which moves on each time a process leaves the slot. A handle can safely
// outlive its process: once the process has finished and been reclaimed, and
// even after its slot holds a newer process, Find(handle) returns nullptr and
// Kill(handle) does nothing. A default-constructed handle names no process.
// Eight bytes, so a wake-up callback holding one and a Simulation pointer
// still fits std::function's inline buffer.
struct ProcessHandle {
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  uint32_t slot = kNoSlot;
  uint32_t generation = 0;
};
static_assert(sizeof(ProcessHandle) == 8);

// ---------------------------------------------------------------------------
// Decision-point interface (schedule-space exploration; see src/mc).
//
// The engine resolves every source of "who goes first" nondeterminism by a
// fixed rule: events that tie at one virtual time run in schedule order
// (seq). That rule is correct but arbitrary — a real cluster could resolve
// each tie either way. A SchedulePolicy, when installed, is consulted at
// every such tie and may pick any of the tied events, letting a model
// checker own the schedule and search the interleaving space. With no policy
// installed (the default) the engine's behavior is bit-for-bit identical to
// the historical fixed order, and the hot path is untouched.

// What a schedulable event represents, so policies can tell message traffic
// from process wake-ups without parsing strings. The int fields are
// tag-specific (see comments); -1 means "not applicable".
enum class EventTag : uint8_t {
  kGeneric = 0,   // Untagged internal event.
  kWakeup,        // Process becomes runnable.       a = pid
  kSleepDone,     // Sleep timer expiry.             a = pid
  kNetDeliver,    // Message delivery.               a = from, b = to, c = msg type
  kRpcReply,      // RPC reply completion.           a = responder site, b = caller site, c = call id
  kRpcTimeout,    // RPC timeout / failure firing.   a = caller site, b = dest site, c = call id
  kTopology,      // Topology-change notification.   a = site
  kFormFlush,     // Formation flush deadline.       a = site, b = dest site
};

struct EventInfo {
  EventTag tag = EventTag::kGeneric;
  int32_t a = -1;
  int32_t b = -1;
  int32_t c = -1;
};

// Compact human-readable label ("dlv:0>1:t7", "wake:p12") used in
// counterexample traces and sleep-set bookkeeping.
std::string EventInfoLabel(const EventInfo& info);

// Two-phase-commit protocol steps at which a site crash may be injected,
// aligned with the section 4 log writes (see DESIGN.md). The kernel consults
// Simulation::AtCrashPoint at each; the crash-point enumerator in src/mc
// sweeps every (step, site) occurrence of a run.
enum class ProtocolStep : uint8_t {
  kCoordLogWritten = 0,  // Coordinator: after the coordinator log append.
  kBeforeCommitMark,     // Coordinator: before the commit-mark log update.
  kAfterCommitMark,      // Coordinator: after the commit mark is durable.
  kBeforeCommitSend,     // Coordinator: before sending one commit message.
  kBeforePrepareLog,     // Participant: before the prepare log append.
  kAfterPrepareLog,      // Participant: after the prepare record is durable.
  kPrepareReplySent,     // Participant: after the prepare reply left.
  kBeforeCommitInstall,  // Participant: before installing intentions.
  kAfterCommitInstall,   // Participant: after installing intentions.
};
inline constexpr int kProtocolStepCount = 9;

const char* ProtocolStepName(ProtocolStep step);

// Pluggable resolver for the engine's decision points. Stateless by default:
// the base implementation reproduces the historical fixed order exactly.
class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;

  // Called when `options.size() >= 2` events tie at virtual time `now`.
  // Options are listed in the engine's historical (seq) order; returning 0
  // preserves that order. Out-of-range returns are clamped to 0.
  virtual size_t PickNext(SimTime now, const std::vector<EventInfo>& options) {
    (void)now;
    (void)options;
    return 0;
  }

  // Called at each two-phase-commit protocol step; returning true crashes
  // `site` at that instant (the caller performs the crash and unwinds).
  virtual bool CrashAt(ProtocolStep step, int32_t site) {
    (void)step;
    (void)site;
    return false;
  }

  // Tie-widening window. Exact-time ties are rare in a discrete-event
  // simulation, so a policy may declare that network events (deliveries,
  // replies, timeouts, topology) within this much virtual time of the
  // earliest pending event count as one tie: picking a later one first
  // models that message being delayed by up to the window, and the passed-
  // over events then run at the chosen event's (later) time. 0 (the
  // default) restricts consultations to exact ties. Non-network events are
  // never reordered across time and cap the widened window when they
  // interleave.
  virtual SimTime TieWindow() const { return 0; }
};

// What Run/RunFor do when the event queue drains while processes are still
// blocked (a lost wake-up or genuine deadlock — there is no event left that
// could ever wake them).
enum class DrainWatchdog {
  kOff,     // Historical behavior: blocked_process_count() reports it.
  kReport,  // DumpProcesses() to stderr and latch drain_watchdog_tripped().
  kFatal,   // DumpProcesses() to stderr and abort() (hard test failure).
};

// Thrown inside a SimProcess body when the simulation is tearing down while
// the process is still blocked; unwinds the body so its stack can be reused.
// Process bodies must be exception safe (RAII) but should not catch this.
struct SimCancelled {};

// A cooperative simulated thread of control.
//
// Created via Simulation::Spawn and owned by the Simulation, which destroys
// it once its body has finished. The body runs on a fiber, but only while the
// scheduler has handed it control; every blocking primitive (Sleep,
// WaitQueue::Wait, ...) parks it and returns control to the scheduler until a
// wake-up event fires.
class SimProcess {
 public:
  // kIdle: parked by WaitQueue::WaitIdle, a daemon with no work. It needs a
  // wake-up like kBlocked but is not a lost one when the event queue drains.
  enum class State { kReady, kRunning, kBlocked, kIdle, kFinished };

  ~SimProcess();
  SimProcess(const SimProcess&) = delete;
  SimProcess& operator=(const SimProcess&) = delete;

  const std::string& name() const { return name_; }
  uint64_t id() const { return id_; }
  ProcessHandle handle() const { return handle_; }
  State state() const { return state_; }
  Simulation& simulation() const { return *sim_; }

 private:
  friend class Simulation;
  friend class WaitQueue;

  SimProcess(Simulation* sim, ProcessHandle handle, uint64_t id, std::string name,
             std::function<void()> body);

  // Runs on the process fiber: returns control to the scheduler.
  void YieldToScheduler();
  // Runs on the scheduler: transfers control to this process and returns
  // when the process parks or finishes.
  void RunUntilParked();

  Simulation* sim_;
  ProcessHandle handle_;
  uint64_t id_;
  std::string name_;
  std::function<void()> body_;
  State state_ = State::kReady;
  bool cancelled_ = false;

  // Entry point of every fiber, reached by the first switch into it. It ends
  // by switching to the scheduler and never returns.
  [[noreturn]] static void FiberMain();
  // Run on the process fiber: SwitchedIn tells the sanitizers a switch has
  // arrived; SwitchToScheduler saves the fiber and resumes the scheduler
  // (`finished`: the fiber will never run again).
  void SwitchedIn();
  void SwitchToScheduler(bool finished);

  // The stack, held from the first run until the body has finished.
  char* stack_ = nullptr;
  void* sp_ = nullptr;  // Saved stack pointer while parked.
  // Sanitizer state: this fiber's TSan handle or ASan fake-stack save, and
  // the scheduler (TSan fiber, or ASan stack bottom and size) it returns to.
  void* san_fiber_ = nullptr;
  const void* san_from_ = nullptr;
  size_t san_from_size_ = 0;
};

// A condition-variable analogue for SimProcesses. Wait() parks the calling
// process; Notify*(), callable from event or process context, schedules the
// waiters to resume at the current virtual time.
class WaitQueue {
 public:
  explicit WaitQueue(Simulation* sim) : sim_(sim) {}

  // Parks the calling process until notified. Must be called from process
  // context.
  void Wait();
  // Parks like Wait(), for a daemon that has nothing to do until notified:
  // blocked_process_count() and the drain watchdog do not count it.
  void WaitIdle();

  // Wakes the longest-waiting process, if any.
  void NotifyOne();
  // Wakes all waiting processes.
  void NotifyAll();

  bool empty() const { return waiters_.empty(); }
  size_t size() const { return waiters_.size(); }

 private:
  void Park(SimProcess::State state);

  Simulation* sim_;
  // Entries of processes killed while waiting stay until notified; the wake
  // then resolves to nothing, as a wake of a dead process always has.
  std::deque<ProcessHandle> waiters_;
};

// The simulation: virtual clock, event queue, and process scheduler.
class Simulation {
 public:
  explicit Simulation(uint64_t seed = 1);
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime Now() const { return now_; }
  Rng& rng() { return rng_; }

  // Schedules `fn` to run in event context after `delay` of virtual time.
  // The EventInfo overloads tag the event so an installed SchedulePolicy can
  // tell what it is deciding between at a same-time tie. The returned handle
  // may be passed to Cancel; callers with no use for it drop it.
  EventId Schedule(SimTime delay, std::function<void()> fn);
  EventId Schedule(SimTime delay, EventInfo info, std::function<void()> fn);
  EventId ScheduleAt(SimTime when, std::function<void()> fn);
  EventId ScheduleAt(SimTime when, EventInfo info, std::function<void()> fn);
  // Removes a pending event so it never runs, in O(log n). A no-op for an
  // event that has already run or been cancelled, and for a null handle.
  void Cancel(EventId id);
  // Events still waiting to run (cancelled ones are gone, not counted).
  size_t pending_event_count() const { return heap_.size(); }

  // --- Decision points (schedule-space exploration; src/mc) ---
  // The policy is not owned; it must outlive its installation. Installing
  // nullptr restores the historical fixed order.
  void set_schedule_policy(SchedulePolicy* policy) { policy_ = policy; }
  // Consults the installed policy at a protocol step; false with no policy.
  bool AtCrashPoint(ProtocolStep step, int32_t site) {
    return policy_ != nullptr && policy_->CrashAt(step, site);
  }

  // --- Lost-wakeup watchdog ---
  void set_drain_watchdog(DrainWatchdog mode) { drain_watchdog_ = mode; }
  // Latched by DrainWatchdog::kReport when a drain left blocked processes.
  bool drain_watchdog_tripped() const { return drain_watchdog_tripped_; }
  // A drain check reports work that should never be left pending once the
  // event queue empties (e.g. a formation queue holding messages with no
  // armed flush timer). It returns an empty string when clean, otherwise a
  // one-line description of the stranded state. Checks are owned by their
  // registrants and must stay callable for as long as Run/RunFor can execute.
  using DrainCheck = std::function<std::string()>;
  void RegisterDrainCheck(DrainCheck check) {
    drain_checks_.push_back(std::move(check));
  }

  // Creates a process whose body starts running at the current virtual time.
  // The process lives until its body has finished (or, if it never finishes,
  // until the Simulation is destroyed); the returned handle finds it until
  // then and nothing afterwards.
  ProcessHandle Spawn(std::string name, std::function<void()> body);
  // The live process `handle` names, or nullptr once it has been reclaimed
  // (and for a null handle).
  SimProcess* Find(ProcessHandle handle) const;

  // Runs until the event queue drains (or Stop() is called). Processes left
  // blocked with no pending wake-up are reported by blocked_process_count().
  void Run();
  // Runs for at most `duration` of virtual time.
  void RunFor(SimTime duration);
  // Requests that Run return after the current event completes.
  void Stop() { stop_requested_ = true; }

  // Forcibly terminates a parked process: its body unwinds via SimCancelled.
  // Used to model processes dying when their site crashes. A process that
  // kills itself unwinds at its next blocking point. A no-op for a process
  // that has already been reclaimed.
  void Kill(ProcessHandle handle);

  // --- Primitives callable from process context only ---

  // Advances virtual time for the calling process.
  void Sleep(SimTime duration);
  // Consumes simulated CPU: shorthand for Sleep(InstructionCost(n)).
  void BurnInstructions(int64_t n) { Sleep(InstructionCost(n)); }

  // The process currently executing, or nullptr in event context.
  static SimProcess* Current();

  // Number of processes still blocked (diagnostic; nonzero after Run usually
  // indicates a lost wake-up or a genuine deadlock in the workload).
  int blocked_process_count() const;
  // Debug aid: prints every live process and its state to stderr.
  // Unsynchronized; intended for post-mortem inspection from a watchdog.
  void DumpProcesses() const;
  // Every Spawn so far, finished processes included.
  int spawned_process_count() const { return static_cast<int>(next_pid_ - 1); }
  // Processes not yet reclaimed: spawned and not finished.
  int live_process_count() const {
    return static_cast<int>(processes_.size() - free_process_slots_.size());
  }

 private:
  friend class SimProcess;
  friend class WaitQueue;

  // A queued event's heap entry: just the ordering key and its slot.
  struct HeapNode {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };
  // What an event carries, parked in slots_ while its node moves in heap_.
  // heap_pos is the node's index in heap_, or kNotQueued when the slot is
  // free (or its event has been popped).
  struct EventSlot {
    static constexpr uint32_t kNotQueued = UINT32_MAX;
    uint64_t seq = 0;
    uint32_t heap_pos = kNotQueued;
    EventInfo info;
    std::function<void()> fn;
  };
  static bool Before(const HeapNode& a, const HeapNode& b) {
    // policy-ok: the one sanctioned seq tie-break — PopNext routes ties
    // through the installed SchedulePolicy before this order applies.
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  // Marks `p` runnable at the current time (scheduler will hand it control).
  void MakeReady(SimProcess* p);
  // Wake-up event body: hands the process named by `handle` control if it is
  // still live and ready, and reclaims it once its body has finished.
  void Resume(ProcessHandle handle);
  // Removes and returns the next event to run: the earliest-time event, with
  // same-time ties resolved by the installed SchedulePolicy (historical seq
  // order when none is installed or it returns 0). When the policy declares a
  // TieWindow, network events within the window of an earliest network event
  // also join the tie (but never past `limit`, so RunFor keeps its deadline).
  // The popped node's slot still holds the callback; RunEvent consumes it.
  HeapNode PopNext(SimTime limit);
  // Advances the clock to the popped event, frees its slot and runs it.
  void RunEvent(const HeapNode& ev);
  // Returns a slot to the free list, dropping its callback.
  void ReleaseSlot(uint32_t slot);

  // Heap primitives; each keeps slots_[].heap_pos in step with heap_.
  void HeapPush(const HeapNode& node);
  HeapNode HeapPopTop();
  void HeapRemoveAt(uint32_t pos);
  void SiftUp(uint32_t pos);
  void SiftDown(uint32_t pos);
  void Place(uint32_t pos, const HeapNode& node) {
    heap_[pos] = node;
    slots_[node.slot].heap_pos = pos;
  }
  // Drain-time lost-wakeup check shared by Run and RunFor.
  void CheckDrainWatchdog();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_pid_ = 1;
  bool stop_requested_ = false;
  Rng rng_;
  SchedulePolicy* policy_ = nullptr;
  DrainWatchdog drain_watchdog_ = DrainWatchdog::kOff;
  bool drain_watchdog_tripped_ = false;
  std::vector<DrainCheck> drain_checks_;
  std::vector<HeapNode> heap_;
  std::vector<EventSlot> slots_;
  std::vector<uint32_t> free_slots_;
  // Live processes by slot. A slot without a process is free and listed in
  // free_process_slots_; its generation moves on when its process leaves.
  struct ProcessSlot {
    std::unique_ptr<SimProcess> process;
    uint32_t generation = 0;
  };
  std::vector<ProcessSlot> processes_;
  std::vector<uint32_t> free_process_slots_;

  // Fiber stacks, each just above its guard page. Finished processes push
  // theirs onto free_stacks_; they are unmapped with the Simulation.
  char* AcquireStack();
  std::vector<char*> free_stacks_;
  void* scheduler_sp_ = nullptr;  // Saved while a fiber runs.
};

}  // namespace locus

#endif  // SRC_SIM_SIMULATION_H_
