#include "src/sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include <sys/mman.h>

#if !defined(__x86_64__) || !defined(__linux__)
#error "the fiber switch below is written for x86-64 Linux only"
#endif

#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
#define LOCUS_ASAN_FIBERS 1
#include <sanitizer/asan_interface.h>
#elif defined(__SANITIZE_THREAD__) || __has_feature(thread_sanitizer)
#define LOCUS_TSAN_FIBERS 1
#include <sanitizer/tsan_interface.h>
#endif

namespace locus {

namespace {
thread_local SimProcess* g_current_process = nullptr;
}  // namespace

std::string EventInfoLabel(const EventInfo& info) {
  char buf[64];
  switch (info.tag) {
    case EventTag::kGeneric:
      return "evt";
    case EventTag::kWakeup:
      snprintf(buf, sizeof(buf), "wake:p%d", info.a);
      return buf;
    case EventTag::kSleepDone:
      snprintf(buf, sizeof(buf), "sleep:p%d", info.a);
      return buf;
    case EventTag::kNetDeliver:
      snprintf(buf, sizeof(buf), "dlv:%d>%d:t%d", info.a, info.b, info.c);
      return buf;
    case EventTag::kRpcReply:
      snprintf(buf, sizeof(buf), "rpy:%d>%d:c%d", info.a, info.b, info.c);
      return buf;
    case EventTag::kRpcTimeout:
      snprintf(buf, sizeof(buf), "tmo:%d>%d:c%d", info.a, info.b, info.c);
      return buf;
    case EventTag::kTopology:
      snprintf(buf, sizeof(buf), "topo:s%d", info.a);
      return buf;
    case EventTag::kFormFlush:
      snprintf(buf, sizeof(buf), "form:%d>%d", info.a, info.b);
      return buf;
  }
  return "evt";
}

const char* ProtocolStepName(ProtocolStep step) {
  switch (step) {
    case ProtocolStep::kCoordLogWritten:
      return "coord_log_written";
    case ProtocolStep::kBeforeCommitMark:
      return "before_commit_mark";
    case ProtocolStep::kAfterCommitMark:
      return "after_commit_mark";
    case ProtocolStep::kBeforeCommitSend:
      return "before_commit_send";
    case ProtocolStep::kBeforePrepareLog:
      return "before_prepare_log";
    case ProtocolStep::kAfterPrepareLog:
      return "after_prepare_log";
    case ProtocolStep::kPrepareReplySent:
      return "prepare_reply_sent";
    case ProtocolStep::kBeforeCommitInstall:
      return "before_commit_install";
    case ProtocolStep::kAfterCommitInstall:
      return "after_commit_install";
  }
  return "unknown_step";
}

// ---------------------------------------------------------------------------
// SimProcess — fibers

// Pushes the callee-saved registers, MXCSR and the x87 control word, stores
// the stack pointer in *save_sp and pops the same from next_sp: a stack saved
// here before, or a first frame built by SimProcess::RunUntilParked.
extern "C" void locus_sim_switch(void** save_sp, void* next_sp);
asm(R"(
  .text
  .globl locus_sim_switch
  .hidden locus_sim_switch
  .type locus_sim_switch, @function
locus_sim_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size locus_sim_switch, .-locus_sim_switch
)");

namespace {
// Stack per process. Kernel paths nest a few dozen frames at most; the
// guard page below the stack turns an overflow into a clean SIGSEGV instead
// of silent corruption. Pages are committed lazily by the OS, so the
// per-stack cost is the pages actually touched.
constexpr size_t kFiberStackBytes = 512 * 1024;
constexpr size_t kGuardBytes = 4096;  // One x86-64 page.
}  // namespace

SimProcess::SimProcess(Simulation* sim, ProcessHandle handle, uint64_t id, std::string name,
                       std::function<void()> body)
    : sim_(sim), handle_(handle), id_(id), name_(std::move(name)), body_(std::move(body)) {}

SimProcess::~SimProcess() {
  if (stack_ != nullptr) {
    // Started but never finished (still blocked at teardown): grant it control
    // one last time with the cancel flag set so the body unwinds, its frames
    // are destroyed and the stack goes back to the pool.
    cancelled_ = true;
    RunUntilParked();
  }
}

void SimProcess::FiberMain() {
  SimProcess* self = g_current_process;
  self->SwitchedIn();
  if (!self->cancelled_) {
    try {
      self->body_();
    } catch (const SimCancelled&) {
      // Teardown unwound the body; nothing more to do.
    }
  }
  self->state_ = State::kFinished;
  self->SwitchToScheduler(/*finished=*/true);
  __builtin_unreachable();
}

void SimProcess::SwitchedIn() {
#ifdef LOCUS_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(san_fiber_, &san_from_, &san_from_size_);
#endif
}

void SimProcess::SwitchToScheduler([[maybe_unused]] bool finished) {
#ifdef LOCUS_ASAN_FIBERS
  __sanitizer_start_switch_fiber(finished ? nullptr : &san_fiber_, san_from_, san_from_size_);
#elif defined(LOCUS_TSAN_FIBERS)
  __tsan_switch_to_fiber(const_cast<void*>(san_from_), 0);
#endif
  locus_sim_switch(&sp_, sim_->scheduler_sp_);
  SwitchedIn();
}

void SimProcess::YieldToScheduler() {
  SwitchToScheduler(/*finished=*/false);
  // Control is back: either a normal wake-up or a cancellation grant.
  if (cancelled_) {
    throw SimCancelled{};
  }
  state_ = State::kRunning;
}

void SimProcess::RunUntilParked() {
  SimProcess* prev = g_current_process;
  g_current_process = this;
  if (stack_ == nullptr) {  // First run.
    state_ = State::kRunning;
    // Build the frame the first switch pops: zeroed callee-saved registers,
    // the scheduler's MXCSR and x87 control word, and FiberMain as return
    // address. Above it, a null slot stands in for FiberMain's own return
    // address, so FiberMain starts with rsp = 8 (mod 16) as if called.
    stack_ = sim_->AcquireStack();
    uint16_t x87_control = 0;
    __asm__("fnstcw %0" : "=m"(x87_control));
    auto* frame = reinterpret_cast<uint64_t*>(stack_ + kFiberStackBytes) - 10;
    std::fill(frame, frame + 10, 0);
    frame[0] = x87_control;
    frame[1] = __builtin_ia32_stmxcsr();
    frame[8] = reinterpret_cast<uint64_t>(&SimProcess::FiberMain);
    sp_ = frame;
#ifdef LOCUS_TSAN_FIBERS
    san_fiber_ = __tsan_create_fiber(0);
#endif
  }
#ifdef LOCUS_ASAN_FIBERS
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, stack_, kFiberStackBytes);
#elif defined(LOCUS_TSAN_FIBERS)
  san_from_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(san_fiber_, 0);
#endif
  locus_sim_switch(&sim_->scheduler_sp_, sp_);
#ifdef LOCUS_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  g_current_process = prev;
  if (state_ == State::kFinished) {
#ifdef LOCUS_TSAN_FIBERS
    __tsan_destroy_fiber(san_fiber_);
#endif
    sim_->free_stacks_.push_back(stack_);
    stack_ = nullptr;
  }
}

// ---------------------------------------------------------------------------
// WaitQueue

void WaitQueue::Wait() { Park(SimProcess::State::kBlocked); }

void WaitQueue::WaitIdle() { Park(SimProcess::State::kIdle); }

void WaitQueue::Park(SimProcess::State state) {
  SimProcess* self = Simulation::Current();
  assert(self != nullptr && "WaitQueue::Wait requires process context");
  if (self->cancelled_) {
    // Teardown is unwinding this process; blocking again would never return.
    return;
  }
  waiters_.push_back(self->handle());
  self->state_ = state;
  self->YieldToScheduler();
}

void WaitQueue::NotifyOne() {
  if (waiters_.empty()) {
    return;
  }
  ProcessHandle waiter = waiters_.front();
  waiters_.pop_front();
  if (SimProcess* p = sim_->Find(waiter)) {
    sim_->MakeReady(p);
  }
}

void WaitQueue::NotifyAll() {
  while (!waiters_.empty()) {
    NotifyOne();
  }
}

// ---------------------------------------------------------------------------
// Simulation

Simulation::Simulation(uint64_t seed) : rng_(seed) {}

Simulation::~Simulation() {
  // Destroy the processes that never finished before anything else, so their
  // stacks unwind (and return to the pool) while the simulation object is
  // still alive. They go in spawn order. Each is moved out of its slot first:
  // an unwinding body may still Spawn, which can grow processes_.
  std::vector<SimProcess*> live;
  for (const ProcessSlot& s : processes_) {
    if (s.process != nullptr) {
      live.push_back(s.process.get());
    }
  }
  std::sort(live.begin(), live.end(),
            [](const SimProcess* a, const SimProcess* b) { return a->id() < b->id(); });
  for (SimProcess* p : live) {
    std::unique_ptr<SimProcess> doomed = std::move(processes_[p->handle().slot].process);
  }
  processes_.clear();
  for (char* stack : free_stacks_) {
    munmap(stack - kGuardBytes, kGuardBytes + kFiberStackBytes);
  }
}

char* Simulation::AcquireStack() {
  if (!free_stacks_.empty()) {
    char* stack = free_stacks_.back();
    free_stacks_.pop_back();
#ifdef LOCUS_ASAN_FIBERS
    // Frames of the last fiber that never returned may have left redzones.
    __asan_unpoison_memory_region(stack, kFiberStackBytes);
#endif
    return stack;
  }
  void* base = mmap(nullptr, kGuardBytes + kFiberStackBytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (base == MAP_FAILED || mprotect(base, kGuardBytes, PROT_NONE) != 0) {
    perror("sim: fiber stack allocation failed");
    abort();
  }
  return static_cast<char*>(base) + kGuardBytes;
}

EventId Simulation::Schedule(SimTime delay, std::function<void()> fn) {
  return Schedule(delay, EventInfo{}, std::move(fn));
}

EventId Simulation::Schedule(SimTime delay, EventInfo info, std::function<void()> fn) {
  assert(delay >= 0);
  return ScheduleAt(now_ + delay, info, std::move(fn));
}

EventId Simulation::ScheduleAt(SimTime when, std::function<void()> fn) {
  return ScheduleAt(when, EventInfo{}, std::move(fn));
}

EventId Simulation::ScheduleAt(SimTime when, EventInfo info, std::function<void()> fn) {
  assert(when >= now_);
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  EventSlot& s = slots_[slot];
  // policy-ok: the one sanctioned seq assignment; ties are later resolved
  // through PopNext's SchedulePolicy consultation.
  s.seq = next_seq_++;
  s.info = info;
  s.fn = std::move(fn);
  HeapPush(HeapNode{when, s.seq, slot});
  return EventId{slot, s.seq};
}

void Simulation::Cancel(EventId id) {
  if (id.slot >= slots_.size()) {
    return;
  }
  EventSlot& s = slots_[id.slot];
  if (s.heap_pos == EventSlot::kNotQueued || s.seq != id.seq) {
    return;  // Already ran or cancelled; the slot may hold a newer event.
  }
  HeapRemoveAt(s.heap_pos);
  ReleaseSlot(id.slot);
}

void Simulation::ReleaseSlot(uint32_t slot) {
  slots_[slot].fn = nullptr;
  free_slots_.push_back(slot);
}

namespace {
// Children per heap node: a shallower tree than a binary heap, and the four
// children of a node share a cache line or two.
constexpr uint32_t kHeapArity = 4;
}  // namespace

void Simulation::HeapPush(const HeapNode& node) {
  heap_.push_back(node);
  SiftUp(static_cast<uint32_t>(heap_.size() - 1));
}

Simulation::HeapNode Simulation::HeapPopTop() {
  HeapNode top = heap_.front();
  HeapRemoveAt(0);
  return top;
}

void Simulation::HeapRemoveAt(uint32_t pos) {
  slots_[heap_[pos].slot].heap_pos = EventSlot::kNotQueued;
  HeapNode last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
    return;
  }
  Place(pos, last);
  if (pos > 0 && Before(last, heap_[(pos - 1) / kHeapArity])) {
    SiftUp(pos);
  } else {
    SiftDown(pos);
  }
}

void Simulation::SiftUp(uint32_t pos) {
  const HeapNode node = heap_[pos];
  while (pos > 0) {
    const uint32_t parent = (pos - 1) / kHeapArity;
    if (!Before(node, heap_[parent])) {
      break;
    }
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, node);
}

void Simulation::SiftDown(uint32_t pos) {
  const HeapNode node = heap_[pos];
  const uint32_t size = static_cast<uint32_t>(heap_.size());
  for (;;) {
    const uint32_t first = pos * kHeapArity + 1;
    if (first >= size) {
      break;
    }
    const uint32_t end = std::min(first + kHeapArity, size);
    uint32_t best = first;
    for (uint32_t c = first + 1; c < end; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], node)) {
      break;
    }
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, node);
}

ProcessHandle Simulation::Spawn(std::string name, std::function<void()> body) {
  uint32_t slot;
  if (!free_process_slots_.empty()) {
    slot = free_process_slots_.back();
    free_process_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(processes_.size());
    processes_.emplace_back();
  }
  const ProcessHandle handle{slot, processes_[slot].generation};
  auto* p = new SimProcess(this, handle, next_pid_++, std::move(name), std::move(body));
  processes_[slot].process.reset(p);
  MakeReady(p);
  return handle;
}

SimProcess* Simulation::Find(ProcessHandle handle) const {
  if (handle.slot >= processes_.size()) {
    return nullptr;
  }
  const ProcessSlot& s = processes_[handle.slot];
  return s.generation == handle.generation ? s.process.get() : nullptr;
}

void Simulation::Kill(ProcessHandle handle) {
  SimProcess* p = Find(handle);
  if (p == nullptr) {
    return;
  }
  p->cancelled_ = true;
  if (p == Current()) {
    // Self-kill (e.g. a process whose action crashes its own site): the body
    // unwinds at its next blocking point.
    return;
  }
  MakeReady(p);
}

void Simulation::MakeReady(SimProcess* p) {
  p->state_ = SimProcess::State::kReady;
  EventInfo info{EventTag::kWakeup, static_cast<int32_t>(p->id_), -1, -1};
  Schedule(0, info, [this, handle = p->handle()] { Resume(handle); });
}

void Simulation::Resume(ProcessHandle handle) {
  SimProcess* p = Find(handle);
  if (p == nullptr || p->state_ != SimProcess::State::kReady) {
    return;  // Reclaimed, or already resumed by an earlier wake-up.
  }
  p->RunUntilParked();
  if (p->state_ == SimProcess::State::kFinished) {
    // The fiber is gone and its stack is pooled: drop the body's captures
    // and the name now rather than when the Simulation dies.
    ProcessSlot& s = processes_[handle.slot];
    std::unique_ptr<SimProcess> finished = std::move(s.process);
    ++s.generation;
    free_process_slots_.push_back(handle.slot);
  }
}

namespace {

bool IsNetworkTag(EventTag tag) {
  switch (tag) {
    case EventTag::kNetDeliver:
    case EventTag::kRpcReply:
    case EventTag::kRpcTimeout:
    case EventTag::kTopology:
    // A flush deadline races the deliveries it would batch behind; letting
    // the checker reorder it against network events explores both sides.
    case EventTag::kFormFlush:
      return true;
    case EventTag::kGeneric:
    case EventTag::kWakeup:
    case EventTag::kSleepDone:
      return false;
  }
  return false;
}

}  // namespace

Simulation::HeapNode Simulation::PopNext(SimTime limit) {
  HeapNode ev = HeapPopTop();
  if (policy_ == nullptr || heap_.empty()) {
    return ev;
  }
  // Two or more events at one virtual time form a tie. With a TieWindow,
  // later network events close behind an earliest network event join it too:
  // choosing one first models its message arriving early (equivalently, the
  // passed-over deliveries being delayed), which is real network
  // nondeterminism the fixed latency model otherwise hides. Non-network
  // events are never reordered across time, and because the heap yields
  // events in (time, seq) order, one sitting inside the window also caps it.
  const SimTime window = policy_->TieWindow();
  const SimTime base = ev.time;
  const bool widen = window > 0 && IsNetworkTag(slots_[ev.slot].info.tag);
  auto joins_tie = [&](const HeapNode& top) {
    if (top.time == base) {
      return true;
    }
    return widen && IsNetworkTag(slots_[top.slot].info.tag) && top.time <= base + window &&
           top.time <= limit;
  };
  if (!joins_tie(heap_.front())) {
    return ev;
  }
  std::vector<HeapNode> ties;
  ties.push_back(ev);
  while (!heap_.empty() && joins_tie(heap_.front())) {
    ties.push_back(HeapPopTop());
  }
  std::vector<EventInfo> options;
  options.reserve(ties.size());
  for (const HeapNode& t : ties) {
    options.push_back(slots_[t.slot].info);
  }
  size_t pick = policy_->PickNext(ties.front().time, options);
  if (pick >= ties.size()) {
    pick = 0;
  }
  // The events not picked go back as the same nodes (slot, seq and time
  // unchanged), so their EventIds still cancel them.
  for (size_t i = 0; i < ties.size(); ++i) {
    if (i != pick) {
      HeapPush(ties[i]);
    }
  }
  return ties[pick];
}

void Simulation::RunEvent(const HeapNode& ev) {
  // A policy with a TieWindow may run a delayed event first; the passed-over
  // events then execute at the later now_, so only advance time forward.
  now_ = std::max(now_, ev.time);
  // Moved out first: the callback may schedule events, which can reuse this
  // slot or grow (and move) slots_.
  std::function<void()> fn = std::move(slots_[ev.slot].fn);
  ReleaseSlot(ev.slot);
  fn();
}

void Simulation::CheckDrainWatchdog() {
  if (drain_watchdog_ == DrainWatchdog::kOff || !heap_.empty() || stop_requested_) {
    return;
  }
  int blocked = blocked_process_count();
  std::vector<std::string> pending;
  for (const DrainCheck& check : drain_checks_) {
    std::string report = check();
    if (!report.empty()) {
      pending.push_back(std::move(report));
    }
  }
  if (blocked == 0 && pending.empty()) {
    return;
  }
  if (blocked > 0) {
    fprintf(stderr,
            "sim: event queue drained with %d process(es) still blocked — lost "
            "wake-up or deadlock\n",
            blocked);
  }
  for (const std::string& report : pending) {
    // The queue is empty, so no flush timer can ever fire: whatever the check
    // reports is stranded forever — the same class of bug as a lost wake-up.
    fprintf(stderr, "sim: event queue drained with pending work: %s\n",
            report.c_str());
  }
  DumpProcesses();
  if (drain_watchdog_ == DrainWatchdog::kFatal) {
    abort();
  }
  drain_watchdog_tripped_ = true;
}

void Simulation::Run() {
  stop_requested_ = false;
  while (!heap_.empty() && !stop_requested_) {
    RunEvent(PopNext(std::numeric_limits<SimTime>::max()));
  }
  CheckDrainWatchdog();
}

void Simulation::RunFor(SimTime duration) {
  const SimTime deadline = now_ + duration;
  stop_requested_ = false;
  int64_t spin = 0;
  while (!heap_.empty() && !stop_requested_ && heap_.front().time <= deadline) {
    HeapNode ev = PopNext(deadline);
    if (ev.time == now_) {
      if (++spin > 2000000) {
        fprintf(stderr, "sim: suspected zero-delay event loop at t=%lld us\n",
                static_cast<long long>(now_));
        spin = 0;
      }
    } else {
      spin = 0;
    }
    RunEvent(ev);
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  CheckDrainWatchdog();
}

void Simulation::Sleep(SimTime duration) {
  SimProcess* self = Current();
  assert(self != nullptr && "Sleep requires process context");
  assert(duration >= 0);
  if (self->cancelled_) {
    return;
  }
  self->state_ = SimProcess::State::kBlocked;
  EventInfo info{EventTag::kSleepDone, static_cast<int32_t>(self->id_), -1, -1};
  // A killed sleeper's timer is left to fire: it finds nothing to wake.
  Schedule(duration, info, [this, handle = self->handle()] {
    if (SimProcess* p = Find(handle)) {
      MakeReady(p);
    }
  });
  self->YieldToScheduler();
}

SimProcess* Simulation::Current() { return g_current_process; }

void Simulation::DumpProcesses() const {
  static const char* kStateNames[] = {"ready", "running", "blocked", "idle", "finished"};
  fprintf(stderr, "--- simulation processes at t=%lld us ---\n",
          static_cast<long long>(now_));
  for (const ProcessSlot& s : processes_) {
    if (const SimProcess* p = s.process.get()) {
      fprintf(stderr, "  %-40s %s\n", p->name().c_str(),
              kStateNames[static_cast<int>(p->state())]);
    }
  }
}

int Simulation::blocked_process_count() const {
  int n = 0;
  for (const ProcessSlot& s : processes_) {
    if (s.process != nullptr && s.process->state() == SimProcess::State::kBlocked) {
      ++n;
    }
  }
  return n;
}

}  // namespace locus
