#include "perfbench/workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <utility>

#include "src/locus/system.h"
#include "src/sim/random.h"

namespace perfbench {

using locus::Err;
using locus::LockOp;
using locus::Milliseconds;
using locus::Rng;
using locus::Seconds;
using locus::SimTime;
using locus::Syscalls;
using locus::System;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;

    // About 2.9k commits and 31k process spawns per simulation. Every spawn
    // keeps two memory mappings (stack and guard page) until the simulation
    // ends, so this uses about 95% of vm.max_map_count (65530): past it the
    // simulation crashes in some address-space layouts and not others.
    WorkloadSpec spread{"dc_spread16", Shape::kDebitCredit, 16, 16};
    spread.tellers_per_site = 3;
    spread.accounts_per_branch = 16;
    spread.transfers_per_teller = 60;
    w.push_back(spread);

    WorkloadSpec hot{"dc_hot_local", Shape::kDebitCredit, 4, 16};
    hot.tellers_per_site = 4;
    hot.accounts_per_branch = 4;
    hot.transfers_per_teller = 40;
    hot.from_home_branch = true;
    hot.local_share = 0.95;
    w.push_back(hot);

    WorkloadSpec pages{"pages_open_mixed", Shape::kPages, 2, 8};
    pages.files = 4;
    pages.file_bytes = 256 * 1024;
    pages.replication = 2;
    pages.chunk_bytes = 8 * 1024;
    pages.read_bytes = 32 * 1024;
    pages.write_share = 0.30;
    // 0.25 operations/s offered in all. Short runs of this shape reach about
    // 1.2 operations/s, but long runs at 0.4 operations/s or more fall into
    // RPC-timeout retry storms, so this rate sits below sustained saturation.
    pages.interarrival = Milliseconds(8000);
    pages.arrivals_per_site = 300;
    w.push_back(pages);
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

int64_t PlannedOps(const WorkloadSpec& spec) {
  return spec.shape == Shape::kDebitCredit
             ? static_cast<int64_t>(spec.sites) * spec.tellers_per_site * spec.transfers_per_teller
             : static_cast<int64_t>(spec.sites) * spec.arrivals_per_site;
}

HostUsage SampleHost() {
  HostUsage u;
  u.wall_s = std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec / 1e6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec / 1e6;
  u.minor_faults = ru.ru_minflt;
  std::ifstream statm("/proc/self/statm");
  int64_t size_pages = 0;
  int64_t resident_pages = 0;
  if (statm >> size_pages >> resident_pages) {
    u.rss_kb = resident_pages * (sysconf(_SC_PAGESIZE) / 1024);
  }
  return u;
}

namespace {

constexpr int kRecordBytes = 16;
constexpr int64_t kInitialBalance = 1000;
constexpr int64_t kSetupStamp = 0;
constexpr int64_t kPageBytes = 1024;  // SystemOptions default page size.
// Attempts per operation before it counts as failed.
constexpr int kMaxAttempts = 20;
// Debit/credit tellers think for a uniform time in this range between transfers.
constexpr SimTime kThinkMin = Milliseconds(1);
constexpr SimTime kThinkMax = Milliseconds(40);
// Virtual time allowed for the operations before the run is declared stuck.
constexpr SimTime kVirtualCap = Seconds(3 * 3600);
constexpr SimTime kStep = Milliseconds(10);
constexpr SimTime kDetectorPeriod = Milliseconds(150);
constexpr SimTime kIdleSettle = Seconds(2);
constexpr SimTime kIdleTail = Seconds(3);

HostUsage Minus(const HostUsage& b, const HostUsage& a) {
  return HostUsage{b.wall_s - a.wall_s, b.user_s - a.user_s, b.sys_s - a.sys_s,
                   b.minor_faults - a.minor_faults, b.rss_kb - a.rss_kb};
}

// Memory mappings of this process (lines of /proc/self/maps).
int64_t MapCount() {
  std::ifstream maps("/proc/self/maps");
  int64_t lines = 0;
  for (std::string line; std::getline(maps, line);) {
    ++lines;
  }
  return lines;
}

std::string Record(int64_t value) {
  char buffer[kRecordBytes + 1];
  std::snprintf(buffer, sizeof(buffer), "%015lld\n", static_cast<long long>(value));
  return std::string(buffer, kRecordBytes);
}

// Parses one 16-byte record; -1 when it is not a well-formed record.
int64_t ParseRecord(const uint8_t* p) {
  int64_t value = 0;
  for (int i = 0; i < kRecordBytes - 1; ++i) {
    if (p[i] < '0' || p[i] > '9') {
      return -1;
    }
    value = value * 10 + (p[i] - '0');
  }
  return p[kRecordBytes - 1] == '\n' ? value : -1;
}

std::vector<uint8_t> StampedChunk(int64_t stamp, int64_t bytes) {
  std::string record = Record(stamp);
  std::vector<uint8_t> out;
  out.reserve(static_cast<size_t>(bytes));
  for (int64_t i = 0; i < bytes / kRecordBytes; ++i) {
    out.insert(out.end(), record.begin(), record.end());
  }
  return out;
}

// The stamp of a chunk whose records all agree, or -1 when they do not.
int64_t UniformStamp(const uint8_t* p, int64_t bytes) {
  int64_t first = ParseRecord(p);
  if (first < 0) {
    return -1;
  }
  for (int64_t off = kRecordBytes; off < bytes; off += kRecordBytes) {
    if (std::memcmp(p, p + off, kRecordBytes) != 0) {
      return -1;
    }
  }
  return first;
}

std::string BranchPath(int branch) { return "/pb_branch" + std::to_string(branch); }
std::string PagePath(int file) { return "/pb_file" + std::to_string(file); }

uint64_t Mix(uint64_t a, uint64_t b) {
  Rng rng(a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL));
  return rng.Next();
}

struct Snapshot {
  SimTime at = 0;
  std::vector<int64_t> stats;
  std::vector<int64_t> net;
  int64_t spawned = 0;
  HostUsage host;
};

Snapshot Take(System& system) {
  return Snapshot{system.sim().Now(), system.stats().values(), system.net().stats().values(),
                  system.sim().spawned_process_count(), SampleHost()};
}

void AddDelta(const locus::StatRegistry& registry, const std::vector<int64_t>& before,
              const std::vector<int64_t>& after, std::map<std::string, int64_t>* out) {
  for (size_t i = 0; i < after.size(); ++i) {
    int64_t base = i < before.size() ? before[i] : 0;
    (*out)[registry.name(static_cast<locus::StatRegistry::StatId>(i))] += after[i] - base;
  }
}

// Spans of one operation, recorded around each call into the library.
class OpSpans {
 public:
  OpSpans(Tracer* tracer, Syscalls& sys, int64_t op) : tracer_(tracer), sys_(sys), op_(op) {
    if (tracer_ != nullptr) {
      op_span_ = tracer_->Open("op", -1, op_, sys_.CurrentSite(), Now());
    }
  }
  ~OpSpans() {
    if (tracer_ != nullptr) {
      tracer_->Close(op_span_, Now());
    }
  }
  OpSpans(const OpSpans&) = delete;
  OpSpans& operator=(const OpSpans&) = delete;

  void BeginAttempt() {
    if (tracer_ != nullptr) {
      attempt_span_ = tracer_->Open("attempt", op_span_, op_, sys_.CurrentSite(), Now());
    }
  }
  void EndAttempt() {
    if (tracer_ != nullptr) {
      tracer_->Close(attempt_span_, Now());
    }
  }

  // Runs one syscall inside a span named `name`, child of the attempt.
  template <class F>
  auto Call(const char* name, F&& f) {
    if (tracer_ == nullptr) {
      return f();
    }
    int64_t id = tracer_->Open(name, attempt_span_, op_, sys_.CurrentSite(), Now());
    auto result = f();
    tracer_->Close(id, Now());
    return result;
  }

  // Sleeps `duration` before a retry, inside an "op.backoff" span.
  void Backoff(SimTime duration) {
    int64_t id = -1;
    if (tracer_ != nullptr) {
      id = tracer_->Open("op.backoff", op_span_, op_, sys_.CurrentSite(), Now());
    }
    sys_.Compute(duration);
    if (tracer_ != nullptr) {
      tracer_->Close(id, Now());
    }
  }

  SimTime Now() const { return sys_.system().sim().Now(); }

 private:
  Tracer* tracer_;
  Syscalls& sys_;
  int64_t op_;
  int64_t op_span_ = -1;
  int64_t attempt_span_ = -1;
};

SimTime RetryBackoff(int attempt) { return Milliseconds(15 * (attempt + 1)); }

// One simulation: the cluster, the workload's processes, and what they saw.
class BenchRun {
 public:
  BenchRun(const WorkloadSpec& spec, uint64_t seed, const SimOptions& options, SimResult* out)
      : spec_(spec), seed_(seed), options_(options), out_(out) {}

  void Run() {
    HostUsage host_start = SampleHost();
    locus::SystemOptions opts;
    opts.seed = seed_;
    opts.formation = true;
    opts.audit = options_.checked;
    opts.serial = options_.checked;
    System system(spec_.sites, opts);
    system.trace().set_enabled(false);
    system_ = &system;

    system.Spawn(0, "bench-main", [this](Syscalls& sys) { Main(sys); });
    system.StartDeadlockDetector(0, kDetectorPeriod);
    // Runs in short steps until the operations are done: RunFor moves the
    // clock to its deadline when it returns, even when stopped early, so one
    // long RunFor would push the window's end out to kVirtualCap. A step adds
    // at most kStep of idle time once the queue has drained.
    while (!done_ && system.sim().Now() < kVirtualCap) {
      system.RunFor(kStep);
    }
    if (!done_) {
      std::fprintf(stderr, "perfbench: %s seed %llu: operations still running after %.0f s\n",
                   spec_.name, static_cast<unsigned long long>(seed_),
                   locus::ToMilliseconds(kVirtualCap) / 1000.0);
    }
    // The window closes once the daemons are stopped and the last
    // transactions' trailing traffic (phase 2, formation flushes) has drained.
    system.StopDaemons();
    system.Run();
    close_ = Take(system);
    if (options_.tracer != nullptr) {
      // Detector traffic of the idle cluster, after the window.
      system.StartDeadlockDetector(0, kDetectorPeriod);
      system.RunFor(kIdleSettle);
      int64_t before = system.net().stats().Get("net.messages");
      system.RunFor(kIdleTail);
      out_->idle_tail_msgs = system.net().stats().Get("net.messages") - before;
      out_->idle_tail = kIdleTail;
      system.StopDaemons();
      system.Run();
    }

    out_->setup_cpu_s = open_.host.cpu_s() - host_start.cpu_s();
    out_->host_delta = Minus(close_.host, open_.host);
    out_->window = close_.at - open_.at;
    out_->spawns = close_.spawned - open_.spawned;
    AddDelta(system.stats(), open_.stats, close_.stats, &out_->counters);
    AddDelta(system.net().stats(), open_.net, close_.net, &out_->counters);
    // Operations that never started or never returned count as failed.
    out_->attempted = PlannedOps(spec_);
    out_->failed_ops += out_->attempted - finished_;

    // Final correctness checks run on the drained cluster.
    bool check_finished = false;
    system.Spawn(0, "bench-check", [this, &check_finished](Syscalls& sys) {
      InjectDamage(sys);
      if (spec_.shape == Shape::kDebitCredit) {
        AuditBalances(sys);
      } else {
        ReadBackChunks(sys);
      }
      check_finished = true;
    });
    system.Run();
    out_->audit_complete = out_->audit_complete && check_finished;
    if (options_.checked) {
      system.serial().Certify();
      out_->audit_violations = system.audit().violation_count();
      out_->serial_violations = system.serial().violation_count();
      for (const auto& report : system.audit().violations()) {
        ++out_->violation_kinds[std::string("audit.") + locus::AuditKindName(report.kind)];
      }
      for (const auto& report : system.serial().violations()) {
        ++out_->violation_kinds[std::string("serial.") + locus::SerialKindName(report.kind)];
      }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    out_->peak_rss_kb = ru.ru_maxrss;
    out_->map_count = MapCount();
    system_ = nullptr;
  }

 private:
  struct Writer {
    int file = 0;
    int chunk = 0;
    bool committed = false;
    SimTime committed_at = 0;
  };
  struct Observation {
    int file = 0;
    int chunk = 0;
    int64_t stamp = -1;  // -1: the chunk was not uniform.
  };

  // Sets up, opens the window, runs the operations.
  void Main(Syscalls& sys) {
    if (spec_.shape == Shape::kDebitCredit) {
      SetupBranches(sys);
    } else {
      SetupFiles(sys);
    }
    open_ = Take(*system_);
    if (spec_.shape == Shape::kDebitCredit) {
      StartTellers(sys);
    } else {
      StartGenerators(sys);
    }
    sys.WaitChildren();
    done_ = true;
    system_->StopDaemons();
  }

  // Self-test damage, done with a non-transactional write (committed when
  // the file is closed) just before the final checks read the data.
  void InjectDamage(Syscalls& sys) {
    if (options_.inject == Inject::kNone) {
      return;
    }
    const bool balance = options_.inject == Inject::kCorruptBalance;
    auto fd = sys.Open(balance ? BranchPath(0) : PagePath(0), {.read = true, .write = true});
    if (!fd.ok()) {
      return;
    }
    // Credit account 0 out of thin air, or restamp the second record of
    // chunk 0 with a stamp no writer uses.
    sys.Seek(fd.value, balance ? 0 : kRecordBytes);
    auto data = sys.Read(fd.value, kRecordBytes);
    if (data.ok() && static_cast<int64_t>(data.value.size()) == kRecordBytes) {
      std::string record = Record(balance ? ParseRecord(data.value.data()) + 1 : 999999);
      sys.Seek(fd.value, balance ? 0 : kRecordBytes);
      sys.Write(fd.value, {record.begin(), record.end()});
    }
    sys.Close(fd.value);
  }

  // --- Debit/credit ---

  void SetupBranches(Syscalls& sys) {
    for (int b = 0; b < spec_.sites; ++b) {
      sys.Fork(b, [this, b](Syscalls& child) {
        child.Creat(BranchPath(b), 1);
        auto fd = child.Open(BranchPath(b), {.read = true, .write = true});
        if (!fd.ok()) {
          return;
        }
        std::string records;
        for (int a = 0; a < spec_.accounts_per_branch; ++a) {
          records += Record(kInitialBalance);
        }
        child.Write(fd.value, {records.begin(), records.end()});
        child.Close(fd.value);
      });
    }
    sys.WaitChildren();
  }

  void StartTellers(Syscalls& sys) {
    const int tellers = spec_.tellers_per_site * spec_.sites;
    for (int t = 0; t < tellers; ++t) {
      const int home = t % spec_.sites;
      sys.Fork(home, [this, t, home](Syscalls& teller) {
        Rng rng(Mix(seed_, 1000 + t));
        for (int i = 0; i < spec_.transfers_per_teller; ++i) {
          int from_branch = spec_.from_home_branch
                                ? home
                                : static_cast<int>(rng.Below(spec_.sites));
          int to_branch = rng.Chance(spec_.local_share)
                              ? from_branch
                              : static_cast<int>(rng.Below(spec_.sites));
          int from_acct = static_cast<int>(rng.Below(spec_.accounts_per_branch));
          int to_acct = static_cast<int>(rng.Below(spec_.accounts_per_branch));
          if (from_branch == to_branch && from_acct == to_acct) {
            to_acct = (to_acct + 1) % spec_.accounts_per_branch;
          }
          int64_t amount = rng.Range(1, 50);
          int64_t op = static_cast<int64_t>(t) * spec_.transfers_per_teller + i + 1;
          RunTransfer(teller, op, from_branch, from_acct, to_branch, to_acct, amount);
          teller.Compute(rng.Range(kThinkMin, kThinkMax));
        }
      });
    }
  }

  // Runs `attempt` until it commits, backing off between tries, at most
  // kMaxAttempts times. Returns whether it committed.
  template <class Attempt>
  bool Retry(OpSpans& spans, Attempt&& attempt) {
    for (int i = 0; i < kMaxAttempts; ++i) {
      if (i > 0) {
        SimTime pause = RetryBackoff(i - 1);
        out_->backoff += pause;
        spans.Backoff(pause);
      }
      ++out_->attempts;
      spans.BeginAttempt();
      bool committed = attempt();
      spans.EndAttempt();
      if (committed) {
        ++out_->committed;
        return true;
      }
    }
    ++out_->failed_ops;
    return false;
  }

  void RunTransfer(Syscalls& sys, int64_t op, int from_branch, int from_acct, int to_branch,
                   int to_acct, int64_t amount) {
    OpSpans spans(options_.tracer, sys, op);
    const SimTime start = spans.Now();
    SimTime reads_done = 0;
    if (Retry(spans, [&] {
          return TransferAttempt(sys, spans, from_branch, from_acct, to_branch, to_acct, amount,
                                 &reads_done);
        })) {
      out_->write_latency.push_back(spans.Now() - start);
      out_->read_latency.push_back(reads_done - start);
      out_->user_bytes_written += 2 * kRecordBytes;
      out_->user_pages_read += 2;
    }
    ++finished_;
  }

  bool TransferAttempt(Syscalls& sys, OpSpans& spans, int from_branch, int from_acct,
                       int to_branch, int to_acct, int64_t amount, SimTime* reads_done) {
    if (spans.Call("locus.begin", [&] { return sys.BeginTrans(); }) != Err::kOk) {
      return false;
    }
    const locus::OpenFlags rw{.read = true, .write = true};
    auto from_fd = spans.Call("locus.open", [&] { return sys.Open(BranchPath(from_branch), rw); });
    auto to_fd = spans.Call("locus.open", [&] { return sys.Open(BranchPath(to_branch), rw); });
    bool ok = from_fd.ok() && to_fd.ok();
    int64_t balances[2] = {0, 0};
    const int fds[2] = {from_fd.value, to_fd.value};
    const int accts[2] = {from_acct, to_acct};
    for (int k = 0; k < 2 && ok; ++k) {
      sys.Seek(fds[k], static_cast<int64_t>(accts[k]) * kRecordBytes);
      ok = spans.Call("locus.lock", [&] {
             return sys.Lock(fds[k], kRecordBytes, LockOp::kExclusive);
           }).ok();
      if (ok) {
        auto data = spans.Call("locus.read", [&] { return sys.Read(fds[k], kRecordBytes); });
        ok = data.ok() && data.value.size() == static_cast<size_t>(kRecordBytes);
        balances[k] = ok ? ParseRecord(data.value.data()) : -1;
        ok = ok && balances[k] >= 0;
      }
    }
    *reads_done = spans.Now();
    const int64_t updated[2] = {balances[0] - amount, balances[1] + amount};
    for (int k = 0; k < 2 && ok; ++k) {
      sys.Seek(fds[k], static_cast<int64_t>(accts[k]) * kRecordBytes);
      std::string record = Record(updated[k]);
      ok = spans.Call("locus.write", [&] {
             return sys.Write(fds[k], {record.begin(), record.end()});
           }) == Err::kOk;
    }
    if (from_fd.ok()) {
      sys.Close(from_fd.value);
    }
    if (to_fd.ok()) {
      sys.Close(to_fd.value);
    }
    if (!ok) {
      if (sys.InTransaction()) {
        spans.Call("locus.abort", [&] { return sys.AbortTrans(); });
      }
      return false;
    }
    return spans.Call("locus.commit", [&] { return sys.EndTrans(); }) == Err::kOk;
  }

  void AuditBalances(Syscalls& sys) {
    const int64_t expected =
        static_cast<int64_t>(spec_.sites) * spec_.accounts_per_branch * kInitialBalance;
    const int64_t bytes = static_cast<int64_t>(spec_.accounts_per_branch) * kRecordBytes;
    int64_t total = 0;
    bool complete = true;
    for (int b = 0; b < spec_.sites && complete; ++b) {
      auto fd = sys.Open(BranchPath(b), {});
      auto data = fd.ok() ? sys.Read(fd.value, bytes) : locus::Result<std::vector<uint8_t>>{};
      if (fd.ok()) {
        sys.Close(fd.value);
      }
      complete = fd.ok() && data.ok() && static_cast<int64_t>(data.value.size()) == bytes;
      for (int64_t off = 0; complete && off < bytes; off += kRecordBytes) {
        int64_t balance = ParseRecord(data.value.data() + off);
        complete = balance >= 0;
        total += balance;
      }
    }
    out_->audit_complete = complete;
    out_->conserved = !complete || total == expected;
  }

  // --- Pages ---

  int ChunksPerFile() const { return static_cast<int>(spec_.file_bytes / spec_.chunk_bytes); }

  void SetupFiles(Syscalls& sys) {
    for (int f = 0; f < spec_.files; ++f) {
      sys.Fork(f % spec_.sites, [this, f](Syscalls& child) {
        child.Creat(PagePath(f), spec_.replication);
        auto fd = child.Open(PagePath(f), {.read = true, .write = true});
        if (!fd.ok()) {
          return;
        }
        child.Write(fd.value, StampedChunk(kSetupStamp, spec_.file_bytes));
        child.Close(fd.value);
      });
    }
    sys.WaitChildren();
  }

  void StartGenerators(Syscalls& sys) {
    for (int s = 0; s < spec_.sites; ++s) {
      sys.Fork(s, [this, s](Syscalls& gen) {
        Rng rng(Mix(seed_, 2000 + s));
        const SimTime first_due =
            gen.system().sim().Now() + spec_.interarrival * s / spec_.sites;
        for (int k = 0; k < spec_.arrivals_per_site; ++k) {
          const SimTime due = first_due + spec_.interarrival * k;
          const SimTime now = gen.system().sim().Now();
          if (now < due) {
            gen.Compute(due - now);
          } else {
            out_->generator_late = std::max(out_->generator_late, now - due);
          }
          const bool writer = rng.Chance(spec_.write_share);
          const int file = static_cast<int>(rng.Below(spec_.files));
          const int span_chunks =
              writer ? 1 : static_cast<int>(spec_.read_bytes / spec_.chunk_bytes);
          const int chunk = static_cast<int>(rng.Below(ChunksPerFile() - span_chunks + 1));
          const int64_t op = static_cast<int64_t>(s) * spec_.arrivals_per_site + k + 1;
          if (writer) {
            writers_[op] = Writer{file, chunk};
          }
          gen.Fork(s, [this, op, due, writer, file, chunk](Syscalls& client) {
            RunPageOp(client, op, due, writer, file, chunk);
          });
        }
        gen.WaitChildren();
      });
    }
  }

  void RunPageOp(Syscalls& sys, int64_t op, SimTime due, bool writer, int file, int chunk) {
    OpSpans spans(options_.tracer, sys, op);
    std::vector<Observation> seen;
    if (Retry(spans, [&] {
          seen.clear();
          return writer ? WriteAttempt(sys, spans, op, file, chunk)
                        : ReadAttempt(sys, spans, file, chunk, &seen);
        })) {
      const SimTime latency = spans.Now() - due;
      if (writer) {
        writers_[op].committed = true;
        writers_[op].committed_at = spans.Now();
        out_->write_latency.push_back(latency);
        out_->user_bytes_written += spec_.chunk_bytes;
      } else {
        out_->read_latency.push_back(latency);
        out_->user_pages_read += spec_.read_bytes / kPageBytes;
        observations_.insert(observations_.end(), seen.begin(), seen.end());
      }
    }
    ++finished_;
  }

  bool WriteAttempt(Syscalls& sys, OpSpans& spans, int64_t op, int file, int chunk) {
    if (spans.Call("locus.begin", [&] { return sys.BeginTrans(); }) != Err::kOk) {
      return false;
    }
    auto fd = spans.Call("locus.open", [&] {
      return sys.Open(PagePath(file), {.read = true, .write = true});
    });
    bool ok = fd.ok();
    if (ok) {
      sys.Seek(fd.value, static_cast<int64_t>(chunk) * spec_.chunk_bytes);
      ok = spans.Call("locus.lock", [&] {
             return sys.Lock(fd.value, spec_.chunk_bytes, LockOp::kExclusive);
           }).ok();
    }
    if (ok) {
      std::vector<uint8_t> data = StampedChunk(op, spec_.chunk_bytes);
      ok = spans.Call("locus.write", [&] { return sys.Write(fd.value, data); }) == Err::kOk;
    }
    if (fd.ok()) {
      sys.Close(fd.value);
    }
    if (!ok) {
      if (sys.InTransaction()) {
        spans.Call("locus.abort", [&] { return sys.AbortTrans(); });
      }
      return false;
    }
    return spans.Call("locus.commit", [&] { return sys.EndTrans(); }) == Err::kOk;
  }

  bool ReadAttempt(Syscalls& sys, OpSpans& spans, int file, int chunk,
                   std::vector<Observation>* seen) {
    if (spans.Call("locus.begin", [&] { return sys.BeginTrans(); }) != Err::kOk) {
      return false;
    }
    auto fd = spans.Call("locus.open", [&] { return sys.Open(PagePath(file), {}); });
    bool ok = fd.ok();
    if (ok) {
      sys.Seek(fd.value, static_cast<int64_t>(chunk) * spec_.chunk_bytes);
      auto data = spans.Call("locus.read", [&] { return sys.Read(fd.value, spec_.read_bytes); });
      ok = data.ok();
      if (ok) {
        const int chunks = static_cast<int>(spec_.read_bytes / spec_.chunk_bytes);
        for (int c = 0; c < chunks; ++c) {
          int64_t off = static_cast<int64_t>(c) * spec_.chunk_bytes;
          int64_t stamp = static_cast<int64_t>(data.value.size()) >= off + spec_.chunk_bytes
                              ? UniformStamp(data.value.data() + off, spec_.chunk_bytes)
                              : -1;
          seen->push_back(Observation{file, chunk + c, stamp});
        }
      }
    }
    if (fd.ok()) {
      sys.Close(fd.value);
    }
    if (!ok) {
      if (sys.InTransaction()) {
        spans.Call("locus.abort", [&] { return sys.AbortTrans(); });
      }
      return false;
    }
    return spans.Call("locus.commit", [&] { return sys.EndTrans(); }) == Err::kOk;
  }

  // A committed reader may see the setup stamp or any committed writer of
  // that very chunk; anything else is a torn or dirty read.
  bool Legal(const Observation& o) const {
    if (o.stamp == kSetupStamp) {
      return true;
    }
    auto it = writers_.find(o.stamp);
    return it != writers_.end() && it->second.committed && it->second.file == o.file &&
           it->second.chunk == o.chunk;
  }

  void ReadBackChunks(Syscalls& sys) {
    for (const Observation& o : observations_) {
      out_->torn_reads += Legal(o) ? 0 : 1;
    }
    // Every chunk must end holding the stamp of its last committed writer.
    std::map<std::pair<int, int>, std::pair<SimTime, int64_t>> last;
    for (const auto& [op, w] : writers_) {
      auto key = std::make_pair(w.file, w.chunk);
      if (w.committed && (!last.contains(key) || last[key].first < w.committed_at)) {
        last[key] = {w.committed_at, op};
      }
    }
    for (int f = 0; f < spec_.files; ++f) {
      for (int c = 0; c < ChunksPerFile(); ++c) {
        auto it = last.find({f, c});
        int64_t expected = it == last.end() ? kSetupStamp : it->second.second;
        std::optional<int64_t> stamp = ReadBackChunk(sys, f, c);
        if (!stamp.has_value()) {
          out_->audit_complete = false;
        } else if (*stamp != expected) {
          ++out_->torn_reads;
        }
      }
    }
  }

  // The stamp of one chunk of the drained cluster's committed data: -1 when
  // it is not uniform, nullopt when it cannot be read.
  std::optional<int64_t> ReadBackChunk(Syscalls& sys, int file, int chunk) {
    constexpr int kAttempts = 5;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      auto fd = sys.Open(PagePath(file), {});
      if (!fd.ok()) {
        sys.Compute(Seconds(1));
        continue;
      }
      sys.Seek(fd.value, static_cast<int64_t>(chunk) * spec_.chunk_bytes);
      auto data = sys.Read(fd.value, spec_.chunk_bytes);
      sys.Close(fd.value);
      if (data.ok() && static_cast<int64_t>(data.value.size()) == spec_.chunk_bytes) {
        return UniformStamp(data.value.data(), spec_.chunk_bytes);
      }
      sys.Compute(Seconds(1));
    }
    return std::nullopt;
  }

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  const SimOptions& options_;
  SimResult* out_;
  System* system_ = nullptr;
  Snapshot open_;
  Snapshot close_;
  bool done_ = false;
  int64_t finished_ = 0;
  std::map<int64_t, Writer> writers_;
  std::vector<Observation> observations_;
};

}  // namespace

SimResult RunSimulation(const WorkloadSpec& spec, uint64_t seed, const SimOptions& options) {
  SimResult out;
  out.seed = seed;
  BenchRun run(spec, seed, options, &out);
  run.Run();
  return out;
}

bool SameVirtual(const SimResult& a, const SimResult& b) {
  return a.seed == b.seed && a.attempted == b.attempted && a.committed == b.committed &&
         a.failed_ops == b.failed_ops && a.attempts == b.attempts &&
         a.write_latency == b.write_latency && a.read_latency == b.read_latency &&
         a.torn_reads == b.torn_reads && a.audit_complete == b.audit_complete &&
         a.conserved == b.conserved && a.window == b.window && a.counters == b.counters &&
         a.spawns == b.spawns;
}

}  // namespace perfbench
