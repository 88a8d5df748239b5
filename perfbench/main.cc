// locus_perfbench: the repository benchmark program.
//
//   locus_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--inject none|corrupt_balance|restamp_chunk]
//                   [--trace-out <path.jsonl>]
//
// --trace 0 runs the workload's pass (a fixed set of simulations derived from
// the seed), then repeats its simulations until --seconds of host time have
// gone by, checks that every repeat produced the same virtual results, and
// reports the end-to-end metrics. --trace 1 runs one plain pass, one traced pass (spans
// around every syscall, counter deltas, an idle tail) and one checked pass
// (protocol auditor and serializability certifier on), asserts that all three
// agree on every virtual end-to-end metric, probes the simulator's own
// costs, and reports the per-layer metrics.
//
// Every metric prints as "metric <name> <value> <unit> <clock> [note]" where
// the clock is "virtual" (simulated Locus time or counts of simulated work)
// or "host" (the simulator's own cost). The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. "correct" is
// false when a check proves an output wrong (a torn read, a complete audit
// with the wrong total, a pass that does not repeat the virtual metrics);
// "failed" counts operations that did not commit, incomplete audits,
// operations of crashed simulations, and the wrong outputs. The exit status
// is nonzero only for a usage error or an unwritable --trace-out.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "perfbench/isolate.h"
#include "perfbench/tracer.h"
#include "perfbench/workloads.h"
#include "src/sim/simulation.h"

namespace perfbench {
namespace {

using locus::SimTime;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  Inject inject = Inject::kNone;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: locus_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--inject none|corrupt_balance|restamp_chunk] "
               "[--trace-out <path>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (flag == "--inject") {
      if (value == "none") {
        args.inject = Inject::kNone;
      } else if (value == "corrupt_balance") {
        args.inject = Inject::kCorruptBalance;
      } else if (value == "restamp_chunk") {
        args.inject = Inject::kRestampChunk;
      } else {
        Usage(("unknown injection " + value).c_str());
      }
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (FindWorkload(args.workload) == nullptr) {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (args.trace != 0 && args.trace != 1) {
    Usage("--trace must be 0 or 1");
  }
  return args;
}

double Ms(SimTime t) { return locus::ToMilliseconds(t); }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile of virtual samples, and how many samples lie
// strictly beyond it.
struct Percentile {
  double ms = 0;
  int64_t beyond = 0;
};
Percentile Quantile(std::vector<SimTime> samples, double q) {
  if (samples.empty()) {
    return {};
  }
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  SimTime value = samples[rank - 1];
  int64_t beyond = samples.end() - std::upper_bound(samples.begin(), samples.end(), value);
  return {Ms(value), beyond};
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string Number(double v) {
  char buffer[64];
  auto res = std::to_chars(buffer, buffer + sizeof(buffer), v);
  return std::string(buffer, res.ptr);
}

// --- Metric output ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  const char* clock;  // "virtual" or "host".
  std::string note;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, const char* clock,
           std::string note = "") {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit), clock, std::move(note)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  void Print(const char* title) const {
    std::printf("\n%s\n", title);
    for (const Metric& m : metrics_) {
      std::printf("metric %-40s %-22s %-14s %-7s %s\n", m.name.c_str(), Number(m.value).c_str(),
                  m.unit.c_str(), m.clock, m.note.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += (i == 0 ? "" : ", ") + std::string("\"") + m.name + "\": {\"value\": " +
             Number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// --- One pass: the workload's simulations, pooled ---------------------------

struct Pass {
  std::vector<SimResult> sims;
  // Simulations whose process crashed; every operation they planned counts
  // as attempted and failed.
  std::vector<std::string> crashes;
  int64_t crashed_ops = 0;

  int64_t Sum(int64_t SimResult::*field) const {
    int64_t total = 0;
    for (const SimResult& s : sims) {
      total += s.*field;
    }
    return total;
  }
  int64_t Counter(const std::string& name) const {
    int64_t total = 0;
    for (const SimResult& s : sims) {
      auto it = s.counters.find(name);
      total += it == s.counters.end() ? 0 : it->second;
    }
    return total;
  }
  // Sum of every counter named <prefix><anything><suffix>.
  int64_t CounterMatching(const std::string& prefix, const std::string& suffix = "") const {
    int64_t total = 0;
    for (const SimResult& s : sims) {
      for (const auto& [name, value] : s.counters) {
        if (name.starts_with(prefix) && name.ends_with(suffix)) {
          total += value;
        }
      }
    }
    return total;
  }
  std::vector<SimTime> Pool(std::vector<SimTime> SimResult::*field) const {
    std::vector<SimTime> out;
    for (const SimResult& s : sims) {
      out.insert(out.end(), (s.*field).begin(), (s.*field).end());
    }
    return out;
  }
  SimTime Window() const {
    SimTime total = 0;
    for (const SimResult& s : sims) {
      total += s.window;
    }
    return total;
  }
  int64_t Commits() const { return Sum(&SimResult::committed); }
  int64_t TornReads() const { return Sum(&SimResult::torn_reads); }
  int64_t Unconserved() const {
    return std::count_if(sims.begin(), sims.end(), [](const SimResult& s) { return !s.conserved; });
  }
  int64_t Unaudited() const {
    return std::count_if(sims.begin(), sims.end(),
                         [](const SimResult& s) { return !s.audit_complete; });
  }
  int64_t Attempted() const { return Sum(&SimResult::attempted) + crashed_ops; }
  // Outputs the checks proved wrong.
  int64_t Wrong() const { return TornReads() + Unconserved(); }
  int64_t Failed() const {
    return Sum(&SimResult::failed_ops) + Wrong() + Unaudited() + crashed_ops;
  }
};

// Seed of the i-th simulation of a pass.
uint64_t SimSeed(uint64_t seed, int i) { return seed * 1000 + static_cast<uint64_t>(i); }

// Runs the pass's simulations, `width` at a time. Simulations that run side
// by side disturb each other's host figures, and may not share a tracer.
Pass RunPass(const WorkloadSpec& spec, uint64_t seed, const SimOptions& options, int width = 1) {
  Pass pass;
  std::deque<IsolatedRun> running;
  auto finish_oldest = [&] {
    std::string why;
    std::optional<SimResult> result = running.front().Finish(&why);
    if (result.has_value()) {
      pass.sims.push_back(std::move(*result));
    } else {
      pass.crashes.push_back("simulation seed " + std::to_string(running.front().seed()) + ": " +
                             why);
      pass.crashed_ops += PlannedOps(spec);
    }
    running.pop_front();
  };
  for (int i = 0; i < spec.sims_per_pass; ++i) {
    if (static_cast<int>(running.size()) == width) {
      finish_oldest();
    }
    if (options.tracer != nullptr) {
      options.tracer->set_sim(i);
    }
    running.emplace_back(spec, SimSeed(seed, i), options);
  }
  while (!running.empty()) {
    finish_oldest();
  }
  return pass;
}

// The virtual end-to-end metrics: exact functions of the seed.
Report VirtualMetrics(const Pass& pass) {
  Report r;
  const int64_t commits = pass.Commits();
  r.Add("txn_per_s", Ratio(static_cast<double>(commits), Ms(pass.Window()) / 1000.0),
        "1/virtual_s", "virtual", "commits=" + std::to_string(commits));
  auto latency = [&](const char* prefix, std::vector<SimTime> SimResult::*field) {
    std::vector<SimTime> samples = pass.Pool(field);
    for (auto [q, tag] : {std::pair{0.50, "p50"}, std::pair{0.99, "p99"}}) {
      Percentile p = Quantile(samples, q);
      r.Add(std::string(prefix) + "_" + tag + "_ms", p.ms, "virtual_ms", "virtual",
            "n=" + std::to_string(samples.size()) + " beyond=" + std::to_string(p.beyond));
    }
  };
  latency("write_latency", &SimResult::write_latency);
  latency("read_latency", &SimResult::read_latency);
  r.Add("msgs_per_commit", Ratio(pass.Counter("net.messages"), commits), "msg/commit",
        "virtual", "net.messages in the window, daemon traffic included");
  return r;
}

bool SameVirtual(const Report& a, const Report& b) {
  if (a.metrics().size() != b.metrics().size()) {
    return false;
  }
  for (size_t i = 0; i < a.metrics().size(); ++i) {
    if (a.metrics()[i].name != b.metrics()[i].name ||
        a.metrics()[i].value != b.metrics()[i].value) {
      return false;
    }
  }
  return true;
}

void PrintChecks(const Pass& pass) {
  for (const std::string& crash : pass.crashes) {
    std::printf("check crash %s\n", crash.c_str());
  }
  std::printf("check attempted=%lld committed=%lld failed_ops=%lld torn_reads=%lld "
              "unconserved_sims=%lld unaudited_sims=%lld crashed_sims=%zu\n",
              static_cast<long long>(pass.Attempted()),
              static_cast<long long>(pass.Commits()),
              static_cast<long long>(pass.Sum(&SimResult::failed_ops)),
              static_cast<long long>(pass.TornReads()),
              static_cast<long long>(pass.Unconserved()),
              static_cast<long long>(pass.Unaudited()), pass.crashes.size());
}

void PrintResult(bool correct, int64_t attempted, int64_t failed, const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), report.Json().c_str());
  std::fflush(stdout);
}

// --- Host probe of the simulator itself -------------------------------------

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void ProbeSimulator(Report* r) {
  using Clock = std::chrono::steady_clock;
  constexpr int kEvents = 200000;
  {
    locus::Simulation sim(1);
    auto t0 = Clock::now();
    for (int i = 0; i < kEvents; ++i) {
      sim.Schedule(locus::Microseconds(i % 1000), [] {});
    }
    sim.RunFor(locus::Milliseconds(1));
    r->Add("sim.event_ns", SecondsSince(t0) * 1e9 / kEvents, "host_ns", "host",
           "Schedule + run of one no-op event");
  }
  constexpr int kSleeps = 100000;
  {
    locus::Simulation sim(1);
    for (int p = 0; p < 2; ++p) {
      sim.Spawn("ping", [&sim] {
        for (int i = 0; i < kSleeps; ++i) {
          sim.Sleep(1);
        }
      });
    }
    auto t0 = Clock::now();
    sim.Run();
    r->Add("sim.switch_ns", SecondsSince(t0) * 1e9 / (2.0 * kSleeps), "host_ns", "host",
           "one Sleep: park, wake-up event, resume");
  }
  constexpr int kSpawns = 5000;
  {
    auto t0 = Clock::now();
    {
      locus::Simulation sim(1);
      for (int i = 0; i < kSpawns; ++i) {
        sim.Spawn("empty", [] {});
      }
      sim.Run();
    }
    r->Add("sim.spawn_us", SecondsSince(t0) * 1e6 / kSpawns, "host_us", "host",
           "Spawn, run and destroy one empty process");
  }
}

// --- The two modes -----------------------------------------------------------

// The host end-to-end metrics over every simulation of `passes`. Times are
// the simulation process's own CPU time (user + sys), which other load on
// the machine disturbs far less than wall time.
void AddHostMetrics(const std::vector<Pass>& passes, Report* r) {
  std::vector<double> host_ms_per_commit;
  std::vector<double> setup;
  int64_t peak_rss_kb = 0;
  for (const Pass& pass : passes) {
    for (const SimResult& s : pass.sims) {
      if (s.committed > 0) {
        host_ms_per_commit.push_back(s.host_delta.cpu_s() * 1000 /
                                     static_cast<double>(s.committed));
      }
      setup.push_back(s.setup_cpu_s);
      peak_rss_kb = std::max(peak_rss_kb, s.peak_rss_kb);
    }
  }
  r->Add("host_ms_per_commit", Median(host_ms_per_commit), "host_ms/commit", "host",
         "CPU time of the window, median of " + std::to_string(host_ms_per_commit.size()) +
             " simulations");
  r->Add("setup_s", Median(setup), "s", "host",
         "CPU time, median of " + std::to_string(setup.size()) + " set-ups");
  r->Add("peak_rss_mb", static_cast<double>(peak_rss_kb) / 1024.0, "MB", "host",
         "largest simulation process");
}

void RunEndToEnd(const Args& args, const WorkloadSpec& spec) {
  SimOptions options;
  options.inject = args.inject;
  // Warm-up: one simulation whose host figures are discarded, so timing
  // starts with the binary, allocator and caches warm.
  std::string why;
  RunIsolated(spec, SimSeed(args.seed, 0), options, &why);

  // One pass gives the virtual metrics. Until --seconds have gone by, its
  // simulations then run again, in turn, for host timing only; each repeat
  // must reproduce its simulation's virtual results exactly.
  const auto t0 = std::chrono::steady_clock::now();
  const Pass pass = RunPass(spec, args.seed, options);
  Pass repeats;
  bool repeatable = true;
  for (size_t i = 0; !pass.sims.empty() && SecondsSince(t0) < args.seconds; ++i) {
    const SimResult& reference = pass.sims[i % pass.sims.size()];
    std::optional<SimResult> again = RunIsolated(spec, reference.seed, options, &why);
    repeatable = repeatable && again.has_value() && SameVirtual(*again, reference);
    if (again.has_value()) {
      repeats.sims.push_back(std::move(*again));
    }
  }
  Report report = VirtualMetrics(pass);
  AddHostMetrics({pass, repeats}, &report);

  std::printf("workload %s seed %llu: %zu simulations, then %zu repeats for host timing\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              pass.sims.size() + pass.crashes.size(), repeats.sims.size());
  PrintChecks(pass);
  std::printf("check repeatable=%d\n", repeatable ? 1 : 0);
  report.Print("end-to-end metrics");
  PrintResult(repeatable && pass.Wrong() == 0, pass.Attempted(), pass.Failed(), report);
}

Report LayerMetrics(const Pass& traced, const Tracer& tracer) {
  Report r;
  const double commits = static_cast<double>(traced.Commits());
  auto per_commit = [&](double v) { return Ratio(v, commits); };

  // locus: virtual spans around each syscall, by name.
  for (const char* call : {"begin", "open", "lock", "read", "write", "commit", "abort"}) {
    std::string span = std::string("locus.") + call;
    std::vector<SimTime> durations;
    for (const Span& s : tracer.spans()) {
      if (span == s.name) {
        durations.push_back(s.end - s.start);
      }
    }
    std::string base = span + "_ms";
    r.Add(base + ".p50", Quantile(durations, 0.50).ms, "virtual_ms", "virtual");
    r.Add(base + ".p99", Quantile(durations, 0.99).ms, "virtual_ms", "virtual");
    r.Add(base + ".count", static_cast<double>(durations.size()), "count", "virtual");
  }
  r.Add("op.backoff_ms_per_commit", per_commit(Ms(traced.Sum(&SimResult::backoff))),
        "virtual_ms", "virtual", "retry back-off per commit");
  SimTime late = 0;
  for (const SimResult& s : traced.sims) {
    late = std::max(late, s.generator_late);
  }
  r.Add("op.generator_late_ms", Ms(late), "virtual_ms", "virtual",
        "worst arrival lateness (open loop only)");

  // lock
  const double requests = static_cast<double>(traced.Counter("lock.requests"));
  r.Add("lock.requests_per_commit", per_commit(requests), "1/commit", "virtual");
  r.Add("lock.queued_share", Ratio(traced.Counter("lock.queued"), requests), "share", "virtual");
  r.Add("lock.cache_hits_per_commit", per_commit(traced.Counter("lock.cache_hits")), "1/commit",
        "virtual");
  r.Add("lock.implicit_per_commit", per_commit(traced.Counter("lock.implicit")), "1/commit",
        "virtual");
  r.Add("deadlock.victims_per_commit", per_commit(traced.Counter("deadlock.victims")),
        "1/commit", "virtual");
  r.Add("deadlock.orphan_locks_reaped", traced.Counter("deadlock.orphan_locks_reaped"), "count",
        "virtual");

  // txn
  r.Add("txn.attempts_per_commit", per_commit(traced.Sum(&SimResult::attempts)), "1/commit",
        "virtual");
  r.Add("txn.aborted_in_commit", traced.Counter("txn.aborted_in_commit"), "count", "virtual");
  r.Add("txn.phase2_completed_share",
        Ratio(traced.Counter("txn.phase2_completed"), traced.Counter("txn.committed")), "share",
        "virtual");

  // net
  r.Add("net.dropped", traced.Counter("net.dropped"), "count", "virtual");
  SimTime tail = 0;
  int64_t tail_msgs = 0;
  for (const SimResult& s : traced.sims) {
    tail += s.idle_tail;
    tail_msgs += s.idle_tail_msgs;
  }
  r.Add("net.idle_msgs_per_s", Ratio(tail_msgs, Ms(tail) / 1000.0), "msg/virtual_s", "virtual",
        "idle tail after the window, detector running");

  // form
  r.Add("form.msgs_per_batch",
        Ratio(traced.Counter("form.batch_messages"), traced.Counter("form.batches")), "msg/batch",
        "virtual");
  const double flushes = static_cast<double>(traced.Counter("form.flushes_deadline") +
                                             traced.Counter("form.flushes_size"));
  r.Add("form.deadline_flush_share", Ratio(traced.Counter("form.flushes_deadline"), flushes),
        "share", "virtual");
  const double forces = static_cast<double>(traced.Counter("form.log_forces"));
  r.Add("form.log_forces_per_commit", per_commit(forces), "1/commit", "virtual");
  r.Add("form.group_commit_records_per_force",
        Ratio(traced.Counter("form.group_commit_records"), forces), "1/force", "virtual");
  r.Add("form.lock_fetches_per_commit", per_commit(traced.Counter("form.lock_fetches")),
        "1/commit", "virtual");

  // fs
  r.Add("fs.shadow_pages_per_commit", per_commit(traced.Counter("fs.shadow_pages_allocated")),
        "1/commit", "virtual");
  r.Add("fs.write_amplification",
        Ratio(traced.Counter("fs.bytes_written"), traced.Sum(&SimResult::user_bytes_written)),
        "ratio", "virtual", "fs.bytes_written / bytes written by committed operations");
  const double installed_pages = static_cast<double>(traced.Counter("fs.commit.diffed_pages") +
                                                     traced.Counter("fs.commit.direct_pages") +
                                                     traced.Counter("fs.commit.remerged_pages"));
  r.Add("fs.diffed_page_share", Ratio(traced.Counter("fs.commit.diffed_pages"), installed_pages),
        "share", "virtual");
  r.Add("fs.replica_propagations_per_commit",
        per_commit(traced.Counter("fs.replica_propagations")), "1/commit", "virtual");

  // storage
  r.Add("io.reads_per_page_read",
        Ratio(traced.Counter("io.reads"), traced.Sum(&SimResult::user_pages_read)), "ratio",
        "virtual", "disk reads per page touched by reads of committed operations");
  r.Add("io.writes_per_commit", per_commit(traced.Counter("io.writes")), "1/commit", "virtual");
  const double log_writes =
      static_cast<double>(traced.CounterMatching("io.writes.", "_log") +
                          traced.CounterMatching("io.writes.", "_mark") +
                          traced.Counter("io.writes.log_inode"));
  r.Add("io.log_writes_per_commit", per_commit(log_writes), "1/commit", "virtual");
  // Share of a resource's work done by its busiest instance; the instance is
  // the counter name up to the first '.' after `prefix`.
  auto hot_share = [&](const std::string& prefix) {
    std::map<std::string, int64_t> per_instance;
    int64_t total = 0;
    for (const SimResult& s : traced.sims) {
      for (const auto& [name, value] : s.counters) {
        if (name.starts_with(prefix)) {
          per_instance[name.substr(0, name.find('.', prefix.size()))] += value;
          total += value;
        }
      }
    }
    int64_t hottest = 0;
    for (const auto& [instance, value] : per_instance) {
      hottest = std::max(hottest, value);
    }
    return Ratio(hottest, total);
  };
  r.Add("disk.hot_site_share", hot_share("disk."), "share", "virtual",
        "busiest disk's share of all disk accesses");
  r.Add("cpu.instr_per_commit", per_commit(traced.CounterMatching("cpu.site")), "instr/commit",
        "virtual");
  r.Add("cpu.hot_site_share", hot_share("cpu."), "share", "virtual");

  // recon
  r.Add("recon.catchup_pages", traced.Counter("recon.catchup_pages"), "count", "virtual");
  r.Add("recon.stale_reads_blocked", traced.Counter("recon.stale_reads_blocked"), "count",
        "virtual");

  // proc
  r.Add("proc.spawns_per_commit", per_commit(traced.Sum(&SimResult::spawns)), "1/commit",
        "virtual");
  r.Add("proc.remote_forks_per_commit", per_commit(traced.Counter("proc.remote_forks")),
        "1/commit", "virtual");
  return r;
}

// Host usage of the window summed over the pass's simulations.
HostUsage WindowUsage(const Pass& pass) {
  HostUsage total;
  for (const SimResult& s : pass.sims) {
    total.wall_s += s.host_delta.wall_s;
    total.user_s += s.host_delta.user_s;
    total.sys_s += s.host_delta.sys_s;
    total.minor_faults += s.host_delta.minor_faults;
    total.rss_kb += s.host_delta.rss_kb;
  }
  return total;
}

void AddHostLayer(const Pass& plain, Report* r) {
  const double commits = static_cast<double>(plain.Commits());
  const HostUsage total = WindowUsage(plain);
  r->Add("host.cpu_ms_per_commit", Ratio(total.cpu_s() * 1000, commits), "host_ms/commit",
         "host");
  r->Add("host.wall_ms_per_commit", Ratio(total.wall_s * 1000, commits), "host_ms/commit",
         "host", "wall time of the window");
  r->Add("host.sys_share", Ratio(total.sys_s, total.cpu_s()), "share", "host");
  r->Add("host.minor_faults_per_commit", Ratio(total.minor_faults, commits), "1/commit", "host");
  r->Add("host.rss_kb_per_commit", Ratio(total.rss_kb, commits), "KB/commit", "host",
         "RSS growth over the window");
  // Every simulation process spawned keeps its stack mapping and guard page
  // until the simulation ends; past vm.max_map_count a simulation crashes.
  int64_t maps = 0;
  for (const SimResult& s : plain.sims) {
    maps = std::max(maps, s.map_count);
  }
  std::ifstream limit_file("/proc/sys/vm/max_map_count");
  int64_t limit = 0;
  limit_file >> limit;
  r->Add("proc.map_count_share", Ratio(maps, limit), "share", "host",
         "largest simulation's memory mappings / vm.max_map_count");
}

void RunTraced(const Args& args, const WorkloadSpec& spec) {
  SimOptions plain_options;
  plain_options.inject = args.inject;
  Pass plain = RunPass(spec, args.seed, plain_options);

  Tracer tracer;
  SimOptions traced_options = plain_options;
  traced_options.tracer = &tracer;
  Pass traced = RunPass(spec, args.seed, traced_options);

  // The checked pass's host figures are not reported, so its simulations,
  // the slowest of the three passes, run two at a time.
  SimOptions checked_options = plain_options;
  checked_options.checked = true;
  Pass checked = RunPass(spec, args.seed, checked_options, /*width=*/2);

  const Report plain_virtual = VirtualMetrics(plain);
  Report end_to_end = plain_virtual;
  AddHostMetrics({plain}, &end_to_end);
  const bool traced_same = SameVirtual(plain_virtual, VirtualMetrics(traced));
  const bool checked_same = SameVirtual(plain_virtual, VirtualMetrics(checked));

  Report layers = LayerMetrics(traced, tracer);
  AddHostLayer(plain, &layers);
  ProbeSimulator(&layers);
  auto cpu_per_commit = [](const Pass& pass) {
    return Ratio(WindowUsage(pass).cpu_s(), static_cast<double>(pass.Commits()));
  };
  layers.Add("trace.overhead_share", Ratio(cpu_per_commit(traced), cpu_per_commit(plain)) - 1,
             "share", "host", "traced vs untraced host CPU time per commit");

  int64_t audit = checked.Sum(&SimResult::audit_violations);
  int64_t serial = checked.Sum(&SimResult::serial_violations);
  layers.Add("audit.violations", audit, "count", "virtual", "checked run");
  layers.Add("serial.violations", serial, "count", "virtual", "checked run");
  layers.Add("check.torn_reads", plain.TornReads(), "count", "virtual");
  layers.Add("check.conserved", plain.Unconserved() == 0 ? 1 : 0, "bool", "virtual",
             "every complete final audit found the initial total");
  layers.Add("check.incomplete_audits", plain.Unaudited(), "count", "virtual",
             "final audits that could not read every branch");
  layers.Add("check.virtual_identical", traced_same && checked_same ? 1 : 0, "bool", "virtual",
             "plain, traced and checked runs agree on every virtual end-to-end metric");
  layers.Add("failed_share", Ratio(plain.Failed(), plain.Attempted()), "share", "virtual");
  layers.Add("write_latency.samples",
             static_cast<double>(plain.Pool(&SimResult::write_latency).size()), "count", "virtual");
  layers.Add("read_latency.samples",
             static_cast<double>(plain.Pool(&SimResult::read_latency).size()), "count", "virtual");

  std::printf("workload %s seed %llu: plain, traced and checked passes of %d simulations\n",
              spec.name, static_cast<unsigned long long>(args.seed), spec.sims_per_pass);
  PrintChecks(plain);
  for (const Pass* pass : {&traced, &checked}) {
    for (const std::string& crash : pass->crashes) {
      std::printf("check crash (%s pass) %s\n", pass == &traced ? "traced" : "checked",
                  crash.c_str());
    }
  }
  std::printf("check traced_identical=%d checked_identical=%d\n", traced_same ? 1 : 0,
              checked_same ? 1 : 0);
  std::map<std::string, int64_t> kinds;
  for (const SimResult& s : checked.sims) {
    for (const auto& [kind, n] : s.violation_kinds) {
      kinds[kind] += n;
    }
  }
  for (const auto& [kind, n] : kinds) {
    std::printf("check violation %s %lld\n", kind.c_str(), static_cast<long long>(n));
  }
  end_to_end.Print("end-to-end metrics (plain run)");
  layers.Print("per-layer metrics (traced run)");
  if (!args.trace_out.empty()) {
    if (tracer.WriteJsonLines(args.trace_out)) {
      std::printf("spans %zu written to %s\n", tracer.spans().size(), args.trace_out.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
      std::exit(1);
    }
  }
  const int64_t failed = plain.Failed();
  for (const Metric& m : end_to_end.metrics()) {
    layers.Add(m.name, m.value, m.unit, m.clock, m.note);
  }
  PrintResult(traced_same && checked_same && plain.Wrong() == 0, plain.Attempted(), failed,
              layers);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args = perfbench::ParseArgs(argc, argv);
  const perfbench::WorkloadSpec& spec = *perfbench::FindWorkload(args.workload);
  if (args.trace == 1) {
    perfbench::RunTraced(args, spec);
  } else {
    perfbench::RunEndToEnd(args, spec);
  }
  return 0;
}
