// The benchmark's workloads, and the code that runs one simulation of one.
//
// Every workload runs through the public System / Syscalls / Simulation API
// with its own teller (closed loop) or client (open loop) processes, so each
// operation's virtual latency, retries and correctness are observed directly.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/tracer.h"
#include "src/sim/time.h"

namespace perfbench {

enum class Shape { kDebitCredit, kPages };

struct WorkloadSpec {
  const char* name;
  Shape shape;
  int sites;
  int sims_per_pass;  // Independent simulations, pooled into one result.

  // Debit/credit (closed loop): one branch file per site.
  int tellers_per_site = 0;
  int accounts_per_branch = 0;
  int transfers_per_teller = 0;
  bool from_home_branch = false;  // Teller's from-branch is its own site.
  double local_share = 0.0;       // Transfers whose to-branch is the from-branch.

  // Pages (open loop): fixed-rate arrivals per site, one process each.
  int files = 0;
  int64_t file_bytes = 0;
  int replication = 1;
  int64_t chunk_bytes = 0;  // Writers rewrite one aligned chunk.
  int64_t read_bytes = 0;   // Readers read this many bytes, chunk aligned.
  double write_share = 0.0;
  locus::SimTime interarrival = 0;  // Per site.
  int arrivals_per_site = 0;
};

const std::vector<WorkloadSpec>& Workloads();
// Operations one simulation of `spec` starts.
int64_t PlannedOps(const WorkloadSpec& spec);
const WorkloadSpec* FindWorkload(const std::string& name);

// Deliberate damage used by the benchmark's self-tests to prove the
// correctness checks catch it.
enum class Inject { kNone, kCorruptBalance, kRestampChunk };

struct SimOptions {
  bool checked = false;  // Protocol auditor and serializability certifier on.
  Inject inject = Inject::kNone;
  // Records spans, and detector traffic over an idle tail, when set.
  Tracer* tracer = nullptr;
};

// Host resource usage sampled around a stretch of the run.
struct HostUsage {
  double wall_s = 0;
  double user_s = 0;
  double sys_s = 0;
  int64_t minor_faults = 0;
  int64_t rss_kb = 0;

  double cpu_s() const { return user_s + sys_s; }
};
HostUsage SampleHost();

// What one simulation measured. Virtual quantities are exact functions of the
// seed; host quantities are the simulator's own cost.
struct SimResult {
  uint64_t seed = 0;

  // Operations.
  int64_t attempted = 0;  // Operations the workload plans.
  int64_t committed = 0;
  int64_t failed_ops = 0;  // Not committed after every attempt, or never finished.
  int64_t attempts = 0;
  int64_t user_bytes_written = 0;  // By committed operations.
  int64_t user_pages_read = 0;     // Pages touched by reads of committed operations.
  std::vector<locus::SimTime> write_latency;
  std::vector<locus::SimTime> read_latency;
  locus::SimTime backoff = 0;         // Virtual time spent backing off before retries.
  locus::SimTime generator_late = 0;  // Open loop: worst lateness of an arrival.

  // Correctness checks; each violation is one failure. A torn read or a
  // complete audit with the wrong total is a wrong output; an incomplete
  // audit is a failure to make progress.
  int64_t torn_reads = 0;      // Chunks seen (or read back) that no committed writer wrote.
  bool audit_complete = true;  // The final audit or read-back ran to the end.
  bool conserved = true;       // Debit/credit: a complete final audit found the initial total.
  int64_t audit_violations = 0;
  int64_t serial_violations = 0;
  std::map<std::string, int64_t> violation_kinds;

  // Window: opens when setup has committed every file, closes when the last
  // operation has returned, StopDaemons() has been called and the event
  // queue has drained.
  locus::SimTime window = 0;
  std::map<std::string, int64_t> counters;  // Counter deltas over the window.
  int64_t spawns = 0;                       // Simulation processes spawned in the window.
  int64_t idle_tail_msgs = 0;
  locus::SimTime idle_tail = 0;

  // Host.
  double setup_cpu_s = 0;   // CPU time (user + sys), System construction to window open.
  HostUsage host_delta;     // Over the window.
  int64_t peak_rss_kb = 0;  // Largest resident set of the simulation's own process.
  int64_t map_count = 0;    // Memory mappings of that process at its end.
};

SimResult RunSimulation(const WorkloadSpec& spec, uint64_t seed, const SimOptions& options);

// Whether two runs of one simulation agree on everything virtual: operation
// outcomes, latencies, checks and counter deltas.
bool SameVirtual(const SimResult& a, const SimResult& b);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
