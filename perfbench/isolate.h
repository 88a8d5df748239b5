// Runs one simulation in a child process, so that a simulation which crashes
// (a defect in the simulated system, not in the benchmark) is reported as
// such instead of ending the whole benchmark.

#ifndef PERFBENCH_ISOLATE_H_
#define PERFBENCH_ISOLATE_H_

#include <sys/types.h>

#include <optional>
#include <string>

#include "perfbench/workloads.h"

namespace perfbench {

// One simulation running in a child process, started on construction.
class IsolatedRun {
 public:
  IsolatedRun(const WorkloadSpec& spec, uint64_t seed, const SimOptions& options);
  IsolatedRun(const IsolatedRun&) = delete;
  IsolatedRun& operator=(const IsolatedRun&) = delete;

  uint64_t seed() const { return seed_; }

  // Waits for the child; call once. Returns the simulation's result, with any
  // spans it recorded appended to options.tracer; nullopt (and `why`) when
  // the child did not finish cleanly. Runs that share a tracer must not
  // overlap: each child numbers its spans from the tracer's size at fork.
  std::optional<SimResult> Finish(std::string* why);

 private:
  const uint64_t seed_;
  const SimOptions& options_;
  pid_t pid_ = -1;
  int fd_ = -1;  // Read end of the pipe carrying the result.
  std::string error_;
};

inline std::optional<SimResult> RunIsolated(const WorkloadSpec& spec, uint64_t seed,
                                            const SimOptions& options, std::string* why) {
  return IsolatedRun(spec, seed, options).Finish(why);
}

}  // namespace perfbench

#endif  // PERFBENCH_ISOLATE_H_
