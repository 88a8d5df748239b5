// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around each call into the
// library (operation -> attempt -> syscall), stamped with virtual start and
// end times, and written out as JSON lines when the run ends. Nothing inside
// src/ is instrumented: every span is measured from outside the layer.

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace perfbench {

struct Span {
  int64_t id = 0;
  int64_t parent = -1;  // -1 for a root (operation) span.
  int64_t op = 0;       // Operation id shared by every span of one operation.
  int32_t sim = 0;      // Index of the simulation within the run.
  int32_t site = 0;
  const char* name = "";
  locus::SimTime start = 0;
  locus::SimTime end = -1;  // -1 while open.
};

class Tracer {
 public:
  int64_t Open(const char* name, int64_t parent, int64_t op, int32_t site, locus::SimTime now) {
    int64_t id = static_cast<int64_t>(spans_.size());
    spans_.push_back(Span{id, parent, op, sim_, site, name, now, -1});
    return id;
  }
  void Close(int64_t id, locus::SimTime now) { spans_[static_cast<size_t>(id)].end = now; }
  // Adds a span recorded elsewhere (a simulation run in a child process).
  void Append(const Span& span) { spans_.push_back(span); }

  // Spans opened after this call carry `sim` as their simulation index.
  void set_sim(int32_t sim) { sim_ = sim; }
  const std::vector<Span>& spans() const { return spans_; }

  // Writes one JSON object per span; times are virtual microseconds.
  bool WriteJsonLines(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%lld,\"parent\":%lld,\"op\":%lld,\"sim\":%d,\"site\":%d,"
                   "\"name\":\"%s\",\"start_us\":%lld,\"end_us\":%lld}\n",
                   static_cast<long long>(s.id), static_cast<long long>(s.parent),
                   static_cast<long long>(s.op), s.sim, s.site, s.name,
                   static_cast<long long>(s.start), static_cast<long long>(s.end));
    }
    return std::fclose(f) == 0;
  }

 private:
  int32_t sim_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
