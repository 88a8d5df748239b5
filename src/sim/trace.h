// Virtual-time trace log.
//
// Subsystems emit structured trace records tagged with the virtual timestamp
// and an origin label (usually a site name). The log is off by default, so a
// run formats and keeps nothing; set_enabled(true) records, and echo(true)
// also streams the records to stderr for debugging.

#ifndef SRC_SIM_TRACE_H_
#define SRC_SIM_TRACE_H_

#include <cstdarg>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace locus {

class TraceLog {
 public:
  struct Record {
    SimTime time;
    std::string origin;
    std::string message;
  };

  void Log(SimTime time, const std::string& origin, const char* format, ...)
      __attribute__((format(printf, 4, 5)));

  const std::vector<Record>& records() const { return records_; }
  void Clear() { records_.clear(); }

  void set_echo(bool echo) { echo_ = echo; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Number of records whose message contains `needle`.
  int CountContaining(const std::string& needle) const;

 private:
  bool enabled_ = false;
  bool echo_ = false;
  std::vector<Record> records_;
};

}  // namespace locus

#endif  // SRC_SIM_TRACE_H_
