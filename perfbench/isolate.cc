#include "perfbench/isolate.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <type_traits>

namespace perfbench {
namespace {

// Flat binary encoding of a SimResult (and the spans the simulation added)
// for the trip from the child process back to the parent.
class Encoder {
 public:
  template <class T>
  void Pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    data_.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }
  void Str(const std::string& s) {
    Pod(s.size());
    data_ += s;
  }
  template <class T>
  void PodVec(const std::vector<T>& v) {
    Pod(v.size());
    data_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  }
  void Map(const std::map<std::string, int64_t>& m) {
    Pod(m.size());
    for (const auto& [k, v] : m) {
      Str(k);
      Pod(v);
    }
  }
  const std::string& data() const { return data_; }

 private:
  std::string data_;
};

class Decoder {
 public:
  explicit Decoder(const std::string& data) : data_(data) {}

  template <class T>
  void Pod(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (Need(sizeof(T))) {
      std::memcpy(v, data_.data() + pos_, sizeof(T));
      pos_ += sizeof(T);
    }
  }
  void Str(std::string* s) {
    size_t n = 0;
    Pod(&n);
    if (Need(n)) {
      s->assign(data_, pos_, n);
      pos_ += n;
    }
  }
  template <class T>
  void PodVec(std::vector<T>* v) {
    size_t n = 0;
    Pod(&n);
    if (n <= data_.size() / sizeof(T) && Need(n * sizeof(T))) {
      v->resize(n);
      std::memcpy(v->data(), data_.data() + pos_, n * sizeof(T));
      pos_ += n * sizeof(T);
    } else {
      ok_ = false;
    }
  }
  void Map(std::map<std::string, int64_t>* m) {
    size_t n = 0;
    Pod(&n);
    for (size_t i = 0; i < n && ok_; ++i) {
      std::string k;
      int64_t v = 0;
      Str(&k);
      Pod(&v);
      (*m)[k] = v;
    }
  }
  bool ok() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Need(size_t n) {
    ok_ = ok_ && n <= data_.size() - pos_;
    return ok_;
  }
  const std::string& data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Every SimResult field, in one order for both directions.
template <class Codec, class R>
void Fields(Codec& c, R& r) {
  auto pod = [&](auto& v) {
    if constexpr (std::is_same_v<Codec, Encoder>) {
      c.Pod(v);
    } else {
      c.Pod(&v);
    }
  };
  auto vec = [&](auto& v) {
    if constexpr (std::is_same_v<Codec, Encoder>) {
      c.PodVec(v);
    } else {
      c.PodVec(&v);
    }
  };
  auto map = [&](auto& v) {
    if constexpr (std::is_same_v<Codec, Encoder>) {
      c.Map(v);
    } else {
      c.Map(&v);
    }
  };
  pod(r.seed);
  pod(r.attempted);
  pod(r.committed);
  pod(r.failed_ops);
  pod(r.attempts);
  pod(r.user_bytes_written);
  pod(r.user_pages_read);
  vec(r.write_latency);
  vec(r.read_latency);
  pod(r.backoff);
  pod(r.generator_late);
  pod(r.torn_reads);
  pod(r.audit_complete);
  pod(r.conserved);
  pod(r.audit_violations);
  pod(r.serial_violations);
  map(r.violation_kinds);
  pod(r.window);
  map(r.counters);
  pod(r.spawns);
  pod(r.idle_tail_msgs);
  pod(r.idle_tail);
  pod(r.setup_cpu_s);
  pod(r.host_delta);
  pod(r.peak_rss_kb);
  pod(r.map_count);
}

// Span names cross the process boundary as strings; the parent keeps one
// copy of each for the spans' lifetime.
const char* InternName(const std::string& name) {
  static std::set<std::string> names;
  return names.insert(name).first->c_str();
}

bool WriteAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

std::string ReadAll(int fd) {
  std::string data;
  char buffer[1 << 16];
  for (;;) {
    ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return data;
    }
    data.append(buffer, static_cast<size_t>(n));
  }
}

}  // namespace

IsolatedRun::IsolatedRun(const WorkloadSpec& spec, uint64_t seed, const SimOptions& options)
    : seed_(seed), options_(options) {
  int fds[2];
  if (pipe(fds) != 0) {
    error_ = "pipe failed";
    return;
  }
  std::fflush(nullptr);
  const size_t span_base = options.tracer != nullptr ? options.tracer->spans().size() : 0;
  pid_ = fork();
  if (pid_ < 0) {
    close(fds[0]);
    close(fds[1]);
    error_ = "fork failed";
    return;
  }
  if (pid_ == 0) {
    close(fds[0]);
    SimResult result = RunSimulation(spec, seed, options);
    Encoder enc;
    Fields(enc, result);
    const std::vector<Span> empty;
    const std::vector<Span>& spans = options.tracer != nullptr ? options.tracer->spans() : empty;
    enc.Pod(spans.size() - std::min(span_base, spans.size()));
    for (size_t i = span_base; i < spans.size(); ++i) {
      Span s = spans[i];
      enc.Str(s.name);
      s.name = nullptr;
      enc.Pod(s);
    }
    std::fflush(nullptr);
    _exit(WriteAll(fds[1], enc.data()) ? 0 : 1);
  }
  close(fds[1]);
  fd_ = fds[0];
}

std::optional<SimResult> IsolatedRun::Finish(std::string* why) {
  if (pid_ < 0) {
    *why = error_;
    return std::nullopt;
  }
  std::string data = ReadAll(fd_);
  close(fd_);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFSIGNALED(status)) {
    *why = std::string("simulation killed by signal ") + strsignal(WTERMSIG(status));
    return std::nullopt;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *why = "simulation exited with status " + std::to_string(WEXITSTATUS(status));
    return std::nullopt;
  }
  SimResult result;
  Decoder dec(data);
  Fields(dec, result);
  size_t spans = 0;
  dec.Pod(&spans);
  for (size_t i = 0; i < spans && options_.tracer != nullptr; ++i) {
    std::string name;
    Span s;
    dec.Str(&name);
    dec.Pod(&s);
    s.name = InternName(name);
    options_.tracer->Append(s);
  }
  if (!dec.ok()) {
    *why = "malformed result from the simulation process";
    return std::nullopt;
  }
  return result;
}

}  // namespace perfbench
