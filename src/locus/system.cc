#include "src/locus/system.h"

#include <cassert>

#include "src/locus/detector.h"

namespace locus {

namespace {
bool AuditEnabled(const SystemOptions& options) {
#ifdef LOCUS_AUDIT_FORCE
  (void)options;
  return true;
#else
  return options.audit;
#endif
}

bool SerialEnabled(const SystemOptions& options) {
#ifdef LOCUS_SERIAL_FORCE
  (void)options;
  return true;
#else
  return options.serial;
#endif
}
}  // namespace

System::System(int num_sites, SystemOptions options)
    : options_(options),
      sim_(options.seed),
      net_(&sim_, &trace_),
      audit_(&sim_, &stats_, &trace_, AuditEnabled(options)),
      serial_(&sim_, &net_, &stats_, &trace_, SerialEnabled(options)) {
  observers_.Register(&audit_);
  observers_.Register(&serial_);
  if (serial_.enabled()) {
    // The certifier's external-consistency and race checks ride on the
    // network's vector clocks (observer metadata; bit-identity-safe).
    net_.EnableClocks();
  }
  for (int i = 0; i < num_sites; ++i) {
    SiteId site = net_.AddSite("site" + std::to_string(i));
    auto kernel = std::make_unique<Kernel>(this, site);
    kernels_.push_back(std::move(kernel));
    kernels_[site]->Start();
  }
  detector_ = std::make_unique<DeadlockDetector>(this);
}

System::~System() { StopDaemons(); }

Pid System::Spawn(SiteId site, const std::string& name,
                  std::function<void(Syscalls&)> body) {
  return kernels_[site]->StartProcess(name, [this, body = std::move(body)](OsProcess* p) {
    Syscalls sys(this, p);
    body(sys);
  });
}

void System::CrashSite(SiteId site) {
  net_.Crash(site);
  kernels_[site]->OnCrash();
}

void System::RebootSite(SiteId site) {
  net_.Reboot(site);
  kernels_[site]->OnReboot();
  detector_->OnReboot(site);
}

void System::Partition(const std::vector<std::vector<SiteId>>& groups) {
  net_.SetPartitions(groups);
}

void System::HealPartitions() { net_.ClearPartitions(); }

Pid System::AllocPid(SiteId site) {
  (void)site;
  return next_pid_++;
}

OsProcess* System::Locate(Pid pid) {
  if (pid == kNoPid) {
    return nullptr;
  }
  for (auto& kernel : kernels_) {
    if (!kernel->alive()) {
      continue;
    }
    if (OsProcess* p = kernel->process_table().Find(pid)) {
      return p;
    }
  }
  return nullptr;
}

void System::StartDeadlockDetector(SiteId site, SimTime period) {
  detector_->Start(site, period);
}

void System::StopDaemons() { detector_->Stop(); }

// ---------------------------------------------------------------------------
// Syscalls facade

Err Syscalls::Mkdir(const std::string& path) { return kernel().SysMkdir(process_, path); }
Err Syscalls::Creat(const std::string& path, int replication) {
  return kernel().SysCreat(process_, path, replication);
}
Err Syscalls::Unlink(const std::string& path) { return kernel().SysUnlink(process_, path); }

Result<int> Syscalls::Open(const std::string& path, OpenFlags flags) {
  return kernel().SysOpen(process_, path, flags);
}
Err Syscalls::Close(int fd) { return kernel().SysClose(process_, fd); }
Result<std::vector<uint8_t>> Syscalls::Read(int fd, int64_t length) {
  return kernel().SysRead(process_, fd, length);
}
Err Syscalls::Write(int fd, const std::vector<uint8_t>& bytes) {
  return kernel().SysWrite(process_, fd, bytes);
}
Err Syscalls::WriteString(int fd, const std::string& text) {
  return Write(fd, std::vector<uint8_t>(text.begin(), text.end()));
}
Result<int64_t> Syscalls::Seek(int fd, int64_t offset) {
  return kernel().SysSeek(process_, fd, offset);
}
Result<int64_t> Syscalls::FileSize(int fd) { return kernel().SysFileSize(process_, fd); }
Result<ByteRange> Syscalls::Lock(int fd, int64_t length, LockOp op, LockFlags flags) {
  return kernel().SysLock(process_, fd, length, op, flags);
}
Err Syscalls::CommitFile(int fd) { return kernel().SysCommitFile(process_, fd); }
Err Syscalls::Truncate(int fd, int64_t size) {
  return kernel().SysTruncate(process_, fd, size);
}
Result<std::vector<std::string>> Syscalls::ReadDir(const std::string& path) {
  return kernel().SysReadDir(process_, path);
}

Result<std::vector<ReplicaStatusEntry>> Syscalls::ReplicaStatus(const std::string& path) {
  return kernel().SysReplicaStatus(process_, path);
}

Err Syscalls::BeginTrans() { return kernel().SysBeginTrans(process_); }
Err Syscalls::EndTrans() { return kernel().SysEndTrans(process_); }
Err Syscalls::AbortTrans() { return kernel().SysAbortTrans(process_); }

Result<Pid> Syscalls::Fork(SiteId site, std::function<void(Syscalls&)> body) {
  System* system = system_;
  return kernel().SysFork(process_, site, [system, body = std::move(body)](OsProcess* p) {
    Syscalls sys(system, p);
    body(sys);
  });
}
void Syscalls::WaitChildren() { kernel().SysWaitChildren(process_); }
Err Syscalls::Migrate(SiteId to) { return kernel().SysMigrate(process_, to); }

void Syscalls::Compute(SimTime duration) { system_->sim().Sleep(duration); }

}  // namespace locus
