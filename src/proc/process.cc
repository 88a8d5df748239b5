#include "src/proc/process.h"

namespace locus {

void ProcessTable::Add(std::unique_ptr<OsProcess> process) {
  Pid pid = process->pid;
  forwarding_.erase(pid);  // The process is here now; drop any stale pointer.
  table_[pid] = std::move(process);
}

std::unique_ptr<OsProcess> ProcessTable::Take(Pid pid) {
  auto it = table_.find(pid);
  if (it == table_.end()) {
    return nullptr;
  }
  std::unique_ptr<OsProcess> p = std::move(it->second);
  table_.erase(it);
  return p;
}

OsProcess* ProcessTable::Find(Pid pid) {
  auto it = table_.find(pid);
  return it == table_.end() ? nullptr : it->second.get();
}

SiteId ProcessTable::ForwardingFor(Pid pid) const {
  auto it = forwarding_.find(pid);
  return it == forwarding_.end() ? kNoSite : it->second;
}

std::vector<OsProcess*> ProcessTable::All() {
  std::vector<OsProcess*> out;
  out.reserve(table_.size());
  for (auto& [pid, p] : table_) {
    out.push_back(p.get());
  }
  return out;
}

}  // namespace locus
