#include "src/locus/detector.h"

#include <algorithm>
#include <utility>

#include "src/locus/system.h"

namespace locus {

DeadlockDetector::DeadlockDetector(System* system)
    : system_(system), rounds_wake_(&system->sim()) {
  for (SiteId s = 0; s < system_->site_count(); ++s) {
    sites_.push_back(std::make_unique<Site>(&sim()));
    system_->kernel(s).lock_manager().set_wait_hook(
        [this, s](uint64_t seq, bool cross_site) { OnWait(s, seq, cross_site); });
    RegisterMsgHandler<kDeadlockReport>(
        system_->net(), s, [this, s](SiteId from, const auto& report, Responder) {
          if (running_ && s == site_ && system_->kernel(s).alive()) {
            ReceiveReport(from, report.edges);
          }
        });
  }
}

Simulation& DeadlockDetector::sim() { return system_->sim(); }

void DeadlockDetector::Start(SiteId site, SimTime period) {
  Stop();
  ids_ = Ids{system_->stats().Intern("deadlock.victims"),
             system_->stats().Intern("deadlock.local_victims"),
             system_->stats().Intern("deadlock.reports"),
             system_->stats().Intern("deadlock.rounds")};
  running_ = true;
  site_ = site;
  period_ = period;
  for (SiteId s = 0; s < system_->site_count(); ++s) {
    ResetSite(s);
    SpawnSite(s);
  }
  SpawnRounds();
}

void DeadlockDetector::Stop() {
  running_ = false;
  ++generation_;
  for (auto& site : sites_) {
    sim().Cancel(site->timer);
    site->timer = {};
    site->wake.NotifyAll();
  }
  rounds_wake_.NotifyAll();
}

void DeadlockDetector::OnReboot(SiteId site) {
  if (!running_) {
    return;
  }
  ResetSite(site);
  SpawnSite(site);
  if (site == site_) {
    SpawnRounds();
  }
}

void DeadlockDetector::ResetSite(SiteId s) {
  Site& d = *sites_[s];
  sim().Cancel(d.timer);
  d.timer = {};
  d.next_report = 0;
  d.routed.clear();
  // Requests already queued are searched now and age from now.
  d.dirty = true;
  d.cross_waits.clear();
  for (uint64_t seq : system_->kernel(s).lock_manager().CrossSiteWaits()) {
    d.cross_waits.push_back({sim().Now() + period_, seq});
  }
}

void DeadlockDetector::SpawnSite(SiteId s) {
  if (!system_->net().IsAlive(s)) {
    return;  // Started by OnReboot.
  }
  system_->kernel(s).SpawnKernelProcess(
      "deadlock-detector", [this, s, generation = generation_] { RunSite(s, generation); });
}

void DeadlockDetector::SpawnRounds() {
  reports_.assign(sites_.size(), Report{});
  new_report_ = false;
  if (!system_->net().IsAlive(site_)) {
    return;  // Restarted by OnReboot.
  }
  last_round_ = sim().Now() - period_;
  routed_.clear();
  system_->kernel(site_).SpawnKernelProcess(
      "deadlock-rounds",
      [this, site = site_, generation = generation_] { RunRounds(site, generation); });
}

void DeadlockDetector::OnWait(SiteId s, uint64_t seq, bool cross_site) {
  if (!running_) {
    return;
  }
  Site& d = *sites_[s];
  if (cross_site) {
    d.cross_waits.push_back({sim().Now() + period_, seq});
  }
  d.dirty = true;
  d.wake.NotifyAll();
}

bool DeadlockDetector::HasAgedWait(SiteId s) {
  Site& d = *sites_[s];
  const LockManager& locks = system_->kernel(s).lock_manager();
  std::erase_if(d.cross_waits, [&locks](const auto& w) { return !locks.IsQueued(w.second); });
  return !d.cross_waits.empty() && d.cross_waits.front().first <= sim().Now();
}

void DeadlockDetector::ArmTimer(SiteId s) {
  Site& d = *sites_[s];
  sim().Cancel(d.timer);
  d.timer = {};
  if (!running_ || d.cross_waits.empty()) {
    return;
  }
  // When the oldest marked request ages, but at most once per period.
  d.timer = sim().ScheduleAt(std::max(d.cross_waits.front().first, d.next_report), [this, s] {
    sites_[s]->timer = {};
    sites_[s]->wake.NotifyAll();
  });
}

void DeadlockDetector::SendReport(SiteId s) {
  sites_[s]->next_report = sim().Now() + period_;
  system_->stats().Add(ids_.reports);
  std::vector<WaitEdge> edges = system_->kernel(s).LocalWaitEdges();
  if (s == site_) {
    ReceiveReport(s, std::move(edges));
  } else {
    system_->net().Send(s, site_, MakeMsg<kDeadlockReport>(DeadlockReport{std::move(edges)}));
  }
}

void DeadlockDetector::ReceiveReport(SiteId from, std::vector<WaitEdge> edges) {
  reports_[from] = Report{sim().Now(), std::move(edges)};
  new_report_ = true;
  rounds_wake_.NotifyAll();
}

void DeadlockDetector::RunSite(SiteId s, uint64_t generation) {
  Site& d = *sites_[s];
  Kernel& kernel = system_->kernel(s);
  while (Live(generation)) {
    if (d.dirty) {
      d.dirty = false;
      WaitForGraph graph;
      graph.AddEdges(kernel.LocalWaitEdges());
      AbortVictims(kernel, graph, &d.routed, /*local=*/true);
      continue;
    }
    if (HasAgedWait(s) && sim().Now() >= d.next_report) {
      SendReport(s);
    }
    ArmTimer(s);
    d.wake.WaitIdle();
  }
}

void DeadlockDetector::RunRounds(SiteId site, uint64_t generation) {
  Kernel& kernel = system_->kernel(site);
  while (Live(generation)) {
    if (!new_report_) {
      rounds_wake_.WaitIdle();
      continue;
    }
    if (sim().Now() < last_round_ + period_) {
      sim().Sleep(last_round_ + period_ - sim().Now());
      continue;
    }
    new_report_ = false;
    system_->stats().Add(ids_.rounds);
    WaitForGraph graph;
    for (const Report& report : reports_) {
      if (sim().Now() - report.at < 2 * period_) {
        graph.AddEdges(report.edges);
      }
    }
    AbortVictims(kernel, graph, &routed_, /*local=*/false);
    last_round_ = sim().Now();
  }
}

void DeadlockDetector::AbortVictims(Kernel& kernel, const WaitForGraph& graph,
                                    std::vector<RoutedVictim>* routed, bool local) {
  SimTime skip = kVictimSkipPeriods * period_;
  std::erase_if(*routed,
                [this, skip](const RoutedVictim& v) { return sim().Now() - v.at >= skip; });
  for (const LockOwner& victim : graph.SelectVictims()) {
    if (!victim.txn.valid() ||
        std::any_of(routed->begin(), routed->end(),
                    [&victim](const RoutedVictim& v) { return v.txn == victim.txn; })) {
      continue;
    }
    routed->push_back({victim.txn, sim().Now()});
    system_->stats().Add(ids_.victims);
    if (local) {
      system_->stats().Add(ids_.local_victims);
    }
    system_->trace().Log(sim().Now(), "detector", "aborting deadlock victim %s",
                         ToString(victim.txn).c_str());
    kernel.RouteAbort(victim.txn, "deadlock victim");
  }
}

}  // namespace locus
