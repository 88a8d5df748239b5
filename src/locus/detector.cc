#include "src/locus/detector.h"

#include <algorithm>

#include "src/locus/system.h"

namespace locus {

DeadlockDetector::DeadlockDetector(System* system)
    : system_(system), rounds_wake_(&system->sim()) {
  for (SiteId s = 0; s < system_->site_count(); ++s) {
    sites_.push_back(std::make_unique<Site>(&sim()));
    reported_at_.push_back(kNotReporting);
    system_->kernel(s).lock_manager().set_wait_hook(
        [this, s](uint64_t seq, bool cross_site) { OnWait(s, seq, cross_site); });
    Network& net = system_->net();
    net.RegisterHandler(s, kWaitEdgesReq, [this, s](SiteId, const Message&, Responder r) {
      if (system_->kernel(s).alive() && r.valid()) {
        r(MakeMsg(kWaitEdgesReq, AnswerPoll(s)));
      }
    });
    net.RegisterHandler(s, kDeadlockReport, [this, s](SiteId from, const Message&, Responder) {
      if (running_ && s == site_ && system_->kernel(s).alive()) {
        reported_at_[from] = sim().Now();
        rounds_wake_.NotifyAll();
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
  std::fill(reported_at_.begin(), reported_at_.end(), kNotReporting);
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
    std::fill(reported_at_.begin(), reported_at_.end(), kNotReporting);
    SpawnRounds();
  }
}

void DeadlockDetector::ResetSite(SiteId s) {
  Site& d = *sites_[s];
  sim().Cancel(d.timer);
  d.timer = {};
  d.reported = false;
  d.heard_at = 0;
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
  // Reported: look again once two periods pass without a poll. Otherwise
  // when the oldest marked request ages.
  SimTime at = d.reported ? d.heard_at + 2 * period_ : d.cross_waits.front().first;
  d.timer = sim().ScheduleAt(at, [this, s] {
    sites_[s]->timer = {};
    sites_[s]->wake.NotifyAll();
  });
}

void DeadlockDetector::Report(SiteId s) {
  Site& d = *sites_[s];
  d.reported = true;
  d.heard_at = sim().Now();
  system_->stats().Add(ids_.reports);
  if (s == site_) {
    reported_at_[s] = sim().Now();
    rounds_wake_.NotifyAll();
  } else {
    system_->net().Send(s, site_, MakeMsg(kDeadlockReport, 0));
  }
}

WaitEdgesReply DeadlockDetector::AnswerPoll(SiteId s) {
  WaitEdgesReply reply{system_->kernel(s).LocalWaitEdges(), HasAgedWait(s)};
  Site& d = *sites_[s];
  d.reported = reply.aged;
  d.heard_at = sim().Now();
  ArmTimer(s);
  return reply;
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
    bool aged = HasAgedWait(s);
    if (d.reported && sim().Now() - d.heard_at >= 2 * period_) {
      d.reported = false;  // Unpolled for two periods: the report was lost.
    }
    if (aged && !d.reported) {
      Report(s);
    }
    ArmTimer(s);
    d.wake.WaitIdle();
  }
}

void DeadlockDetector::RunRounds(SiteId site, uint64_t generation) {
  Kernel& kernel = system_->kernel(site);
  Network& net = system_->net();
  while (Live(generation)) {
    if (std::all_of(reported_at_.begin(), reported_at_.end(),
                    [](SimTime t) { return t == kNotReporting; })) {
      rounds_wake_.WaitIdle();
      continue;
    }
    if (sim().Now() < last_round_ + period_) {
      sim().Sleep(last_round_ + period_ - sim().Now());
      continue;
    }
    system_->stats().Add(ids_.rounds);
    WaitForGraph graph;
    for (SiteId s = 0; s < system_->site_count(); ++s) {
      if (reported_at_[s] == kNotReporting) {
        continue;
      }
      SimTime asked_at = sim().Now();
      WaitEdgesReply reply;
      if (s == site) {
        reply = AnswerPoll(s);
      } else if (net.Reachable(site, s)) {
        RpcResult res = net.Call(site, s, MakeMsg(kWaitEdgesReq, 0));
        if (!Live(generation)) {
          return;
        }
        if (res.ok) {
          reply = res.reply.As<WaitEdgesReply>();
        }
      }
      graph.AddEdges(reply.edges);
      // A report that arrived while the poll was out keeps the site polled.
      if (!reply.aged && reported_at_[s] < asked_at) {
        reported_at_[s] = kNotReporting;
      }
    }
    AbortVictims(kernel, graph, &routed_, /*local=*/false);
    last_round_ = sim().Now();
  }
}

void DeadlockDetector::AbortVictims(Kernel& kernel, const WaitForGraph& graph,
                                    std::vector<RoutedVictim>* routed, bool local) {
  std::erase_if(*routed,
                [this](const RoutedVictim& v) { return sim().Now() - v.at >= period_; });
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
