// User-level deadlock detection (section 3.1), event-driven in two tiers.
//
// The kernel does not detect deadlock. Each site's lock manager exports its
// wait-for edges and signals when a request queues, and the requesting
// kernel marks a request cross-site when its owner may hold locks at another
// site. The system processes here find the cycles and abort victims, the
// youngest transaction of each cycle:
//
// - Tier 1, at every site. The lock manager's signal wakes the site's
//   detector, which searches that site's edges at once and aborts victims
//   through RouteAbort (locally when the victim's home is that site). A
//   site-local deadlock breaks the moment it forms, and costs no message.
// - Tier 2, across sites. While a site has a marked request queued longer
//   than `period`, it sends its wait-for edges to the detector site once per
//   period. A report wakes a round there, at most one per period, which
//   searches the union of each site's latest report from the last two
//   periods. Each such site costs one message per period.
//
// Tier 2 misses no cross-site cycle. Cut it into runs of edges at one site:
// the first edge of each run has a waiter holding a lock at the previous
// run's site, so that request is marked (marking errs towards true) and stays
// queued while the cycle lasts. Its site sends the cycle's edges every
// period, so the first round after the last such request ages sees the whole
// cycle. Under strict 2PL an edge stays true until its holder or waiter ends,
// so edges up to two periods old make no phantom cycle except around aborts,
// which the victim skip covers. A single-site cycle closes when a request
// queues, which tier 1 sees, unless a transaction gets a lock while another
// of its processes waits there; that waiter is marked (a transaction with
// several processes always is), so tier 2 finds the cycle.

#ifndef SRC_LOCUS_DETECTOR_H_
#define SRC_LOCUS_DETECTOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/ids.h"
#include "src/lock/deadlock.h"
#include "src/locus/messages.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"

namespace locus {

class Kernel;
class System;

class DeadlockDetector {
 public:
  // Hooks every site's lock manager and detector messages; nothing runs
  // until Start.
  explicit DeadlockDetector(System* system);
  // Lock-manager hooks and message handlers hold its address.
  DeadlockDetector(const DeadlockDetector&) = delete;
  DeadlockDetector& operator=(const DeadlockDetector&) = delete;

  // (Re)starts detection, with the tier-2 rounds at `site`.
  void Start(SiteId site, SimTime period);
  // Stops detection; the parked detector processes exit.
  void Stop();
  // A rebooted site lost its lock table and its detector processes: they
  // start afresh.
  void OnReboot(SiteId site);

 private:
  struct RoutedVictim {
    TxnId txn;
    SimTime at;
  };
  // One site's detector: tier 1, and the site's side of tier 2.
  struct Site {
    explicit Site(Simulation* sim) : wake(sim) {}
    WaitQueue wake;      // Parks the site's detector process.
    bool dirty = false;  // The edges may have grown since the last search.
    // Marked requests queued here: (time it ages, lock-manager seq), in
    // queue order and so in time order.
    std::deque<std::pair<SimTime, uint64_t>> cross_waits;
    EventId timer;             // Wakes the process when it may report.
    SimTime next_report = 0;   // A period after the last report.
    std::vector<RoutedVictim> routed;
  };
  // A site's latest report, as the detector site received it.
  struct Report {
    SimTime at = 0;
    std::vector<WaitEdge> edges;
  };

  Simulation& sim();
  bool Live(uint64_t generation) const { return running_ && generation == generation_; }
  void ResetSite(SiteId s);
  void SpawnSite(SiteId s);
  void SpawnRounds();
  void RunSite(SiteId s, uint64_t generation);
  void RunRounds(SiteId site, uint64_t generation);
  // Lock-manager signal (see LockManager::WaitHook).
  void OnWait(SiteId s, uint64_t seq, bool cross_site);
  // Drops entries no longer queued; true if a remaining one has aged.
  bool HasAgedWait(SiteId s);
  void ArmTimer(SiteId s);
  // Sends site s's edges to the detector site, which keeps them in reports_.
  void SendReport(SiteId s);
  void ReceiveReport(SiteId from, std::vector<WaitEdge> edges);
  // A victim is skipped for three periods after it is routed: one for its
  // abort to reach every site, two for the reports sent meanwhile to expire.
  static constexpr int kVictimSkipPeriods = 3;
  // Aborts one victim per cycle, skipping those routed recently.
  void AbortVictims(Kernel& kernel, const WaitForGraph& graph,
                    std::vector<RoutedVictim>* routed, bool local);

  System* system_;
  bool running_ = false;
  uint64_t generation_ = 0;
  SiteId site_ = kNoSite;
  SimTime period_ = 0;
  std::vector<std::unique_ptr<Site>> sites_;
  // The tier-2 rounds at site_.
  WaitQueue rounds_wake_;
  std::vector<Report> reports_;  // By reporting site.
  bool new_report_ = false;      // A report arrived since the last round.
  SimTime last_round_ = 0;       // When the last round ended.
  std::vector<RoutedVictim> routed_;
  struct Ids {
    StatRegistry::StatId victims;
    StatRegistry::StatId local_victims;
    StatRegistry::StatId reports;
    StatRegistry::StatId rounds;
  };
  Ids ids_{};
};

}  // namespace locus

#endif  // SRC_LOCUS_DETECTOR_H_
