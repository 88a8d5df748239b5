// Transaction log record types and the per-site transaction table.
//
// Section 4.2 describes three levels of logs: the coordinator log (one record
// per transaction at the coordinator site, carrying the participating files
// and the status marker whose transition to `committed` IS the commit point),
// the prepare logs at participant sites (intentions + lock information per
// volume), and the per-file shadow pages themselves. The first two are the
// record types here; shadow pages live in the FileStore. The volume's stable
// log stores these records typed (src/storage/volume.h), so this header needs
// only header-only types.

#ifndef SRC_TXN_TXN_TYPES_H_
#define SRC_TXN_TXN_TYPES_H_

#include <string>
#include <vector>

#include "src/base/ids.h"
#include "src/fs/intentions.h"

namespace locus {

enum class TxnStatus { kUnknown, kCommitted, kAborted };

// Coordinator log record (stable, one per transaction at the coordinator).
struct CoordinatorLogRecord {
  TxnId txn;
  TxnStatus status = TxnStatus::kUnknown;
  std::vector<UsedFile> files;
};

// Prepare log record (stable, one per volume per transaction at each
// participant site; the 1985 implementation wrote one per file — footnote 10
// — which the I/O-overhead experiment reproduces as a fidelity mode).
struct PrepareLogRecord {
  TxnId txn;
  SiteId coordinator = kNoSite;
  std::vector<IntentionsList> intentions;
};

// Volatile per-transaction state at the site currently hosting the top-level
// process (it migrates with that process).
struct TxnRecord {
  TxnId id;
  Pid top_pid = kNoPid;
  enum class Phase { kActive, kPreparing, kResolved } phase = Phase::kActive;
  bool abort_requested = false;
  // True while the coordinator's commit-mark log write is in flight — the
  // window between the final abort_requested check and the mark becoming
  // durable. An abort cascade must not tear down prepared intentions inside
  // this window (see Kernel::AbortTransactionLocal).
  bool commit_marking = false;
  std::string abort_reason;
  // Live member processes, including the top-level one. EndTrans blocks
  // until this drops to 1 (section 4.2: commit begins when all subprocesses
  // have completed).
  int active_members = 1;
  std::vector<UsedFile> files;
  // Live member processes (pid, last known site), for the abort cascade.
  std::vector<std::pair<Pid, SiteId>> members;
};

}  // namespace locus

#endif  // SRC_TXN_TXN_TYPES_H_
