// Wire names for the kernel protocol's message types. Registered with the
// network layer (RegisterMessageTypeNamer) so Message::As mismatch aborts and
// unhandled-message traces identify messages by name instead of raw number.
// locus_analyze's non-exhaustive-switch check verifies every MsgType
// enumerator has a case here.

#include "src/locus/messages.h"

#include "src/net/network.h"

namespace locus {

const char* MsgTypeName(int32_t type) {
  switch (static_cast<MsgType>(type)) {
    case kOpenReq:
      return "open-req";
    case kReadReq:
      return "read-req";
    case kWriteReq:
      return "write-req";
    case kLockReq:
      return "lock-req";
    case kUnlockReq:
      return "unlock-req";
    case kCommitFileReq:
      return "commit-file-req";
    case kReleaseProcessReq:
      return "release-process-req";
    case kPrepareReq:
      return "prepare-req";
    case kCommitTxnReq:
      return "commit-txn-req";
    case kAbortTxnAtSiteReq:
      return "abort-txn-at-site-req";
    case kMemberJoinReq:
      return "member-join-req";
    case kMergeFileListReq:
      return "merge-file-list-req";
    case kAbortTxnRouteReq:
      return "abort-txn-route-req";
    case kKillProcessReq:
      return "kill-process-req";
    case kReplicaPropagate:
      return "replica-propagate";
    case kCreateFileReq:
      return "create-file-req";
    case kRemoveFileReq:
      return "remove-file-req";
    case kTxnStatusReq:
      return "txn-status-req";
    case kReleasePrimaryReq:
      return "release-primary-req";
    case kTruncateReq:
      return "truncate-req";
    case kReplicaVersionReq:
      return "replica-version-req";
    case kReplicaFetchReq:
      return "replica-fetch-req";
    case kDeadlockReport:
      return "deadlock-report";
    case kFormBatch:
      return "form-batch";
  }
  return "?";
}

void RegisterMessageNames() { RegisterMessageTypeNamer(&MsgTypeName); }

}  // namespace locus
