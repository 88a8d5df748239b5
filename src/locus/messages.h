// Kernel-to-kernel message types and payloads (the "lightweight network
// protocols" of the paper).

#ifndef SRC_LOCUS_MESSAGES_H_
#define SRC_LOCUS_MESSAGES_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/ids.h"
#include "src/fs/intentions.h"
#include "src/lock/lock_list.h"
#include "src/lock/lock_manager.h"
#include "src/locus/errors.h"
#include "src/net/network.h"
#include "src/proc/process.h"
#include "src/storage/disk.h"
#include "src/storage/volume.h"

namespace locus {

enum MsgType : int32_t {
  kOpenReq = 1,
  kReadReq,
  kWriteReq,
  kLockReq,
  kUnlockReq,
  kCommitFileReq,
  kReleaseProcessReq,
  // Two-phase commit (section 4.2).
  kPrepareReq,
  kCommitTxnReq,
  kAbortTxnAtSiteReq,
  // Transaction control plane.
  kMemberJoinReq,
  kMergeFileListReq,
  kAbortTxnRouteReq,
  kKillProcessReq,
  // Replication (section 5.2).
  kReplicaPropagate,
  // Remote file lifecycle. 16 was the retired deadlock-detector poll; the
  // types after it keep their numbers.
  kCreateFileReq = 17,
  kRemoveFileReq,
  // Participant recovery: ask the coordinator for a transaction's outcome
  // (presumed abort when no coordinator log exists).
  kTxnStatusReq,
  // Hint to a (possibly former) primary update site that the last update
  // open closed, so it may release the primary designation once idle.
  kReleasePrimaryReq,
  // Immediate durable truncation at the storage site.
  kTruncateReq,
  // Replica reintegration (src/recon): version probe and committed-image
  // fetch used to bring a behind replica back to currency.
  kReplicaVersionReq,
  kReplicaFetchReq,
  // Deadlock detection (section 3.1): a site's wait-for edges, pushed to the
  // detector site once per period while it has an aged cross-site wait.
  kDeadlockReport,
  // Formation batch envelope (src/form): several coalesced protocol messages
  // to one destination in one wire message. Pinned to a value well above the
  // dense range so new message types never collide with it; must match
  // kFormBatchMsgType (static_assert in kernel.cc).
  kFormBatch = 64,
};
static_assert(kReplicaPropagate == 15 && kDeadlockReport == 24,
              "message types keep their wire numbers");

// Wire size of a control message (header plus a small payload); data-bearing
// messages add their byte count to it.
inline constexpr int32_t kControlMsgBytes = 96;

template <typename T>
Message MakeMsg(MsgType type, T payload, int32_t size_bytes = kControlMsgBytes) {
  Message m;
  m.type = type;
  m.size_bytes = size_bytes;
  m.payload = std::move(payload);
  return m;
}

struct OpenRequest {
  FileId file;
};
struct OpenReply {
  Err err = Err::kOk;
  int64_t size = 0;
};

struct ReadRequest {
  FileId file;
  ByteRange range;
  LockOwner owner;
};
struct ReadReply {
  Err err = Err::kOk;
  std::vector<uint8_t> bytes;
};

struct WriteRequest {
  FileId file;
  int64_t offset = 0;
  std::vector<uint8_t> bytes;
  LockOwner owner;
};
struct WriteReply {
  Err err = Err::kOk;
  int64_t new_size = 0;
};

struct LockRequest {
  FileId file;
  ByteRange range;      // For append-mode requests, range.start is ignored.
  LockOwner owner;
  LockMode mode = LockMode::kShared;
  bool non_transaction = false;
  bool wait = true;
  bool append = false;  // Lock-and-extend: range computed at end of file.
  // Section 4.3: "the page arrives with the lock grant". When positive, the
  // storage site ships up to this many bytes from the granted range's start
  // in the reply, saving the follow-up read exchange. Requesters only set
  // this when formation is on (the fused reply rides a batch envelope).
  int64_t fetch_bytes = 0;
  // Deadlock detection (section 3.1): the owner may hold locks at a site
  // other than the storage site, so a wait on this request may be part of a
  // cross-site cycle. Set by the requesting kernel; unsure means true.
  bool cross_site = false;
};
struct LockReply {
  Err err = Err::kOk;
  ByteRange granted;    // Actual range (meaningful for append-mode).
  bool fetched = false;          // bytes below are valid (fetch_bytes > 0).
  std::vector<uint8_t> bytes;    // Data shipped with the grant.
};

struct UnlockRequest {
  FileId file;
  ByteRange range;
  LockOwner owner;
};

struct CommitFileRequest {
  FileId file;
  LockOwner owner;
};

struct ReleaseProcessRequest {
  Pid pid;
};

struct PrepareRequest {
  TxnId txn;
  SiteId coordinator = kNoSite;
  std::vector<FileId> files;
};
struct PrepareReply {
  Err err = Err::kOk;
};

struct CommitTxnRequest {
  TxnId txn;
};
struct AbortTxnAtSiteRequest {
  TxnId txn;
};

struct MemberJoinRequest {
  TxnId txn;
  Pid member = kNoPid;
  SiteId member_site = kNoSite;
};
struct MemberJoinReply {
  Err err = Err::kOk;     // kBusy if the top-level process is in transit.
  SiteId forward = kNoSite;  // Better site to retry at.
};

struct MergeFileListRequest {
  TxnId txn;
  Pid exiting_member = kNoPid;
  std::vector<UsedFile> files;
};
struct MergeFileListReply {
  Err err = Err::kOk;     // kBusy if in transit: retry (section 4.1 race).
  SiteId forward = kNoSite;
};

struct AbortTxnRouteRequest {
  TxnId txn;
  std::string reason;
};
struct AbortTxnRouteReply {
  Err err = Err::kOk;
  SiteId forward = kNoSite;
};

struct KillProcessRequest {
  Pid pid;
  TxnId txn;  // Kill only if still a member of this transaction.
};

struct ReplicaPropagateMsg {
  FileId replica_file;  // The inode on the receiving site's volume.
  int64_t new_size = 0;
  // The primary's replication ordinal after this commit. The replica applies
  // only the next-in-sequence propagation (local + 1); a duplicate is dropped
  // and a gap quarantines the replica until reintegration catches it up.
  // 0 means unversioned (pre-reintegration senders); applied unconditionally.
  uint64_t commit_version = 0;
  // slot -> shared page image: one copy of the bytes feeds every replica's
  // message (the simulated wire size is still accounted per message).
  std::vector<std::pair<int32_t, PageRef>> pages;
};

struct DeadlockReport {
  std::vector<WaitEdge> edges;
};

struct CreateFileRequest {
  VolumeId volume = kNoVolume;  // kNoVolume = the site's root volume.
};
struct CreateFileReply {
  Err err = Err::kOk;
  FileId file;
};

struct RemoveFileRequest {
  FileId file;
};

struct ReleasePrimaryRequest {
  FileId file;
};

struct TruncateRequest {
  FileId file;
  int64_t size = 0;
};

struct TxnStatusRequest {
  TxnId txn;
};
struct TxnStatusReply {
  int status = 0;  // Cast of TxnStatus; kAborted when no log exists.
};

// Stable wire name of a MsgType ("commit-txn-req"); "?" for unknown values.
// Defined in messages.cc; locus_analyze's switch check keeps it exhaustive.
const char* MsgTypeName(int32_t type);
// Installs MsgTypeName as the network layer's message-type namer
// (idempotent; every Kernel construction calls it).
void RegisterMessageNames();

}  // namespace locus

#endif  // SRC_LOCUS_MESSAGES_H_
