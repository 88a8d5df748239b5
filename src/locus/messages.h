// Kernel-to-kernel message types and payloads (the "lightweight network
// protocols" of the paper).

#ifndef SRC_LOCUS_MESSAGES_H_
#define SRC_LOCUS_MESSAGES_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/ids.h"
#include "src/form/formation.h"
#include "src/fs/intentions.h"
#include "src/lock/lock_list.h"
#include "src/lock/lock_manager.h"
#include "src/locus/errors.h"
#include "src/net/network.h"
#include "src/proc/process.h"
#include "src/storage/disk.h"
#include "src/storage/volume.h"

namespace locus {

// The kernel protocol, declared once. One row per message:
//   X(enumerator, wire number, request payload, reply payload)
// The reply is `Err` where the handler answers with a bare error code and
// `void` for one-way messages. The rows generate the MsgType enum and the
// MsgSpec binding below, so MakeMsg / MakeReply / RequestOf / ReplyOf only
// compile with the payload struct the row names.
//
// To add a message, add a row with an unused number. Never renumber a row:
// EventInfo labels and the model checker's digests carry the number. 16 was
// the retired deadlock-detector poll.
#define LOCUS_MESSAGES(X)                                                 \
  X(kOpenReq, 1, OpenRequest, OpenReply)                                  \
  X(kReadReq, 2, ReadRequest, ReadReply)                                  \
  X(kWriteReq, 3, WriteRequest, WriteReply)                               \
  X(kLockReq, 4, LockRequest, LockReply)                                  \
  X(kUnlockReq, 5, UnlockRequest, Err)                                    \
  X(kCommitFileReq, 6, CommitFileRequest, Err)                            \
  X(kReleaseProcessReq, 7, ReleaseProcessRequest, Err)                    \
  /* Two-phase commit (section 4.2). */                                   \
  X(kPrepareReq, 8, PrepareRequest, PrepareReply)                         \
  X(kCommitTxnReq, 9, CommitTxnRequest, Err)                              \
  X(kAbortTxnAtSiteReq, 10, AbortTxnAtSiteRequest, Err)                   \
  /* Transaction control plane. */                                        \
  X(kMemberJoinReq, 11, MemberJoinRequest, MemberJoinReply)               \
  X(kMergeFileListReq, 12, MergeFileListRequest, MergeFileListReply)      \
  X(kAbortTxnRouteReq, 13, AbortTxnRouteRequest, AbortTxnRouteReply)      \
  X(kKillProcessReq, 14, KillProcessRequest, Err)                         \
  /* Replication (section 5.2). */                                        \
  X(kReplicaPropagate, 15, ReplicaPropagateMsg, void)                     \
  /* Remote file lifecycle. */                                            \
  X(kCreateFileReq, 17, CreateFileRequest, CreateFileReply)               \
  X(kRemoveFileReq, 18, RemoveFileRequest, Err)                           \
  /* Participant recovery: ask the coordinator for a transaction's       \
     outcome (presumed abort when no coordinator log exists). */          \
  X(kTxnStatusReq, 19, TxnStatusRequest, TxnStatusReply)                  \
  /* Hint to a (possibly former) primary update site that the last       \
     update open closed, so it may release the primary designation. */    \
  X(kReleasePrimaryReq, 20, ReleasePrimaryRequest, void)                  \
  /* Immediate durable truncation at the storage site. */                 \
  X(kTruncateReq, 21, TruncateRequest, Err)                               \
  /* Replica reintegration (src/recon): version probe and committed-     \
     image fetch that bring a behind replica back to currency. */         \
  X(kReplicaVersionReq, 22, ReplicaVersionRequest, ReplicaVersionReply)   \
  X(kReplicaFetchReq, 23, ReplicaFetchRequest, ReplicaFetchReply)         \
  /* Deadlock detection (section 3.1): a site's wait-for edges, pushed   \
     to the detector site once per period while it has an aged           \
     cross-site wait. */                                                  \
  X(kDeadlockReport, 24, DeadlockReport, void)

#define LOCUS_MSG_ENUMERATOR(name, number, Request, Reply) name = number,
enum MsgType : int32_t { LOCUS_MESSAGES(LOCUS_MSG_ENUMERATOR) };
#undef LOCUS_MSG_ENUMERATOR

// Never called: its duplicate case labels would not compile if two rows
// shared a number (the handler table is indexed by it).
#define LOCUS_MSG_CASE(name, number, Request, Reply) case name:
constexpr bool MsgNumbersDistinct(MsgType type) {
  switch (type) { LOCUS_MESSAGES(LOCUS_MSG_CASE) return true; }
  return false;
}
#undef LOCUS_MSG_CASE

// Wire size of a control message (header plus a small payload); data-bearing
// messages add their byte count to it.
inline constexpr int32_t kControlMsgBytes = 96;

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

// Creates a file on the receiving site's volume.
struct CreateFileRequest {};
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
  TxnStatus status = TxnStatus::kUnknown;  // kAborted when no log exists.
};

// kReplicaVersionReq: "what ordinal is your committed copy at?"
struct ReplicaVersionRequest {
  FileId file;  // The replica inode on the responding site's volume.
};
struct ReplicaVersionReply {
  Err err = Err::kOk;
  uint64_t commit_version = 0;
  int64_t committed_size = 0;
};

// kReplicaFetchReq: "ship me your whole committed image."
struct ReplicaFetchRequest {
  FileId file;
};
struct ReplicaFetchReply {
  Err err = Err::kOk;
  uint64_t commit_version = 0;
  int64_t committed_size = 0;
  // slot -> committed page image (shared refs; never working pages).
  std::vector<std::pair<int32_t, PageRef>> pages;
};

// Each row's payload types. Every number is checked against the formation
// envelope's, which shares the handler table.
template <MsgType kType>
struct MsgSpec;
#define LOCUS_MSG_SPEC(name, number, RequestType, ReplyType)                  \
  template <>                                                                 \
  struct MsgSpec<name> {                                                      \
    using Request = RequestType;                                              \
    using Reply = ReplyType;                                                  \
  };                                                                          \
  static_assert(number != kFormBatchMsgType, #name " takes the formation envelope's number");
LOCUS_MESSAGES(LOCUS_MSG_SPEC)
#undef LOCUS_MSG_SPEC

// A kType request carrying kType's request payload.
template <MsgType kType>
Message MakeMsg(typename MsgSpec<kType>::Request payload, int32_t size_bytes = kControlMsgBytes) {
  return Message{
      .type = kType, .size_bytes = size_bytes, .payload = std::move(payload), .vclock = {}};
}

// The reply to a kType request.
template <MsgType kType>
Message MakeReply(typename MsgSpec<kType>::Reply payload, int32_t size_bytes = kControlMsgBytes) {
  return Message{
      .type = kType, .size_bytes = size_bytes, .payload = std::move(payload), .vclock = {}};
}

// A handler's view of a delivered kType request.
template <MsgType kType>
const typename MsgSpec<kType>::Request& RequestOf(const Message& msg) {
  return msg.As<typename MsgSpec<kType>::Request>();
}

// A caller's view of the reply to its kType request (res.ok must hold).
template <MsgType kType>
const typename MsgSpec<kType>::Reply& ReplyOf(const RpcResult& res) {
  return res.reply.As<typename MsgSpec<kType>::Reply>();
}

// Registers fn(from, request, responder) as kType's handler at `site`.
template <MsgType kType, typename Fn>
void RegisterMsgHandler(Network& net, SiteId site, Fn fn) {
  net.RegisterHandler(site, kType,
                      [fn = std::move(fn)](SiteId from, const Message& m, Responder r) {
                        fn(from, RequestOf<kType>(m), r);
                      });
}

}  // namespace locus

#endif  // SRC_LOCUS_MESSAGES_H_
