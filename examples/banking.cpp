// Banking: concurrent debit/credit transactions across sites, with the
// deadlock detector breaking lock cycles and victims retrying.
//
// This is the workload class the paper's introduction motivates: a
// database-style application built directly on the operating system's
// transaction facility. Accounts are fixed-width records in per-branch
// files; a transfer locks both records exclusively (two-phase), moves the
// money, and commits through the distributed two-phase commit. Because
// transfers lock account pairs in opposite orders, deadlocks happen and are
// resolved by the user-level detector (section 3.1): victims simply retry.
//
// The invariant checked at the end: total money is conserved, no matter how
// the transfers interleave, wait, or get aborted and retried. The run ends
// when the audit does; it exits nonzero when money was not conserved or a
// process was left blocked (a deadlock the detector missed).

#include <cstdio>
#include <string>
#include <vector>

#include "src/locus/system.h"

using namespace locus;

namespace {

constexpr int kBranches = 3;           // One account file per site.
constexpr int kAccountsPerBranch = 3;  // Few accounts: heavy contention.
constexpr int kRecordBytes = 16;       // Fixed-width decimal balance record.
constexpr int64_t kInitialBalance = 1000;
constexpr int kTellers = 6;
constexpr int kTransfersPerTeller = 10;

std::string BranchPath(int branch) { return "/bank/branch" + std::to_string(branch); }

std::string FormatBalance(int64_t value) {
  char buffer[kRecordBytes + 1];
  snprintf(buffer, sizeof(buffer), "%015lld\n", static_cast<long long>(value));
  return std::string(buffer, kRecordBytes);
}

int64_t ParseBalance(const std::vector<uint8_t>& bytes) {
  return std::stoll(std::string(bytes.begin(), bytes.end()));
}

// Reads, locks and returns one account's balance within the current
// transaction. Returns false on lock failure (deadlock-victim abort).
bool LockAndRead(Syscalls& sys, int fd, int account, int64_t* balance) {
  sys.Seek(fd, account * kRecordBytes);
  if (sys.Lock(fd, kRecordBytes, LockOp::kExclusive).err != Err::kOk) {
    return false;
  }
  auto data = sys.Read(fd, kRecordBytes);
  if (!data.ok()) {
    return false;
  }
  *balance = ParseBalance(data.value);
  return true;
}

bool WriteBalance(Syscalls& sys, int fd, int account, int64_t balance) {
  sys.Seek(fd, account * kRecordBytes);
  std::string record = FormatBalance(balance);
  return sys.Write(fd, std::vector<uint8_t>(record.begin(), record.end())) == Err::kOk;
}

// One money transfer as a transaction; returns true if committed.
bool Transfer(Syscalls& sys, int from_branch, int from_acct, int to_branch, int to_acct,
              int64_t amount) {
  if (sys.BeginTrans() != Err::kOk) {
    return false;
  }
  auto from_fd = sys.Open(BranchPath(from_branch), {.read = true, .write = true});
  auto to_fd = sys.Open(BranchPath(to_branch), {.read = true, .write = true});
  bool ok = from_fd.ok() && to_fd.ok();
  int64_t from_balance = 0;
  int64_t to_balance = 0;
  ok = ok && LockAndRead(sys, from_fd.value, from_acct, &from_balance);
  // "Think time" while holding the first lock — widens the window in which
  // opposite-order transfers deadlock, so the detector has work to do.
  sys.Compute(Milliseconds(30));
  ok = ok && LockAndRead(sys, to_fd.value, to_acct, &to_balance);
  ok = ok && from_balance >= amount;
  ok = ok && WriteBalance(sys, from_fd.value, from_acct, from_balance - amount);
  ok = ok && WriteBalance(sys, to_fd.value, to_acct, to_balance + amount);
  if (from_fd.ok()) {
    sys.Close(from_fd.value);
  }
  if (to_fd.ok()) {
    sys.Close(to_fd.value);
  }
  if (!ok) {
    if (sys.InTransaction()) {
      sys.AbortTrans();
    }
    return false;
  }
  return sys.EndTrans() == Err::kOk;
}

}  // namespace

int main() {
  System system(kBranches);
  int committed = 0;
  int retried = 0;
  bool audited = false;
  bool conserved = false;

  system.Spawn(0, "bank-setup", [&](Syscalls& sys) {
    sys.Mkdir("/bank");
    // One branch file per site, populated with initial balances.
    for (int b = 0; b < kBranches; ++b) {
      sys.Fork(b, [b](Syscalls& child) {
        child.Creat(BranchPath(b));
        auto fd = child.Open(BranchPath(b), {.read = true, .write = true});
        for (int a = 0; a < kAccountsPerBranch; ++a) {
          child.WriteString(fd.value, FormatBalance(kInitialBalance));
        }
        child.Close(fd.value);
      });
    }
    sys.WaitChildren();

    // Tellers at every site run randomized transfers concurrently.
    for (int t = 0; t < kTellers; ++t) {
      sys.Fork(t % kBranches, [&, t](Syscalls& teller) {
        Rng rng(1000 + t);
        for (int i = 0; i < kTransfersPerTeller; ++i) {
          int from_branch = static_cast<int>(rng.Below(kBranches));
          int to_branch = static_cast<int>(rng.Below(kBranches));
          int from_acct = static_cast<int>(rng.Below(kAccountsPerBranch));
          int to_acct = static_cast<int>(rng.Below(kAccountsPerBranch));
          if (from_branch == to_branch && from_acct == to_acct) {
            continue;
          }
          int64_t amount = rng.Range(1, 50);
          // Retry on deadlock-victim abort, like a real TP monitor would.
          for (int attempt = 0; attempt < 5; ++attempt) {
            if (Transfer(teller, from_branch, from_acct, to_branch, to_acct, amount)) {
              ++committed;
              break;
            }
            ++retried;
            teller.Compute(Milliseconds(20 * (attempt + 1)));
          }
        }
      });
    }
    sys.WaitChildren();

    // Audit: read every balance and check conservation.
    sys.Compute(Seconds(2));  // Let phase-two lock releases drain.
    int64_t total = 0;
    for (int b = 0; b < kBranches; ++b) {
      auto fd = sys.Open(BranchPath(b), {});
      for (int a = 0; a < kAccountsPerBranch; ++a) {
        auto data = sys.Read(fd.value, kRecordBytes);
        if (data.ok()) {
          total += ParseBalance(data.value);
        }
      }
      sys.Close(fd.value);
    }
    int64_t expected = static_cast<int64_t>(kBranches) * kAccountsPerBranch * kInitialBalance;
    audited = true;
    conserved = total == expected;
    printf("audit: total=%lld expected=%lld -> %s\n", static_cast<long long>(total),
           static_cast<long long>(expected), conserved ? "CONSERVED" : "LOST MONEY");
  });

  // Runs until the audit is done. The cap only ends a run that a missed
  // deadlock keeps from finishing.
  system.StartDeadlockDetector(0, Milliseconds(150));
  while (!audited && system.sim().Now() < Seconds(600)) {
    system.RunFor(Seconds(1));
  }
  system.StopDaemons();
  system.Run();

  int blocked = system.sim().blocked_process_count();
  if (blocked > 0) {
    printf("ERROR: %d processes still blocked\n", blocked);
    system.sim().DumpProcesses();
  }
  printf("transfers committed: %d, retries after abort/conflict: %d\n", committed, retried);
  printf("deadlock victims chosen by detector: %lld\n",
         static_cast<long long>(system.stats().Get("deadlock.victims")));
  printf("transactions committed (system-wide): %lld, aborted: %lld\n",
         static_cast<long long>(system.stats().Get("txn.committed")),
         static_cast<long long>(system.stats().Get("txn.aborted")));
  return conserved && blocked == 0 ? 0 : 1;
}
