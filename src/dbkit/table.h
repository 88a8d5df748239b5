// dbkit: database building blocks composed on the OS transaction facility.
//
// The paper's thesis (sections 1 and 8) is that once the operating system
// provides fine-grain synchronization and transactions, "applications such
// as database management systems" become straightforward compositions of
// those primitives. This library is that composition, written purely against
// the public Syscalls API:
//
//  - Table: fixed-width records in one file, each operation two-phase locked
//    at record granularity; inserts use the append-mode lock-and-extend of
//    section 3.2; everything nests inside a caller's transaction (section 2).
//  - HashIndex: a unique key -> row index as open-addressed buckets in a
//    file, updated transactionally with its table.
//  - SharedLog: a multi-writer append-only log (the section 3.2 use case for
//    atomic lock-and-extend), written under non-transaction locks so audit
//    records survive the writer's transaction outcome or escape it entirely.

#ifndef SRC_DBKIT_TABLE_H_
#define SRC_DBKIT_TABLE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/locus/system.h"

namespace locus {

class Table {
 public:
  // Creates the backing file (replicated if requested).
  static Err Create(Syscalls& sys, const std::string& path, int replication = 1);

  Table(Syscalls& sys, std::string path, int32_t record_bytes)
      : sys_(sys), path_(std::move(path)), record_bytes_(record_bytes) {}
  ~Table();
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  Err Open();
  void Close();
  int32_t record_bytes() const { return record_bytes_; }

  // Number of records (derived from the file size).
  Result<int64_t> Count();

  // Reads row `row` under a shared record lock (two-phase inside a caller's
  // transaction; plain enforced access otherwise).
  Result<std::vector<uint8_t>> Get(int64_t row);
  // Overwrites row `row` under an exclusive record lock.
  Err Update(int64_t row, const std::vector<uint8_t>& record);
  // Appends a record using atomic lock-and-extend; returns the new row id.
  Result<int64_t> Insert(const std::vector<uint8_t>& record);
  // Visits every row under shared locks; stop by returning false.
  Err Scan(const std::function<bool(int64_t, const std::vector<uint8_t>&)>& visit);

 private:
  Err LockRecord(int64_t row, LockOp op);

  Syscalls& sys_;
  std::string path_;
  int32_t record_bytes_;
  int fd_ = -1;
};

// A unique hash index: fixed-width keys to row numbers, stored as
// open-addressed slots in a file. Collision policy: linear probing; the
// table is sized at creation and does not grow.
class HashIndex {
 public:
  static constexpr int64_t kEmptyRow = -1;

  static Err Create(Syscalls& sys, const std::string& path, int32_t key_bytes,
                    int32_t buckets);

  HashIndex(Syscalls& sys, std::string path, int32_t key_bytes, int32_t buckets)
      : sys_(sys), path_(std::move(path)), key_bytes_(key_bytes), buckets_(buckets) {}
  ~HashIndex();
  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  Err Open();
  void Close();

  // Inserts key -> row; fails with kExists for duplicate keys and kBusy when
  // the index is full.
  Err Put(const std::string& key, int64_t row);
  // Returns the row for `key`, or nullopt.
  Result<std::optional<int64_t>> Lookup(const std::string& key);

 private:
  int32_t SlotBytes() const { return key_bytes_ + 8; }
  static uint64_t Hash(const std::string& key);
  Err LockSlot(int32_t slot, LockOp op);

  Syscalls& sys_;
  std::string path_;
  int32_t key_bytes_;
  int32_t buckets_;
  int fd_ = -1;
};

// Append-only log shared by concurrent writers across sites.
class SharedLog {
 public:
  static Err Create(Syscalls& sys, const std::string& path, int replication = 1);

  SharedLog(Syscalls& sys, std::string path, int32_t record_bytes = 64)
      : sys_(sys), path_(std::move(path)), record_bytes_(record_bytes) {}
  ~SharedLog();
  SharedLog(const SharedLog&) = delete;
  SharedLog& operator=(const SharedLog&) = delete;

  Err Open();
  void Close();

  // Appends one fixed-width record atomically (lock-and-extend, section
  // 3.2), under a NON-TRANSACTION lock (section 3.4) so the append neither
  // holds the log hostage to the caller's transaction nor rolls back with
  // it. Returns the record's index.
  Result<int64_t> Append(const std::string& text);
  Result<std::string> ReadRecord(int64_t index);
  Result<int64_t> Count();

 private:
  Syscalls& sys_;
  std::string path_;
  int32_t record_bytes_;
  int fd_ = -1;
};

}  // namespace locus

#endif  // SRC_DBKIT_TABLE_H_
