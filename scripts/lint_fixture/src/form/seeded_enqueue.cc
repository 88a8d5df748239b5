// Seeded obligation-pairing violation (formation flush registration). NOT
// compiled — CI asserts the analyzer flags the enqueue that can return with
// neither an immediate Flush nor a flush_timer arming, and stays quiet on
// the properly armed shape.

namespace lint_fixture {

struct Message {
  int size_bytes = 0;
};

struct FormItem {
  Message msg;
};

struct ItemList {
  void push_back(FormItem) {}
};

struct EventId {
  explicit operator bool() const { return armed; }
  bool armed = false;
};

struct DestQueue {
  ItemList items;
  int bytes = 0;
  EventId flush_timer;
};

class FakeFormationQueue {
 public:
  // Violation: the batch is enqueued but no flush is registered on the
  // fall-through path — the messages would sit in the queue forever.
  void EnqueueLost(DestQueue& q, Message msg) {
    q.bytes += msg.size_bytes;
    q.items.push_back(FormItem{msg});
  }

  // Clean: every path after the enqueue either flushes now or arms the
  // flush timer.
  void EnqueueArmed(DestQueue& q, Message msg) {
    q.bytes += msg.size_bytes;
    q.items.push_back(FormItem{msg});
    if (q.bytes >= 4096) {
      Flush(q);
      return;
    }
    if (!q.flush_timer) {
      q.flush_timer = ScheduleFlush();
    }
  }

 private:
  void Flush(DestQueue&) {}
  EventId ScheduleFlush() { return EventId{true}; }
};

}  // namespace lint_fixture
