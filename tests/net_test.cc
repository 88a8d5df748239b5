// Network layer tests: latency model, RPC, partitions, crash behaviour,
// topology notifications, and the deferred-responder mechanism.

#include "src/net/network.h"

#include <gtest/gtest.h>

#include "src/form/formation.h"

namespace locus {
namespace {

struct Ping {
  int value = 0;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(&sim_, &trace_) {
    a_ = net_.AddSite("a");
    b_ = net_.AddSite("b");
    c_ = net_.AddSite("c");
  }

  Message Msg(int32_t type, int value, int32_t size = 64) {
    Message m;
    m.type = type;
    m.size_bytes = size;
    m.payload = Ping{value};
    return m;
  }

  Simulation sim_;
  TraceLog trace_;
  Network net_;
  SiteId a_, b_, c_;
};

TEST_F(NetworkTest, LatencyModelCalibration) {
  // Small-message round trip should land near 16 ms (so a remote lock costs
  // about 18 ms as in section 6.2).
  SimTime rtt = 2 * net_.OneWayLatency(96);
  EXPECT_GE(rtt, Milliseconds(14));
  EXPECT_LE(rtt, Milliseconds(17));
  // A 1 KB page adds noticeable wire time at 10 Mb/s.
  EXPECT_GT(net_.OneWayLatency(1024), net_.OneWayLatency(64) + Microseconds(700));
}

TEST_F(NetworkTest, SendDeliversAfterLatency) {
  SimTime delivered_at = -1;
  int got = 0;
  net_.RegisterHandler(b_, 1, [&](SiteId from, const Message& m, Responder) {
    EXPECT_EQ(from, a_);
    delivered_at = sim_.Now();
    got = m.As<Ping>().value;
  });
  net_.Send(a_, b_, Msg(1, 42));
  sim_.Run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(delivered_at, net_.OneWayLatency(64));
}

TEST_F(NetworkTest, RpcRoundTrip) {
  net_.RegisterHandler(b_, 2, [&](SiteId, const Message& m, Responder r) {
    r(Msg(2, m.As<Ping>().value * 2));
  });
  RpcResult result;
  sim_.Spawn("caller", [&] { result = net_.Call(a_, b_, Msg(2, 21)); });
  sim_.Run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.reply.As<Ping>().value, 42);
}

TEST_F(NetworkTest, DeferredResponderRepliesLater) {
  // The storage site queues a lock request and replies only when granted.
  Responder saved;
  net_.RegisterHandler(b_, 3, [&](SiteId, const Message&, Responder r) { saved = r; });
  RpcResult result;
  SimTime replied_at = 0;
  sim_.Spawn("caller", [&] {
    result = net_.Call(a_, b_, Msg(3, 0));
    replied_at = sim_.Now();
  });
  sim_.Schedule(Milliseconds(100), [&] { saved(Msg(3, 7)); });
  sim_.Run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.reply.As<Ping>().value, 7);
  EXPECT_GT(replied_at, Milliseconds(100));
}

TEST_F(NetworkTest, DuplicateRepliesIgnored) {
  Responder saved;
  net_.RegisterHandler(b_, 3, [&](SiteId, const Message&, Responder r) { saved = r; });
  RpcResult result;
  sim_.Spawn("caller", [&] { result = net_.Call(a_, b_, Msg(3, 0)); });
  sim_.Schedule(Milliseconds(50), [&] {
    saved(Msg(3, 1));
    saved(Msg(3, 2));  // Dropped.
  });
  sim_.Run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.reply.As<Ping>().value, 1);
}

TEST_F(NetworkTest, RpcTimesOutWithoutReply) {
  net_.RegisterHandler(b_, 4, [&](SiteId, const Message&, Responder) {});
  RpcResult result{true, {}};
  SimTime returned_at = -1;
  sim_.Spawn("caller", [&] {
    result = net_.Call(a_, b_, Msg(4, 0), Milliseconds(500));
    returned_at = sim_.Now();
  });
  sim_.Run();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(returned_at, Milliseconds(500));  // Exactly at its timeout.
  EXPECT_EQ(sim_.Now(), Milliseconds(500));
}

TEST_F(NetworkTest, CompletedCallsLeaveNoTimeoutsBehind) {
  // Each reply cancels its call's 600 s timeout: once the last reply is in,
  // nothing is left to run and Run returns at that reply's time.
  net_.RegisterHandler(b_, 2, [&](SiteId, const Message& m, Responder r) { r(m); });
  int ok = 0;
  size_t pending_after_last = 1;
  SimTime last_reply = -1;
  sim_.Spawn("caller", [&] {
    for (int i = 0; i < 1000; ++i) {
      ok += net_.Call(a_, b_, Msg(2, i), Seconds(600)).ok ? 1 : 0;
    }
    last_reply = sim_.Now();
    pending_after_last = sim_.pending_event_count();
  });
  sim_.Run();
  EXPECT_EQ(ok, 1000);
  EXPECT_EQ(last_reply, 1000 * 2 * net_.OneWayLatency(64));
  EXPECT_EQ(pending_after_last, 0u);
  EXPECT_EQ(sim_.Now(), last_reply);
  EXPECT_EQ(sim_.pending_event_count(), 0u);
}

TEST_F(NetworkTest, SplitCallsAndCall2CancelTheirTimeouts) {
  // Formation at both ends: requests and replies ride batch envelopes, the
  // calls go through PrepareCall/WaitCall, and a reply can land before its
  // WaitCall (the second call of a pair), when no timeout is armed at all.
  FormationQueue form_a(&net_, &net_.stats(), a_, /*enabled=*/true);
  FormationQueue form_b(&net_, &net_.stats(), b_, /*enabled=*/true);
  form_a.Start();
  form_b.Start();
  net_.RegisterHandler(b_, 2, [&](SiteId, const Message& m, Responder r) { r(m); });
  int ok = 0;
  SimTime done_at = -1;
  sim_.Spawn("caller", [&] {
    for (int i = 0; i < 50; ++i) {
      uint64_t first = form_a.BeginCall(b_, Msg(2, i));
      uint64_t second = form_a.BeginCall(b_, Msg(2, -i));
      ok += form_a.FinishCall(first, Seconds(600)).ok ? 1 : 0;
      ok += form_a.FinishCall(second, Seconds(600)).ok ? 1 : 0;
      auto [x, y] = form_a.Call2(b_, Msg(2, i), Msg(2, -i), Seconds(600));
      ok += (x.ok ? 1 : 0) + (y.ok ? 1 : 0);
      ok += form_a.Call(b_, Msg(2, i), Seconds(600)).ok ? 1 : 0;
    }
    done_at = sim_.Now();
  });
  sim_.Run();
  EXPECT_EQ(ok, 250);
  EXPECT_GT(done_at, 0);
  EXPECT_LT(done_at, Seconds(10));
  EXPECT_EQ(sim_.Now(), done_at);
  EXPECT_EQ(sim_.pending_event_count(), 0u);
}

TEST_F(NetworkTest, FormationCancelsItsFlushTimerOnSizeFlushAndCrash) {
  FormationQueue form_a(&net_, &net_.stats(), a_, /*enabled=*/true);
  FormationQueue form_b(&net_, &net_.stats(), b_, /*enabled=*/false);
  form_a.Start();
  form_b.Start();  // Unpacks the envelopes at b.
  int delivered = 0;
  net_.RegisterHandler(b_, 2, [&](SiteId, const Message&, Responder) { ++delivered; });
  // The first message arms the deadline flush; the second fills the batch,
  // whose size flush cancels that timer. Left is the envelope's delivery.
  form_a.Send(b_, Msg(2, 1, kFormMaxBatchBytes / 2));
  EXPECT_EQ(sim_.pending_event_count(), 1u);
  form_a.Send(b_, Msg(2, 2, kFormMaxBatchBytes / 2));
  EXPECT_EQ(sim_.pending_event_count(), 1u);
  sim_.Run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(sim_.Now(), net_.OneWayLatency(kFormEnvelopeBytes + kFormMaxBatchBytes));
  EXPECT_EQ(net_.stats().Get("form.flushes_size"), 1);
  EXPECT_EQ(net_.stats().Get("form.flushes_deadline"), 0);
  // A crash drops the queued message and cancels its timer.
  form_a.Send(b_, Msg(2, 3));
  EXPECT_EQ(sim_.pending_event_count(), 1u);
  form_a.OnCrash();
  EXPECT_EQ(sim_.pending_event_count(), 0u);
  // A deadline flush still sends a lone message after the delay.
  const SimTime sent_at = sim_.Now();
  form_a.Send(b_, Msg(2, 4));
  sim_.Run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(sim_.Now(), sent_at + kFormFlushDelay + net_.OneWayLatency(kFormEnvelopeBytes + 64));
  EXPECT_EQ(net_.stats().Get("form.flushes_deadline"), 1);
}

TEST_F(NetworkTest, CallToCrashedSiteFailsFast) {
  net_.Crash(b_);
  RpcResult result{true, {}};
  sim_.Spawn("caller", [&] { result = net_.Call(a_, b_, Msg(1, 0)); });
  sim_.Run();
  EXPECT_FALSE(result.ok);
}

TEST_F(NetworkTest, CrashDuringCallFailsAfterDetection) {
  net_.RegisterHandler(b_, 5, [&](SiteId, const Message&, Responder) {
    // Never replies; the site dies while the call is outstanding.
  });
  RpcResult result{true, {}};
  SimTime failed_at = 0;
  sim_.Spawn("caller", [&] {
    result = net_.Call(a_, b_, Msg(5, 0));
    failed_at = sim_.Now();
  });
  sim_.Schedule(Milliseconds(20), [&] { net_.Crash(b_); });
  sim_.Run();
  EXPECT_FALSE(result.ok);
  // Failure detected via the topology protocol, well before the timeout.
  EXPECT_LT(failed_at, Milliseconds(500));
}

TEST_F(NetworkTest, PartitionBlocksCrossGroupTraffic) {
  int received = 0;
  net_.RegisterHandler(c_, 1, [&](SiteId, const Message&, Responder) { ++received; });
  net_.SetPartitions({{a_, b_}, {c_}});
  EXPECT_TRUE(net_.Reachable(a_, b_));
  EXPECT_FALSE(net_.Reachable(a_, c_));
  net_.Send(a_, c_, Msg(1, 0));
  sim_.Run();
  EXPECT_EQ(received, 0);
  net_.ClearPartitions();
  EXPECT_TRUE(net_.Reachable(a_, c_));
  net_.Send(a_, c_, Msg(1, 0));
  sim_.Run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkTest, UnlistedSitesBecomeSingletons) {
  net_.SetPartitions({{a_, b_}});
  EXPECT_FALSE(net_.Reachable(a_, c_));
  EXPECT_FALSE(net_.Reachable(b_, c_));
  EXPECT_TRUE(net_.Reachable(c_, c_));
}

TEST_F(NetworkTest, TopologyCallbacksFireOnSurvivors) {
  int a_calls = 0;
  int b_calls = 0;
  net_.OnTopologyChange(a_, [&] { ++a_calls; });
  net_.OnTopologyChange(b_, [&] { ++b_calls; });
  net_.Crash(b_);
  sim_.Run();
  EXPECT_EQ(a_calls, 1);
  EXPECT_EQ(b_calls, 0);  // Dead sites observe nothing.
  net_.Reboot(b_);
  sim_.Run();
  EXPECT_EQ(a_calls, 2);
  EXPECT_EQ(b_calls, 1);  // Rebooted site sees its own return.
}

TEST_F(NetworkTest, BootEpochAdvances) {
  EXPECT_EQ(net_.BootEpoch(b_), 0u);
  net_.Crash(b_);
  net_.Reboot(b_);
  EXPECT_EQ(net_.BootEpoch(b_), 1u);
}

TEST_F(NetworkTest, MessagesCounted) {
  net_.RegisterHandler(b_, 2, [&](SiteId, const Message& m, Responder r) { r(m); });
  sim_.Spawn("caller", [&] { net_.Call(a_, b_, Msg(2, 1)); });
  sim_.Run();
  EXPECT_EQ(net_.stats().Get("net.messages"), 2);  // Request + reply.
}

}  // namespace
}  // namespace locus
