// trace::analyze on hand-built event sequences with a known critical
// path — the analyzer is a pure function of the events, so every derived
// metric (critical node, imbalance bucket, fetch latency, stall
// attribution, hot-block ranking, fabric totals) is checkable exactly.
#include <gtest/gtest.h>

#include <string>

#include "trace/analyze.hpp"
#include "trace/event.hpp"
#include "trace/export.hpp"
#include "trace/recorder.hpp"

namespace ppm::trace {
namespace {

Event make(EventKind kind, int64_t t_ns, uint64_t a = 0, uint64_t b = 0,
           uint64_t c = 0, uint8_t flags = 0, uint32_t aux = 0) {
  Event e;
  e.kind = kind;
  e.t_ns = t_ns;
  e.a = a;
  e.b = b;
  e.c = c;
  e.flags = flags;
  e.aux = aux;
  return e;
}

/// Two nodes, one global phase. Node 1 computes 290ns (0 -> oh wait, 10 to
/// 300) vs node 0's 100ns, so node 1 bounds the barrier.
Trace build_known_trace() {
  Trace t(/*nodes=*/2, /*capacity_per_track=*/64);

  Recorder& n0 = t.node(0);
  const uint32_t label = n0.intern("foo");
  n0.record(make(EventKind::kPhaseBegin, 0, /*phase=*/0, /*k=*/4, label,
                 kFlagBit0));
  // One fetch inside the phase: issued at 20, stalled from 30 to 80,
  // response at 80 (latency 60).
  // Block operands: a = array, b = first element, aux = owner.
  n0.record(make(EventKind::kCacheMiss, 15, /*array=*/1, /*first=*/0, 0, 0,
                 /*owner=*/1));
  n0.record(make(EventKind::kFetchIssued, 20, /*array=*/1, /*first=*/0,
                 /*req=*/7, 0, /*owner=*/1));
  n0.record(make(EventKind::kFetchDone, 80, /*array=*/1, /*first=*/0,
                 /*req=*/7, 0, /*owner=*/1));
  n0.record(make(EventKind::kFetchStall, 80, /*req=*/7, 0, /*start=*/30));
  n0.record(make(EventKind::kCacheHit, 90, 1, 0, 0, 0, /*owner=*/1));
  n0.record(make(EventKind::kCacheHit, 95, 1, 0, 0, 0, /*owner=*/1));
  n0.record(make(EventKind::kPhaseComputeDone, 100, 0));
  n0.record(make(EventKind::kPhaseCommitted, 150, 0));

  Recorder& n1 = t.node(1);
  const uint32_t label1 = n1.intern("foo");
  n1.record(make(EventKind::kPhaseBegin, 10, 0, 4, label1, kFlagBit0));
  // An abandoned prefetch: matched but excluded from latency.
  n1.record(make(EventKind::kFetchIssued, 30, /*array=*/2, /*first=*/8,
                 /*req=*/9, kFlagBit0, /*owner=*/0));
  n1.record(make(EventKind::kFetchDone, 200, 2, 8, 9, kFlagBit0,
                 /*owner=*/0));
  n1.record(make(EventKind::kPhaseComputeDone, 300, 0));
  n1.record(make(EventKind::kPhaseCommitted, 360, 0));

  // Two messages, each on the track of the node that resolved its
  // delivery: 0 -> 1 on the destination's, an intra-node one carrying 25ns
  // of fault-injected delay on its own node's.
  n1.record(make(EventKind::kMsgSend, 40, /*0 -> 1*/ uint64_t{1} << 16, 128,
                 /*delivered=*/90, 0, 0));
  n0.record(make(EventKind::kMsgSend, 60, /*0 -> 0*/ 0, 256,
                 /*delivered=*/130, kFlagBit0, 25));
  return t;
}

TEST(TraceAnalyzeTest, CriticalPathOfKnownPhase) {
  const Trace t = build_known_trace();
  const Summary s = analyze(t);

  ASSERT_EQ(s.phases.size(), 1u);
  const PhaseCritical& p = s.phases[0];
  EXPECT_EQ(p.phase_index, 0u);
  EXPECT_TRUE(p.global);
  EXPECT_EQ(p.label, "foo");
  EXPECT_EQ(p.nodes_seen, 2);
  EXPECT_EQ(p.critical_node, 1) << "node 1 computed 290ns vs node 0's 100";
  EXPECT_EQ(p.start_ns, 0);
  EXPECT_EQ(p.committed_ns, 360);
  EXPECT_EQ(p.compute_max_ns, 290);
  EXPECT_EQ(p.compute_min_ns, 100);
  // Latest compute-done (node 1, 300) to latest commit end (360).
  EXPECT_EQ(p.commit_round_ns, 60);
  EXPECT_EQ(p.stall_ns, 50u);      // node 0's 30 -> 80 park
  EXPECT_NEAR(p.imbalance(), 190.0 / 290.0, 1e-9);
}

TEST(TraceAnalyzeTest, CommitRoundExcludesTheWaitForTheSlowestPeer) {
  // Node 0 finishes computing at 100 and waits for node 1's last marker;
  // node 1 finishes at 300 and commits by 365, node 0 by 370. Node 0's
  // own commit span (100 -> 370) is mostly that wait: the phase's commit
  // round is 300 -> 370, and the label rolls up the round.
  Trace t(/*nodes=*/2, /*capacity_per_track=*/16);
  for (int n = 0; n < 2; ++n) {
    Recorder& rec = t.node(n);
    const uint32_t label = rec.intern("update");
    rec.record(make(EventKind::kPhaseBegin, 0, /*phase=*/0, /*k=*/4, label,
                    kFlagBit0));
    rec.record(make(EventKind::kPhaseComputeDone, n == 0 ? 100 : 300, 0));
    rec.record(make(EventKind::kPhaseCommitted, n == 0 ? 370 : 365, 0));
  }
  const Summary s = analyze(t);
  ASSERT_EQ(s.phases.size(), 1u);
  EXPECT_EQ(s.phases[0].compute_max_ns, 300);
  EXPECT_EQ(s.phases[0].committed_ns, 370);
  EXPECT_EQ(s.phases[0].commit_round_ns, 70) << "not node 0's 270 ns wait";
  ASSERT_EQ(s.labels.size(), 1u);
  EXPECT_EQ(s.labels[0].commit_ns, 70);
}

TEST(TraceAnalyzeTest, ImbalanceHistogramBucket) {
  const Summary s = analyze(build_known_trace());
  // imbalance 0.655... lands in bucket floor(0.655 * 8) = 5.
  uint64_t total = 0;
  for (const uint64_t c : s.imbalance_hist) total += c;
  EXPECT_EQ(total, 1u);
  EXPECT_EQ(s.imbalance_hist[5], 1u);
}

TEST(TraceAnalyzeTest, FetchAndCacheTotals) {
  const Summary s = analyze(build_known_trace());
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.fetches, 2u);
  EXPECT_EQ(s.fetch_latency_ns, 60u)
      << "abandoned responses must not count toward latency";
  EXPECT_EQ(s.stall_ns, 50u);
  EXPECT_EQ(s.fetch_exposed_ns, 50u);  // one waiter, parked 30 -> 80
  EXPECT_NEAR(s.bundling_efficiency(), 2.0 / 3.0, 1e-9);
  // 1 - 50/60 overlap.
  EXPECT_NEAR(s.overlap_efficiency(), 1.0 - 50.0 / 60.0, 1e-9);
}

TEST(TraceAnalyzeTest, OverlapExposesEachFetchOnceForAllWaiters) {
  // Two VPs park on one fetch (issued at 100, response at 200), from 120
  // and from 130: VP stall sums both parks, more than the fetch's whole
  // latency, but the fetch exposed only the span from its earliest
  // waiter to the response. A second fetch is fully hidden, and a stall
  // on an indexed get (no kFetchIssued) exposes no block-fetch latency.
  Trace t(/*nodes=*/1, /*capacity_per_track=*/64);
  Recorder& n0 = t.node(0);
  n0.record(make(EventKind::kFetchIssued, 100, 1, 0, /*req=*/3));
  n0.record(make(EventKind::kFetchIssued, 110, 1, 8, /*req=*/4));
  n0.record(make(EventKind::kFetchDone, 150, 1, 8, /*req=*/4));
  n0.record(make(EventKind::kFetchDone, 200, 1, 0, /*req=*/3));
  n0.record(make(EventKind::kFetchStall, 200, /*req=*/3, 0, /*start=*/120));
  n0.record(make(EventKind::kFetchStall, 200, /*req=*/3, 0, /*start=*/130));
  n0.record(make(EventKind::kFetchStall, 260, /*req=*/5, 0, /*start=*/230));
  const Summary s = analyze(t);
  EXPECT_EQ(s.fetch_latency_ns, 140u);  // 100 + 40
  EXPECT_EQ(s.stall_ns, 180u);          // 80 + 70 + 30, per VP
  EXPECT_EQ(s.fetch_exposed_ns, 80u);   // 200 - 120, once
  EXPECT_NEAR(s.overlap_efficiency(), 1.0 - 80.0 / 140.0, 1e-9);
}

TEST(TraceAnalyzeTest, HotBlocksDecodeOwnerAndElement) {
  const Summary s = analyze(build_known_trace());
  ASSERT_EQ(s.hot_blocks.size(), 2u);
  // Equal counts: ascending (array, owner, element) tie-break.
  EXPECT_EQ(s.hot_blocks[0].array, 1u);
  EXPECT_EQ(s.hot_blocks[0].owner, 1u);
  EXPECT_EQ(s.hot_blocks[0].first_elem, 0u);
  EXPECT_EQ(s.hot_blocks[0].fetches, 1u);
  EXPECT_EQ(s.hot_blocks[1].array, 2u);
  EXPECT_EQ(s.hot_blocks[1].owner, 0u);
  EXPECT_EQ(s.hot_blocks[1].first_elem, 8u);
}

TEST(TraceAnalyzeTest, LabelRollupAggregatesPhasesByLabel) {
  // Two phases labeled "foo" plus one unlabeled phase: the rollup must
  // fold the foo instances together and bucket the unlabeled one as "-".
  Trace t(/*nodes=*/1, /*capacity_per_track=*/64);
  Recorder& n0 = t.node(0);
  const uint32_t foo = n0.intern("foo");
  n0.record(make(EventKind::kPhaseBegin, 0, 0, 4, foo, kFlagBit0));
  n0.record(make(EventKind::kFetchStall, 80, 7, 0, /*start=*/30));
  n0.record(make(EventKind::kPhaseComputeDone, 100, 0));
  n0.record(make(EventKind::kPhaseCommitted, 120, 0));
  n0.record(make(EventKind::kPhaseBegin, 200, 1, 4, foo, kFlagBit0));
  n0.record(make(EventKind::kPhaseComputeDone, 230, 1));
  n0.record(make(EventKind::kPhaseCommitted, 240, 1));
  n0.record(make(EventKind::kPhaseBegin, 300, 2, 4, 0, kFlagBit0));
  n0.record(make(EventKind::kPhaseComputeDone, 310, 2));
  n0.record(make(EventKind::kPhaseCommitted, 315, 2));

  const Summary s = analyze(t);
  ASSERT_EQ(s.labels.size(), 2u) << "foo and the unlabeled bucket";
  const LabelRollup& lf = s.labels[0];
  EXPECT_EQ(lf.label, "foo") << "first-appearance order";
  EXPECT_EQ(lf.phases, 2u);
  EXPECT_EQ(lf.compute_ns, 100 + 30);
  EXPECT_EQ(lf.commit_ns, 20 + 10);
  EXPECT_EQ(lf.stall_ns, 50u);
  EXPECT_NEAR(lf.stall_share(), 50.0 / 180.0, 1e-9);
  const LabelRollup& lu = s.labels[1];
  EXPECT_EQ(lu.label, "-");
  EXPECT_EQ(lu.phases, 1u);
  EXPECT_EQ(lu.compute_ns, 10);
  EXPECT_EQ(lu.stall_ns, 0u);
  EXPECT_NE(s.to_string().find("per-label rollup"), std::string::npos);
}

TEST(TraceAnalyzeTest, FabricTotalsAndEventCounts) {
  const Trace t = build_known_trace();
  const Summary s = analyze(t);
  EXPECT_EQ(s.messages, 2u);
  EXPECT_EQ(s.fault_delay_ns, 25u);
  EXPECT_EQ(s.events, t.total_recorded());
  EXPECT_EQ(s.dropped, 0u);
  const std::string text = s.to_string();
  EXPECT_NE(text.find("foo"), std::string::npos);
  EXPECT_NE(text.find("fabric: 2 messages"), std::string::npos);
}

TEST(TraceAnalyzeTest, ExportOfHandBuiltTraceIsWellFormed) {
  const Trace t = build_known_trace();
  const std::string json = to_chrome_json(t);
  // Spans, instants, and the fabric process must appear.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"fabric\""), std::string::npos);
  EXPECT_NE(json.find("foo"), std::string::npos);
  // Each message is a send -> delivery span on the fabric process (pid 2,
  // one thread per source node), never an instant on a node process.
  EXPECT_NE(json.find("{\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":0.040,"
                      "\"dur\":0.050,\"name\":\"msg 0->1 k0\""),
            std::string::npos);
  EXPECT_NE(json.find("{\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":0.060,"
                      "\"dur\":0.070,\"name\":\"msg 0->0 k0 (intra)\""),
            std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"msg\""), std::string::npos);
  EXPECT_EQ(json.find("events_dropped"), std::string::npos);
  // Deterministic: same Trace, same bytes.
  EXPECT_EQ(json, to_chrome_json(build_known_trace()));

  const Bytes bin = to_binary(t);
  ASSERT_GE(bin.size(), 8u);
  EXPECT_EQ(bin, to_binary(build_known_trace()));
}

}  // namespace
}  // namespace ppm::trace
