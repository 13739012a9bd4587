// JSONL trace: byte-identical replays, the filter contract (tag_filter
// narrows message traffic ONLY — fault and decision events always
// recorded), delivery provenance for link duplicates/replays, and
// every delivery matched to its send.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.h"
#include "sim/trace.h"

namespace coincidence {
namespace {

using sim::Counter;

using core::Protocol;
using core::RunInstruments;
using core::RunOptions;
using core::RunReport;
using sim::TraceOptions;
using sim::TraceRecorder;
using Rec = sim::TraceRecorder::Rec;
using Prov = sim::TraceRecorder::Prov;

struct TracedRun {
  RunReport report;
  std::shared_ptr<TraceRecorder> trace;
};

TracedRun run_traced(const RunOptions& options, TraceOptions topts) {
  TracedRun out;
  out.trace = std::make_shared<TraceRecorder>(std::move(topts));
  RunInstruments instruments;
  instruments.observers.push_back(out.trace);
  out.report = core::run_agreement(options, instruments);
  return out;
}

RunOptions small_bracha() {
  RunOptions options;
  options.protocol = Protocol::kBracha;
  options.n = 4;
  options.seed = 21;
  options.inputs.assign(4, ba::kOne);
  return options;
}

/// Checks that every delivery follows a recorded send of the same
/// send_seq, with the same endpoints, tag and causal depth (network
/// copies share their original's send_seq). Returns the delivery count.
std::size_t expect_deliveries_follow_sends(const std::vector<Rec>& recs) {
  std::map<std::uint64_t, const Rec*> sent;  // send_seq -> send record
  std::size_t delivers = 0;
  for (const Rec& r : recs) {
    if (r.kind == Rec::Kind::kSend) {
      sent.emplace(r.send_seq, &r);
    } else if (r.kind == Rec::Kind::kDeliver) {
      ++delivers;
      auto it = sent.find(r.send_seq);
      if (it == sent.end()) {
        ADD_FAILURE() << "deliver without a recorded send, sseq "
                      << r.send_seq;
        continue;
      }
      const Rec& s = *it->second;
      EXPECT_EQ(s.from, r.from) << "sseq " << r.send_seq;
      EXPECT_EQ(s.to, r.to) << "sseq " << r.send_seq;
      EXPECT_EQ(s.tag, r.tag) << "sseq " << r.send_seq;
      EXPECT_EQ(s.depth, r.depth) << "sseq " << r.send_seq;
    }
  }
  return delivers;
}

TEST(TraceJsonl, ByteIdenticalAcrossReplays) {
  auto a = run_traced(small_bracha(), {});
  auto b = run_traced(small_bracha(), {});
  ASSERT_TRUE(a.report.all_correct_decided);

  std::ostringstream ja, jb;
  a.trace->dump_jsonl(ja);
  b.trace->dump_jsonl(jb);
  ASSERT_FALSE(ja.str().empty());
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_FALSE(a.trace->records().empty());
}

// Satellite: a tag filter that matches no message traffic must still
// record corruptions, recoveries, decides and rounds — a filtered trace
// that silently dropped fault events would make fault accounting lie.
TEST(TraceJsonl, TagFilterKeepsFaultAndDecisionEvents) {
  RunOptions options;
  options.protocol = Protocol::kBracha;
  options.n = 5;
  options.seed = 33;
  options.junk = 1;
  options.inputs.assign(5, ba::kOne);

  auto run = run_traced(options, {.tag_filter = "no-such-tag-anywhere"});
  ASSERT_TRUE(run.report.all_correct_decided);

  std::map<Rec::Kind, std::size_t> kinds;
  for (const Rec& r : run.trace->records()) ++kinds[r.kind];
  EXPECT_EQ(kinds.count(Rec::Kind::kSend), 0u);
  EXPECT_EQ(kinds.count(Rec::Kind::kDeliver), 0u);
  ASSERT_GE(kinds[Rec::Kind::kCorrupt], 1u);  // the junk corruption
  EXPECT_GE(kinds[Rec::Kind::kDecide], 4u);   // every correct process
  EXPECT_GE(kinds[Rec::Kind::kRound], 1u);
}

TEST(TraceJsonl, DeliveryProvenanceMarksDuplicatesAndReplays) {
  RunOptions options = small_bracha();
  options.seed = 9;
  // Duplicating + replaying (never dropping) links keep liveness while
  // forcing network-created copies through the provenance map.
  options.network.default_link.dup_p = 0.3;
  options.network.default_link.max_duplicates = 2;
  options.network.default_link.replay_p = 0.2;
  options.network.default_link.replay_window = 8;

  auto run = run_traced(options, {});
  ASSERT_TRUE(run.report.all_correct_decided);
  ASSERT_GT(run.report.counters[Counter::kLinkDuplicates], 0u);
  ASSERT_GT(run.report.counters[Counter::kLinkReplays], 0u);

  std::size_t dup_events = 0, replay_events = 0;
  std::size_t dup_delivers = 0, replay_delivers = 0, fresh_delivers = 0;
  for (const Rec& r : run.trace->records()) {
    switch (r.kind) {
      case Rec::Kind::kDuplicate: ++dup_events; break;
      case Rec::Kind::kReplay: ++replay_events; break;
      case Rec::Kind::kDeliver:
        if (r.prov == Prov::kDuplicate) ++dup_delivers;
        if (r.prov == Prov::kReplay) ++replay_delivers;
        if (r.prov == Prov::kFresh) ++fresh_delivers;
        break;
      default: break;
    }
  }
  // One kDuplicate/kReplay record per link event, matching Metrics.
  EXPECT_EQ(dup_events, run.report.counters[Counter::kLinkDuplicates]);
  EXPECT_EQ(replay_events, run.report.counters[Counter::kLinkReplays]);
  // Copies actually reached receivers and were attributed as such.
  EXPECT_GT(dup_delivers, 0u);
  EXPECT_GT(replay_delivers, 0u);
  EXPECT_GT(fresh_delivers, 0u);
  // Every network copy resolves to its original send.
  EXPECT_GT(expect_deliveries_follow_sends(run.trace->records()), 0u);
}

// A link can drop a ReliableChannel retransmission as well as a fresh
// send; the drop record must say which one it lost.
TEST(TraceJsonl, DroppedRetransmissionsKeepTheirProvenance) {
  RunOptions options;
  options.protocol = Protocol::kBracha;
  options.n = 7;
  options.seed = 3;
  options.inputs.assign(7, ba::kZero);
  for (std::size_t i = 0; i < 3; ++i) options.inputs[i] = ba::kOne;
  options.rbc = ba::RbcBackend::kEc;
  options.junk = 1;
  options.crash_recover = 1;
  options.network.default_link.drop_p = 0.02;
  options.reliable_channel = true;
  options.transport_retransmits = 4;

  auto run = run_traced(options, {});
  std::map<std::uint64_t, Prov> sent;  // send_seq -> provenance of the send
  std::size_t drops = 0, dropped_retransmits = 0;
  for (const Rec& r : run.trace->records()) {
    if (r.kind == Rec::Kind::kSend) {
      sent.emplace(r.send_seq, r.prov);
    } else if (r.kind == Rec::Kind::kDrop) {
      ++drops;
      auto it = sent.find(r.send_seq);
      ASSERT_NE(it, sent.end()) << "drop without a recorded send";
      EXPECT_EQ(r.prov, it->second) << "sseq " << r.send_seq;
      if (r.prov == Prov::kRetransmit) ++dropped_retransmits;
    }
  }
  EXPECT_EQ(drops, run.report.counters[Counter::kLinkDrops]);
  EXPECT_GT(dropped_retransmits, 0u);
  EXPECT_LT(dropped_retransmits, drops);
}

TEST(TraceJsonl, EveryDeliveryFollowsItsSend) {
  auto run = run_traced(small_bracha(), {});
  ASSERT_TRUE(run.report.all_correct_decided);
  EXPECT_GT(expect_deliveries_follow_sends(run.trace->records()), 0u);
}

/// Checks that `path` is a causal chain ending at the trace's deepest
/// delivery: depths rise by one per hop, and each hop leaves the process
/// the previous hop reached.
void expect_causal_chain(const std::vector<Rec>& recs,
                         const std::vector<sim::Hop>& path) {
  ASSERT_FALSE(path.empty());
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_EQ(path[i].depth, path[i - 1].depth + 1) << "hop " << i;
    EXPECT_EQ(path[i].from, path[i - 1].to) << "hop " << i;
  }
  std::uint64_t deepest = 0;
  for (const Rec& r : recs)
    if (r.kind == Rec::Kind::kDeliver) deepest = std::max(deepest, r.depth);
  EXPECT_EQ(path.back().depth, deepest);
}

TEST(TraceJsonl, CriticalPathIsACausalChain) {
  auto run = run_traced(small_bracha(), {});
  ASSERT_TRUE(run.report.all_correct_decided);
  const auto& recs = run.trace->records();
  const std::vector<sim::Hop> path = sim::critical_path(recs);
  expect_causal_chain(recs, path);
  // One hop per depth level: self-sends (from == to) stand for the
  // self-deliveries the trace does not record.
  std::ostringstream hops;
  for (const sim::Hop& h : path)
    hops << h.depth << ':' << h.from << "->" << h.to << ' ' << h.tag << '\n';
  EXPECT_EQ(hops.str(),
            "1:1->1 bracha/0/1/initial\n"
            "2:1->1 bracha/0/1/echo\n"
            "3:1->2 bracha/0/1/echo\n"
            "4:2->1 bracha/0/1/echo\n"
            "5:1->2 bracha/0/1/ready\n"
            "6:2->3 bracha/0/1/ready\n"
            "7:3->3 bracha/0/1/echo\n"
            "8:3->3 bracha/0/1/ready\n"
            "9:3->3 bracha/0/1/echo\n"
            "10:3->3 bracha/0/1/ready\n"
            "11:3->3 bracha/0/1/echo\n"
            "12:3->3 bracha/0/1/ready\n"
            "13:3->1 bracha/0/2/initial\n"
            "14:1->2 bracha/0/2/echo\n"
            "15:2->2 bracha/0/2/initial\n"
            "16:2->0 bracha/0/2/echo\n"
            "17:0->0 bracha/0/2/initial\n"
            "18:0->0 bracha/0/2/echo\n"
            "19:0->0 bracha/0/2/echo\n"
            "20:0->0 bracha/0/2/echo\n"
            "21:0->1 bracha/0/2/ready\n"
            "22:1->1 bracha/0/2/ready\n"
            "23:1->0 bracha/0/2/ready\n"
            "24:0->1 bracha/0/2/echo\n"
            "25:1->1 bracha/0/2/echo\n"
            "26:1->0 bracha/0/2/ready\n"
            "27:0->0 bracha/0/3/initial\n"
            "28:0->2 bracha/0/3/echo\n"
            "29:2->2 bracha/0/3/initial\n"
            "30:2->2 bracha/0/3/echo\n"
            "31:2->2 bracha/0/2/ready\n"
            "32:2->3 bracha/0/3/echo\n"
            "33:3->3 bracha/0/3/initial\n"
            "34:3->3 bracha/0/3/echo\n"
            "35:3->3 bracha/0/3/echo\n"
            "36:3->1 bracha/0/3/ready\n"
            "37:1->0 bracha/0/3/ready\n"
            "38:0->0 bracha/0/3/echo\n"
            "39:0->0 bracha/0/3/ready\n"
            "40:0->0 bracha/0/3/echo\n"
            "41:0->0 bracha/0/3/ready\n"
            "42:0->0 bracha/0/3/echo\n"
            "43:0->0 bracha/0/3/ready\n"
            "44:0->1 bracha/0/3/ready\n"
            "45:1->1 bracha/1/1/initial\n"
            "46:1->0 bracha/1/1/echo\n"
            "47:0->1 bracha/1/1/echo\n");

  // A longer chain: BA-WHP at n=48, the run_report CI config.
  RunOptions whp;
  whp.protocol = Protocol::kBaWhp;
  whp.n = 48;
  whp.seed = 7;
  whp.inputs.assign(48, ba::kZero);
  for (std::size_t i = 0; i < 24; ++i) whp.inputs[i] = ba::kOne;
  auto whp_run = run_traced(whp, {});
  ASSERT_TRUE(whp_run.report.all_correct_decided);
  const auto whp_path = sim::critical_path(whp_run.trace->records());
  EXPECT_EQ(whp_path.size(), 13u);
  expect_causal_chain(whp_run.trace->records(), whp_path);
}

}  // namespace
}  // namespace coincidence
