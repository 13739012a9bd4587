// Structured JSONL trace (ISSUE 4 tentpole + satellite): byte-identical
// replays, the filter contract (tag_filter narrows message traffic ONLY
// — fault and decision events always recorded), delivery provenance for
// link duplicates/replays, and vector-clock sanity.
#include <gtest/gtest.h>

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

TEST(TraceJsonl, ByteIdenticalAcrossReplays) {
  TraceOptions topts;
  topts.structured = true;
  auto a = run_traced(small_bracha(), topts);
  auto b = run_traced(small_bracha(), topts);
  ASSERT_TRUE(a.report.all_correct_decided);

  std::ostringstream ja, jb;
  a.trace->dump_jsonl(ja);
  b.trace->dump_jsonl(jb);
  ASSERT_FALSE(ja.str().empty());
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_FALSE(a.trace->records().empty());
}

TEST(TraceJsonl, StructuredModeDoesNotDisturbLegacyDump) {
  TraceOptions structured;
  structured.structured = true;
  auto with = run_traced(small_bracha(), structured);
  auto without = run_traced(small_bracha(), TraceOptions{});

  std::ostringstream da, db;
  with.trace->dump(da);
  without.trace->dump(db);
  EXPECT_EQ(da.str(), db.str());  // golden-fingerprint format untouched
  EXPECT_TRUE(without.trace->records().empty());
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

  TraceOptions topts;
  topts.structured = true;
  topts.tag_filter = "no-such-tag-anywhere";
  auto run = run_traced(options, topts);
  ASSERT_TRUE(run.report.all_correct_decided);

  std::map<Rec::Kind, std::size_t> kinds;
  for (const Rec& r : run.trace->records()) ++kinds[r.kind];
  EXPECT_EQ(kinds.count(Rec::Kind::kSend), 0u);
  EXPECT_EQ(kinds.count(Rec::Kind::kDeliver), 0u);
  ASSERT_GE(kinds[Rec::Kind::kCorrupt], 1u);  // the junk corruption
  EXPECT_GE(kinds[Rec::Kind::kDecide], 4u);   // every correct process
  EXPECT_GE(kinds[Rec::Kind::kRound], 1u);
  // The legacy compact stream obeys the same contract.
  bool legacy_corrupt = false;
  for (const auto& e : run.trace->events())
    legacy_corrupt |= e.kind == TraceRecorder::Event::Kind::kCorrupt;
  EXPECT_TRUE(legacy_corrupt);
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

  TraceOptions topts;
  topts.structured = true;
  auto run = run_traced(options, topts);
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
        // Every network copy resolves to its original send's clock.
        EXPECT_FALSE(r.vc.empty());
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
}

TEST(TraceJsonl, VectorClocksAreMonotoneAndContainSendSnapshots) {
  TraceOptions topts;
  topts.structured = true;
  auto run = run_traced(small_bracha(), topts);
  ASSERT_TRUE(run.report.all_correct_decided);

  auto contains = [](const std::vector<std::uint64_t>& big,
                     const std::vector<std::uint64_t>& small) {
    for (std::size_t i = 0; i < small.size(); ++i) {
      const std::uint64_t b = i < big.size() ? big[i] : 0;
      if (b < small[i]) return false;
    }
    return true;
  };

  // send_seq -> the clock stamped on the original send.
  std::map<std::uint64_t, std::vector<std::uint64_t>> send_vc;
  std::map<sim::ProcessId, std::vector<std::uint64_t>> last_deliver_vc;
  std::size_t delivers = 0;
  for (const Rec& r : run.trace->records()) {
    if (r.kind == Rec::Kind::kSend) {
      send_vc[r.send_seq] = r.vc;
    } else if (r.kind == Rec::Kind::kDeliver) {
      ++delivers;
      auto it = send_vc.find(r.send_seq);
      ASSERT_NE(it, send_vc.end()) << "deliver without a recorded send";
      // The receiver's clock merged the send snapshot, then ticked.
      EXPECT_TRUE(contains(r.vc, it->second));
      auto& prev = last_deliver_vc[r.to];
      EXPECT_TRUE(contains(r.vc, prev))
          << "receiver clock went backwards at process " << r.to;
      prev = r.vc;
    }
  }
  EXPECT_GT(delivers, 0u);
}

}  // namespace
}  // namespace coincidence
