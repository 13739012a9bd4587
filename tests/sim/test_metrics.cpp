#include "sim/metrics.h"

#include <gtest/gtest.h>

#include <sstream>

namespace coincidence::sim {
namespace {

Message msg(std::string tag, std::size_t words) {
  Message m;
  m.tag = std::move(tag);
  m.words = words;
  return m;
}

TEST(Metrics, CorrectVsTotalWords) {
  Metrics m;
  m.record_send(msg("a/first", 2), true);
  m.record_send(msg("a/first", 2), false);  // Byzantine sender
  EXPECT_EQ(m.correct_words(), 2u);
  EXPECT_EQ(m.total_words(), 4u);
  EXPECT_EQ(m.messages_sent(), 2u);
}

TEST(Metrics, BucketsByLastTagComponent) {
  Metrics m;
  m.record_send(msg("ba/3/coin/first", 2), true);
  m.record_send(msg("ba/4/coin/first", 3), true);
  m.record_send(msg("ba/3/a1/init", 1), true);
  m.record_send(msg("plain", 5), true);
  const auto& buckets = m.words_by_tag();
  EXPECT_EQ(buckets.at("first"), 5u);
  EXPECT_EQ(buckets.at("init"), 1u);
  EXPECT_EQ(buckets.at("plain"), 5u);
}

TEST(Metrics, ByzantineWordsNotBucketed) {
  Metrics m;
  m.record_send(msg("x/echo", 3), false);
  EXPECT_TRUE(m.words_by_tag().empty());
}

TEST(Metrics, DecisionDepthTracksMaximum) {
  Metrics m;
  m.record_decision_depth(5);
  m.record_decision_depth(3);
  m.record_decision_depth(9);
  EXPECT_EQ(m.duration(), 9u);
}

TEST(Metrics, DeliveriesCounted) {
  Metrics m;
  m.record_delivery();
  m.record_delivery();
  EXPECT_EQ(m.deliveries(), 2u);
}

TEST(Metrics, PhaseOfTagWildcardsNumericComponents) {
  EXPECT_EQ(phase_of_tag("ba/3/coin/first"), "ba/*/coin/first");
  EXPECT_EQ(phase_of_tag("ba/12/a1/init"), "ba/*/a1/init");
  EXPECT_EQ(phase_of_tag("plain"), "plain");
  EXPECT_EQ(phase_of_tag("7"), "*");
  EXPECT_EQ(phase_of_tag("rbc/0/echo"), "rbc/*/echo");
  EXPECT_EQ(phase_of_tag("a/b2/c"), "a/b2/c");  // mixed digits stay put
}

TEST(Metrics, RoundOfTagReadsFirstNumericComponent) {
  EXPECT_EQ(round_of_tag("ba/3/coin/first"), 3u);
  EXPECT_EQ(round_of_tag("mmr/17/aux"), 17u);
  EXPECT_EQ(round_of_tag("plain"), std::nullopt);
  EXPECT_EQ(round_of_tag("a/b/c"), std::nullopt);
  EXPECT_EQ(round_of_tag("0/x"), 0u);
}

TEST(Metrics, WordsByPhasePartitionsCorrectWordsExactly) {
  Metrics m;
  m.record_send(msg("ba/1/coin/first", 3), true);
  m.record_send(msg("ba/2/coin/first", 4), true);  // same phase, new round
  m.record_send(msg("ba/1/a1/init", 2), true);
  m.record_send(msg("plain", 5), true);
  m.record_send(msg("ba/1/coin/first", 100), false);  // Byzantine: excluded
  const auto phases = m.words_by_phase();
  EXPECT_EQ(phases.at("ba/*/coin/first"), 7u);
  EXPECT_EQ(phases.at("ba/*/a1/init"), 2u);
  EXPECT_EQ(phases.at("plain"), 5u);
  std::uint64_t phase_sum = 0;
  for (const auto& [k, v] : phases) phase_sum += v;
  EXPECT_EQ(phase_sum, m.correct_words());

  const auto rounds = m.words_by_round();
  EXPECT_EQ(rounds.at(1), 5u);
  EXPECT_EQ(rounds.at(2), 4u);
  EXPECT_EQ(rounds.at(UINT64_MAX), 5u);  // "plain" has no round component
  std::uint64_t round_sum = 0;
  for (const auto& [k, v] : rounds) round_sum += v;
  EXPECT_EQ(round_sum, m.correct_words());
}

TEST(Metrics, DetailOffRecordsNoHistograms) {
  Metrics m;
  EXPECT_FALSE(m.detail_enabled());
  m.record_send(msg("a/b", 4), true);
  m.record_delivery(msg("a/b", 4), /*latency=*/9);
  EXPECT_TRUE(m.by_tag().empty());
  EXPECT_TRUE(m.by_phase().empty());
  EXPECT_EQ(m.deliveries(), 1u);  // headline counters unaffected
}

TEST(Metrics, DetailHistogramsTrackWordsDepthLatency) {
  Metrics m;
  m.enable_detail();
  Message sent = msg("ba/1/coin/first", 3);
  sent.causal_depth = 5;
  m.record_send(sent, true);
  m.record_delivery(sent, /*latency=*/17);
  m.record_send(msg("ba/2/coin/first", 4), true);

  const auto tags = m.by_tag();
  ASSERT_TRUE(tags.count("ba/1/coin/first"));
  const auto& row = tags.at("ba/1/coin/first");
  EXPECT_EQ(row.messages, 1u);
  EXPECT_EQ(row.correct_words, 3u);
  EXPECT_EQ(row.words.total(), 1u);
  EXPECT_EQ(row.depth.max(), 5u);
  EXPECT_EQ(row.latency.sum(), 17u);

  // Phase rollup merges the two rounds of the same phase.
  const auto phases = m.by_phase();
  ASSERT_TRUE(phases.count("ba/*/coin/first"));
  EXPECT_EQ(phases.at("ba/*/coin/first").messages, 2u);
  EXPECT_EQ(phases.at("ba/*/coin/first").correct_words, 7u);
}

TEST(Metrics, RecordDecideFeedsDurationAndRoundsHistogram) {
  Metrics m;
  m.record_decide(/*round=*/3, /*depth=*/9);
  m.record_decide(/*round=*/3, /*depth=*/4);
  m.record_decide(/*round=*/5, /*depth=*/2);
  EXPECT_EQ(m.duration(), 9u);
  EXPECT_EQ(m.decide_rounds().total(), 3u);
  EXPECT_EQ(m.decide_rounds().count(3), 2u);
  EXPECT_EQ(m.decide_rounds().count(5), 1u);
}

TEST(Metrics, DeadLettersAlwaysAccounted) {
  Metrics m;  // detail off: dead letters must be counted regardless
  m.count(Counter::kDeadLetters, 1);
  m.count(Counter::kDeadLetterWords, 5);
  m.count(Counter::kDeadLetters, 1);
  m.count(Counter::kDeadLetterWords, 2);
  EXPECT_EQ(m.counters()[Counter::kDeadLetters], 2u);
  EXPECT_EQ(m.counters()[Counter::kDeadLetterWords], 7u);
}

std::size_t occurrences(const std::string& haystack,
                        const std::string& needle) {
  std::size_t hits = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1))
    ++hits;
  return hits;
}

TEST(Metrics, JsonAndPrometheusExportsAreDeterministic) {
  auto build = [] {
    Metrics m;
    m.enable_detail();
    Message a = msg("ba/1/coin/first", 3);
    a.causal_depth = 2;
    m.record_send(a, true);
    m.record_delivery(a, 6);
    m.record_send(msg("ba/1/a1/init", 2), true);
    m.record_decide(1, 4);
    // A distinct value per counter, so each export line is attributable.
    for (const CounterInfo& row : kCounterTable)
      m.count(row.id, 1000 + static_cast<std::uint64_t>(row.id));
    return m;
  };
  std::ostringstream ja, jb, pa, pb;
  build().to_json(ja);
  build().to_json(jb);
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_NE(ja.str().find("\"correct_words\""), std::string::npos);
  build().to_prometheus(pa);
  build().to_prometheus(pb);
  EXPECT_EQ(pa.str(), pb.str());
  EXPECT_NE(pa.str().find("coincidence_correct_words"), std::string::npos);

  // Every table row reaches the exports: once in JSON with its own
  // value, and in Prometheus exactly when the row says so.
  Metrics m = build();
  for (const CounterInfo& row : kCounterTable) {
    SCOPED_TRACE(row.name);
    const std::string value = std::to_string(m.counters()[row.id]);
    const std::string key = std::string("\"") + row.name + "\"";
    EXPECT_EQ(occurrences(ja.str(), key), 1u);
    EXPECT_EQ(occurrences(ja.str(), key + ":" + value), 1u);
    const std::string series =
        std::string("coincidence_") + row.name + "_total";
    const std::size_t expected = row.exported_to_prometheus ? 1 : 0;
    EXPECT_EQ(occurrences(pa.str(), "# TYPE " + series + " counter\n"),
              expected);
    EXPECT_EQ(occurrences(pa.str(), series + " " + value + "\n"), expected);
  }
  // reset() zeroes every counter.
  m.reset();
  EXPECT_EQ(m.counters(), Counters{});
}

TEST(Metrics, ResetClearsTelemetryState) {
  Metrics m;
  m.enable_detail();
  Message a = msg("x/1/echo", 4);
  m.record_send(a, true);
  m.record_delivery(a, 3);
  m.record_decide(2, 7);
  m.count(Counter::kDeadLetters, 1);
  m.count(Counter::kDeadLetterWords, 1);
  m.reset();
  EXPECT_TRUE(m.by_tag().empty());
  EXPECT_TRUE(m.words_by_phase().empty());
  EXPECT_EQ(m.decide_rounds().total(), 0u);
  EXPECT_EQ(m.counters()[Counter::kDeadLetters], 0u);
  EXPECT_EQ(m.counters()[Counter::kDeadLetterWords], 0u);
}

TEST(Metrics, ResetClearsEverything) {
  Metrics m;
  m.record_send(msg("a/b", 4), true);
  m.record_delivery();
  m.record_decision_depth(7);
  m.reset();
  EXPECT_EQ(m.correct_words(), 0u);
  EXPECT_EQ(m.total_words(), 0u);
  EXPECT_EQ(m.messages_sent(), 0u);
  EXPECT_EQ(m.deliveries(), 0u);
  EXPECT_EQ(m.duration(), 0u);
  EXPECT_TRUE(m.words_by_tag().empty());
}

}  // namespace
}  // namespace coincidence::sim
