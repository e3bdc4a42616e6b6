// Degradation ladder (exact -> hot-pattern cache -> sketch estimate ->
// none) at the serving tier, plus UnregisterText lifecycle. The chaos cases
// drive the ladder with armed failpoints (quarantined build lanes, mapped
// faults, overload) and check *differentially* against a direct exact
// index: every degraded answer must carry honest provenance and an error
// bound the measured error respects. Runs under both the "concurrency" and
// "chaos" CI labels; failpoint-dependent cases skip when USI_FAILPOINTS is
// off.

#include <atomic>
#include <chrono>
#include <latch>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/core/multi_service.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/parallel/thread_pool.hpp"
#include "usi/util/failpoint.hpp"

namespace usi {
namespace {

using testing::RandomWeighted;

std::vector<Text> PatternsFor(const WeightedString& ws, u64 seed,
                              int present = 48, int absent = 12) {
  Rng rng(seed);
  std::vector<Text> patterns;
  for (int i = 0; i < present; ++i) {
    const index_t start = static_cast<index_t>(rng.UniformBelow(ws.size()));
    const index_t max_len = std::min<index_t>(8, ws.size() - start);
    patterns.push_back(ws.Fragment(
        start, static_cast<index_t>(rng.UniformInRange(1, max_len))));
  }
  for (int i = 0; i < absent; ++i) {
    patterns.push_back(Text(static_cast<std::size_t>(rng.UniformInRange(1, 6)),
                            static_cast<Symbol>(200 + i)));
  }
  return patterns;
}

std::vector<QueryResult> DirectAnswers(const UsiIndex& index,
                                       const std::vector<Text>& patterns) {
  std::vector<QueryResult> want(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    want[i] = index.Query(patterns[i]);
  }
  return want;
}

std::vector<MultiQuery> QueriesFor(std::string_view id,
                                   const std::vector<Text>& patterns) {
  std::vector<MultiQuery> queries;
  queries.reserve(patterns.size());
  for (const Text& p : patterns) queries.push_back({id, p});
  return queries;
}

/// The ladder's correctness contract, slot by slot, against the exact
/// oracle: kExact/kCached answers match exactly (bound 0), kApproximate
/// answers never under-shoot and over-shoot by at most their advertised
/// bound, kNone slots are zeroed fillers.
void ExpectWithinBounds(const std::vector<QueryResult>& got,
                        const std::vector<QueryResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    switch (got[i].provenance) {
      case AnswerProvenance::kExact:
      case AnswerProvenance::kCached:
        EXPECT_EQ(got[i].utility, want[i].utility) << "slot " << i;
        EXPECT_EQ(got[i].occurrences, want[i].occurrences) << "slot " << i;
        EXPECT_EQ(got[i].error_bound, 0.0) << "slot " << i;
        break;
      case AnswerProvenance::kApproximate:
        EXPECT_GE(got[i].utility, want[i].utility - 1e-9) << "slot " << i;
        EXPECT_LE(got[i].utility, want[i].utility + got[i].error_bound + 1e-9)
            << "slot " << i << ": measured error exceeds advertised bound";
        EXPECT_GE(got[i].occurrences, want[i].occurrences) << "slot " << i;
        break;
      case AnswerProvenance::kNone:
        EXPECT_EQ(got[i].utility, 0.0) << "slot " << i;
        EXPECT_EQ(got[i].occurrences, 0u) << "slot " << i;
        break;
    }
  }
}

class DegradationTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(DegradationTest, ProvenanceNamesAreDistinct) {
  const AnswerProvenance all[] = {
      AnswerProvenance::kExact, AnswerProvenance::kCached,
      AnswerProvenance::kApproximate, AnswerProvenance::kNone};
  std::vector<std::string> names;
  for (AnswerProvenance p : all) {
    const std::string name = AnswerProvenanceName(p);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST_F(DegradationTest, ExactPathTagsEveryAnswerExact) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(2500, 8, 201);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const std::vector<Text> patterns = PatternsFor(ws, 202);
  const std::vector<MultiQuery> queries = QueriesFor("t", patterns);
  std::vector<QueryResult> results(queries.size());
  ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].provenance, AnswerProvenance::kExact) << i;
    EXPECT_EQ(results[i].error_bound, 0.0) << i;
  }
}

TEST_F(DegradationTest, QuarantinedTextAnswersDegradedInsteadOfNotReady) {
  if (!failpoint::kEnabled) GTEST_SKIP() << "built without USI_FAILPOINTS";
  UsiMultiServiceOptions options;
  options.threads = 2;
  options.max_build_retries = 0;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(2000, 8, 211);

  failpoint::Arm("multi.build", failpoint::Action::kThrow);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kFailed);

  const std::vector<Text> patterns = PatternsFor(ws, 212);
  const std::vector<MultiQuery> queries = QueriesFor("t", patterns);
  std::vector<QueryResult> results(queries.size(), QueryResult{-1, 777});

  // Without the opt-in: the PR 8 contract, fail-clean with kNotReady.
  EXPECT_EQ(service.QueryBatchInto(queries, results),
            ServeStatus::kNotReady);
  EXPECT_EQ(results[0].occurrences, 777u) << "rejection must not touch slots";

  // With the opt-in: the batch is answered. Nothing was ever served
  // exactly, so every slot is an honest kNone filler — but the status is
  // kDegraded, not a rejection.
  MultiBatchOptions batch_options;
  batch_options.allow_degraded = true;
  EXPECT_EQ(service.QueryBatchInto(queries, results, batch_options),
            ServeStatus::kDegraded);
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.provenance, AnswerProvenance::kNone);
    EXPECT_EQ(r.occurrences, 0u);
  }
  EXPECT_EQ(service.stats().degraded_batches, 1u);
}

// The acceptance scenario: a mapped text is warmed, then its backing
// mapping faults persistently AND the build lane is poisoned, so recovery
// quarantines. With allow_degraded every batch still answers — kDegraded,
// never kIndexUnavailable / kNotReady — with per-slot provenance and
// bounds the measured error respects.
TEST_F(DegradationTest, MappedFaultPlusQuarantineServesWithinBounds) {
  if (!failpoint::kEnabled) GTEST_SKIP() << "built without USI_FAILPOINTS";
  const WeightedString ws = RandomWeighted(3000, 8, 221);
  UsiOptions build;
  build.k = 150;
  build.threads = 1;
  const UsiIndex direct(ws, build);
  const std::string path = ::testing::TempDir() + "degr_mapped.bin";
  ASSERT_TRUE(direct.SaveToFile(path, IndexFileFormat::kV3Mapped));

  UsiMultiServiceOptions options;
  options.threads = 2;
  options.default_build = build;
  options.max_build_retries = 0;
  UsiMultiService service(options);
  ASSERT_GT(service.RegisterTextFromFile("m", ws, path), 0u);

  const std::vector<Text> patterns = PatternsFor(ws, 222);
  const std::vector<MultiQuery> queries = QueriesFor("m", patterns);
  const std::vector<QueryResult> want = DirectAnswers(direct, patterns);
  std::vector<QueryResult> results(queries.size());

  // Warm phase: exact serving records every (pattern, answer) pair.
  ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);
  ExpectWithinBounds(results, want);

  // Chaos phase: every engine touch faults, and the recovery rebuild the
  // demotion schedules dies in the poisoned build lane (quarantine).
  failpoint::Arm("serve.mapped_fault", failpoint::Action::kError);
  failpoint::Arm("multi.build", failpoint::Action::kThrow);

  MultiBatchOptions batch_options;
  batch_options.allow_degraded = true;
  for (int round = 0; round < 5; ++round) {
    const ServeStatus status =
        service.QueryBatchInto(queries, results, batch_options);
    EXPECT_EQ(status, ServeStatus::kDegraded) << "round " << round;
    ExpectWithinBounds(results, want);
    // The warm phase served every pattern exactly, so the tier answers all
    // of them (cache or sketch) — no slot falls through to kNone.
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_NE(results[i].provenance, AnswerProvenance::kNone)
          << "round " << round << " slot " << i;
    }
  }
  const UsiMultiStats stats = service.stats();
  EXPECT_EQ(stats.degraded_batches, 5u);
  EXPECT_EQ(stats.degraded_answers, 5u * queries.size());
  EXPECT_EQ(stats.index_unavailable, 0u)
      << "opted-in batches must degrade, not fail";

  // Tier telemetry is visible per text.
  const std::optional<UsiTextStats> text_stats = service.StatsFor("m");
  ASSERT_TRUE(text_stats.has_value());
  ASSERT_TRUE(text_stats->degraded.has_value());
  EXPECT_GE(text_stats->degraded->records, queries.size());
  EXPECT_GT(text_stats->degraded->cache_hits, 0u);
  EXPECT_GT(text_stats->degraded->CacheHitRate(), 0.0);
  std::remove(path.c_str());
}

TEST_F(DegradationTest, FaultedBuiltGenerationFallsBackToTier) {
  if (!failpoint::kEnabled) GTEST_SKIP() << "built without USI_FAILPOINTS";
  UsiMultiServiceOptions options;
  options.threads = 2;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(2500, 8, 231);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const std::vector<Text> patterns = PatternsFor(ws, 232);
  const std::vector<MultiQuery> queries = QueriesFor("t", patterns);
  std::vector<QueryResult> results(queries.size());
  ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);
  UsiOptions direct_options;
  direct_options.threads = 1;
  const UsiIndex direct(ws, direct_options);
  const std::vector<QueryResult> want = DirectAnswers(direct, patterns);

  // Same batch, faulting engine: without the opt-in this is
  // kIndexUnavailable (PR 8); with it, tier answers within bounds.
  failpoint::Arm("serve.mapped_fault", failpoint::Action::kError,
                 /*fires=*/1);
  EXPECT_EQ(service.QueryBatchInto(queries, results),
            ServeStatus::kIndexUnavailable);

  failpoint::Arm("serve.mapped_fault", failpoint::Action::kError,
                 /*fires=*/1);
  MultiBatchOptions batch_options;
  batch_options.allow_degraded = true;
  EXPECT_EQ(service.QueryBatchInto(queries, results, batch_options),
            ServeStatus::kDegraded);
  ExpectWithinBounds(results, want);
  for (const QueryResult& r : results) {
    EXPECT_NE(r.provenance, AnswerProvenance::kNone);
  }
}

TEST_F(DegradationTest, DeadlineExpiryFillsUnreachedSlotsFromTier) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(2500, 8, 241);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const std::vector<Text> patterns = PatternsFor(ws, 242);
  const std::vector<MultiQuery> queries = QueriesFor("t", patterns);
  std::vector<QueryResult> results(queries.size());
  ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);
  UsiOptions direct_options;
  direct_options.threads = 1;
  const UsiIndex direct(ws, direct_options);
  const std::vector<QueryResult> want = DirectAnswers(direct, patterns);

  // Expired deadline, no opt-in: unreached slots are kNone fillers.
  MultiBatchOptions batch_options;
  batch_options.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  EXPECT_EQ(service.QueryBatchInto(queries, results, batch_options),
            ServeStatus::kDeadlineExceeded);
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.provenance, AnswerProvenance::kNone);
  }

  // Expired deadline with the opt-in: the status still reports the missed
  // deadline, but the unreached slots carry tier answers within bounds.
  batch_options.allow_degraded = true;
  EXPECT_EQ(service.QueryBatchInto(queries, results, batch_options),
            ServeStatus::kDeadlineExceeded);
  ExpectWithinBounds(results, want);
  for (const QueryResult& r : results) {
    EXPECT_NE(r.provenance, AnswerProvenance::kNone)
        << "warm tier must fill every unreached slot";
  }
}

TEST_F(DegradationTest, OverloadShedsToTierNotRejection) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  options.max_inflight_cost_ms = 1e-6;  // Any concurrent pair overflows.
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(4000, 8, 251);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  std::vector<Text> patterns = PatternsFor(ws, 252);
  std::vector<MultiQuery> queries;
  for (int rep = 0; rep < 40; ++rep) {
    for (const Text& p : patterns) queries.push_back({"t", p});
  }
  std::vector<QueryResult> warm(queries.size());
  ASSERT_EQ(service.QueryBatchInto(queries, warm), ServeStatus::kOk);
  UsiOptions direct_options;
  direct_options.threads = 1;
  const UsiIndex direct(ws, direct_options);
  std::vector<QueryResult> want;
  for (const MultiQuery& q : queries) {
    want.push_back(direct.Query(q.pattern));
  }

  MultiBatchOptions batch_options;
  batch_options.allow_degraded = true;
  std::atomic<u64> ok{0}, degraded{0}, other{0};
  for (int round = 0; round < 25 && degraded.load() == 0; ++round) {
    constexpr int kThreads = 4;
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        std::vector<QueryResult> results(queries.size());
        start.arrive_and_wait();
        const ServeStatus status =
            service.QueryBatchInto(queries, results, batch_options);
        if (status == ServeStatus::kOk) {
          ok.fetch_add(1);
        } else if (status == ServeStatus::kDegraded) {
          degraded.fetch_add(1);
          ExpectWithinBounds(results, want);
        } else {
          other.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_GT(ok.load(), 0u) << "someone must always be admitted";
  EXPECT_GT(degraded.load(), 0u) << "sheds must degrade, not reject";
  EXPECT_EQ(other.load(), 0u)
      << "with allow_degraded no batch is rejected outright";
  EXPECT_EQ(service.stats().overload_rejected, 0u);
  EXPECT_GE(service.stats().degraded_batches, degraded.load());
}

TEST_F(DegradationTest, UnknownTextStaysAllOrNothingWhenDegraded) {
  UsiMultiServiceOptions options;
  options.threads = 1;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(1500, 8, 261);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const Text pattern = ws.Fragment(0, 4);
  const std::vector<MultiQuery> queries = {{"t", pattern}, {"ghost", pattern}};
  std::vector<QueryResult> results(queries.size(), QueryResult{-1, 777});
  MultiBatchOptions batch_options;
  batch_options.allow_degraded = true;
  EXPECT_EQ(service.QueryBatchInto(queries, results, batch_options),
            ServeStatus::kUnknownText);
  EXPECT_EQ(results[0].occurrences, 777u)
      << "kUnknownText must not touch result slots, degraded or not";
}

TEST_F(DegradationTest, DisabledTierKeepsFailCleanBehavior) {
  if (!failpoint::kEnabled) GTEST_SKIP() << "built without USI_FAILPOINTS";
  UsiMultiServiceOptions options;
  options.threads = 1;
  options.max_build_retries = 0;
  options.enable_degraded_tier = false;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(1500, 8, 271);

  failpoint::Arm("multi.build", failpoint::Action::kThrow);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kFailed);

  const std::vector<MultiQuery> queries = {{"t", ws.Fragment(0, 4)}};
  std::vector<QueryResult> results(1);
  MultiBatchOptions batch_options;
  batch_options.allow_degraded = true;
  EXPECT_EQ(service.QueryBatchInto(queries, results, batch_options),
            ServeStatus::kNotReady)
      << "allow_degraded is a no-op when the tier is disabled";

  failpoint::DisarmAll();
  service.UpdateText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);
  const std::optional<UsiTextStats> stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(stats->degraded.has_value());
}

TEST_F(DegradationTest, ContentUpdateForgetsStaleTierAnswers) {
  if (!failpoint::kEnabled) GTEST_SKIP() << "built without USI_FAILPOINTS";
  UsiMultiServiceOptions options;
  options.threads = 2;
  options.max_build_retries = 0;
  UsiMultiService service(options);
  const WeightedString ws1 = RandomWeighted(2000, 8, 281);
  const WeightedString ws2 = RandomWeighted(2100, 8, 282);
  service.SubmitText("t", ws1);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const std::vector<Text> patterns = PatternsFor(ws1, 283);
  const std::vector<MultiQuery> queries = QueriesFor("t", patterns);
  std::vector<QueryResult> results(queries.size());
  ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);

  // New content whose build dies: the tier was reset by UpdateText, so the
  // answers learned over ws1 must NOT resurface as "cached, bound 0" —
  // they describe the wrong text. Honest kNone is the only valid answer.
  failpoint::Arm("multi.build", failpoint::Action::kThrow);
  service.UpdateText("t", ws2);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kFailed);
  failpoint::Arm("serve.mapped_fault", failpoint::Action::kError);
  MultiBatchOptions batch_options;
  batch_options.allow_degraded = true;
  EXPECT_EQ(service.QueryBatchInto(queries, results, batch_options),
            ServeStatus::kDegraded);
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.provenance, AnswerProvenance::kNone)
        << "stale answers across a content change would be silent lies";
  }
}

// ---------------------------------------------------------------------------
// Content epochs: tier answers always describe the content readers see.

/// Integer weights keep kSum exact in double, so brute force and the index
/// agree bit for bit whatever the summation order.
WeightedString IntegerWeighted(index_t n, u32 sigma, u64 seed) {
  Rng rng(seed);
  Text text(n);
  for (auto& c : text) c = static_cast<Symbol>(rng.UniformBelow(sigma));
  std::vector<double> weights(n);
  for (auto& w : weights) w = static_cast<double>(rng.UniformInRange(1, 5));
  return WeightedString(std::move(text), std::move(weights));
}

std::vector<QueryResult> BruteAnswers(const WeightedString& ws,
                                      const std::vector<Text>& patterns) {
  std::vector<QueryResult> want(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    want[i] = testing::BruteUtility(ws, patterns[i], GlobalUtilityKind::kSum);
  }
  return want;
}

/// Every string over {0..sigma-1} of length 1..max_len: short patterns
/// whose answers move with nearly every content change.
std::vector<Text> AllShortPatterns(u32 sigma, std::size_t max_len) {
  std::vector<Text> patterns;
  std::vector<Text> frontier = {Text{}};
  for (std::size_t len = 1; len <= max_len; ++len) {
    std::vector<Text> next;
    for (const Text& prefix : frontier) {
      for (u32 c = 0; c < sigma; ++c) {
        Text p = prefix;
        p.push_back(static_cast<Symbol>(c));
        next.push_back(p);
        patterns.push_back(std::move(p));
      }
    }
    frontier = std::move(next);
  }
  return patterns;
}

MultiBatchOptions ExpiredDegraded() {
  MultiBatchOptions options;
  options.allow_degraded = true;
  options.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  return options;
}

TEST_F(DegradationTest, RebuildPublishForgetsAnswersTheOldGenerationServed) {
  // Deterministic window: a 1-wide injected pool whose only worker is
  // parked on a latch, so UpdateText's build cannot start while the old
  // generation keeps serving (inline, on this thread) and refilling the
  // tier with answers about the OLD text.
  ThreadPool pool(1);
  UsiMultiService service(&pool);
  const WeightedString ws1 = IntegerWeighted(400, 3, 0xE1);
  const WeightedString ws2 = IntegerWeighted(420, 3, 0xE2);
  service.SubmitText("t", ws1);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  std::latch started(1);
  std::latch release(1);
  pool.Run([&] {
    started.count_down();
    release.wait();
  });
  started.wait();
  service.UpdateText("t", ws2);

  const std::vector<Text> patterns = AllShortPatterns(3, 4);
  const std::vector<MultiQuery> queries = QueriesFor("t", patterns);
  const std::vector<QueryResult> want1 = BruteAnswers(ws1, patterns);
  const std::vector<QueryResult> want2 = BruteAnswers(ws2, patterns);
  std::size_t differ = 0;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    differ += want1[i].occurrences != want2[i].occurrences ? 1 : 0;
  }
  ASSERT_GT(differ, patterns.size() / 2) << "texts must disagree to test";

  std::vector<QueryResult> results(queries.size());
  ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].occurrences, want1[i].occurrences)
        << "the old generation serves until the build publishes";
  }

  // Publish the new text; the tier must not replay the window's answers.
  release.count_down();
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);
  ASSERT_EQ(service.StatsFor("t")->generation, 2u);
  EXPECT_EQ(service.QueryBatchInto(queries, results, ExpiredDegraded()),
            ServeStatus::kDeadlineExceeded);
  ExpectWithinBounds(results, want2);

  // Exact serving on the new generation relearns; replay is correct and
  // complete again.
  ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);
  EXPECT_EQ(service.QueryBatchInto(queries, results, ExpiredDegraded()),
            ServeStatus::kDeadlineExceeded);
  ExpectWithinBounds(results, want2);
  for (const QueryResult& r : results) {
    EXPECT_NE(r.provenance, AnswerProvenance::kNone);
  }
}

TEST_F(DegradationTest, AppendsBesideReadersNeverLeaveStaleTierAnswers) {
  // A batch that read the overlay before an append must not record its
  // (pre-append) answers after that append's tier bump. Readers hammer
  // while one thread appends (with compactions folding the delta in the
  // background); once everything is quiet, every tier answer must match
  // brute force over the final content.
  UsiMultiServiceOptions options;
  options.threads = 2;
  options.delta_compact_threshold = 96;
  UsiMultiService service(options);
  const WeightedString base = IntegerWeighted(300, 3, 0xA1);
  service.SubmitText("t", base);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const std::vector<Text> patterns = AllShortPatterns(3, 5);
  const std::vector<MultiQuery> queries = QueriesFor("t", patterns);
  Text full = base.text();
  std::vector<double> weights = base.weights();
  Rng rng(0xA2);
  constexpr int kAppends = 1500;
  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<u64> failures{0};
  std::latch start(kReaders + 1);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      std::vector<QueryResult> results(queries.size());
      start.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        if (service.QueryBatchInto(queries, results) != ServeStatus::kOk) {
          failures.fetch_add(1);
        }
      }
    });
  }
  start.arrive_and_wait();
  for (int i = 0; i < kAppends; ++i) {
    const Symbol c = static_cast<Symbol>(rng.UniformBelow(3));
    const double w = static_cast<double>(rng.UniformInRange(1, 5));
    ASSERT_EQ(service.AppendText("t", Text(1, c), std::vector<double>{w}),
              ServeStatus::kOk);
    full.push_back(c);
    weights.push_back(w);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  service.WaitForBuilds();
  EXPECT_EQ(failures.load(), 0u);
  const DegradedTierStats tier = service.StatsFor("t")->degraded.value();
  // Epoch 1 at creation; SubmitText bumps when it schedules and again when
  // the build publishes; then one bump per append (compactions republish
  // the same content and do not bump).
  EXPECT_EQ(tier.epoch, 3u + kAppends);
  EXPECT_GT(service.StatsFor("t")->compactions, 0u);

  // Relearn half the patterns on the quiet final content; the other half
  // holds whatever the racing readers left behind.
  const std::size_t half = queries.size() / 2;
  std::vector<QueryResult> results(queries.size());
  ASSERT_EQ(service.QueryBatchInto(
                std::span<const MultiQuery>(queries.data(), half),
                std::span<QueryResult>(results.data(), half)),
            ServeStatus::kOk);
  EXPECT_EQ(service.QueryBatchInto(queries, results, ExpiredDegraded()),
            ServeStatus::kDeadlineExceeded);
  const std::vector<QueryResult> want =
      BruteAnswers(WeightedString(full, weights), patterns);
  ExpectWithinBounds(results, want);
  for (std::size_t i = 0; i < half; ++i) {
    EXPECT_EQ(results[i].provenance, AnswerProvenance::kCached) << i;
  }
}

// ---------------------------------------------------------------------------
// The table rung: a table-backed group (heap generation, no newer declared
// content, no appends) answers its table hits from the pinned H on every
// degraded rung, so the tier records only the table misses.

/// A text and pattern set with both table hits and misses: k = 40 keeps the
/// short heavy patterns resident in H, the rest go to the SA path.
UsiMultiServiceOptions TableRungOptions() {
  UsiMultiServiceOptions options;
  options.threads = 2;
  options.default_build.k = 40;
  return options;
}

std::size_t CountTableHits(const std::vector<QueryResult>& results) {
  std::size_t hits = 0;
  for (const QueryResult& r : results) hits += r.from_hash_table ? 1 : 0;
  return hits;
}

/// One degraded batch of a table-backed group: every slot within its bound,
/// the exact path's table hits answered by H (kCached, bound 0,
/// from_hash_table set), and every miss answered by the tier.
void ExpectTableRung(const std::vector<QueryResult>& got,
                     const std::vector<QueryResult>& want,
                     const std::vector<QueryResult>& exact) {
  ExpectWithinBounds(got, want);
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::size_t p = i % exact.size();
    if (exact[p].from_hash_table) {
      EXPECT_EQ(got[i].provenance, AnswerProvenance::kCached) << i;
      EXPECT_TRUE(got[i].from_hash_table) << i;
    } else {
      EXPECT_NE(got[i].provenance, AnswerProvenance::kNone) << i;
      EXPECT_FALSE(got[i].from_hash_table) << "misses come from the tier";
    }
  }
}

TEST_F(DegradationTest, TableBackedGroupRecordsOnlyTableMisses) {
  UsiMultiService service(TableRungOptions());
  const WeightedString ws = IntegerWeighted(400, 3, 0xB1);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const std::vector<Text> patterns = AllShortPatterns(3, 4);
  const std::vector<MultiQuery> queries = QueriesFor("t", patterns);
  std::vector<QueryResult> results(queries.size());
  ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);
  const std::size_t hits = CountTableHits(results);
  ASSERT_GT(hits, 0u);
  ASSERT_LT(hits, results.size());

  const DegradedTierStats tier = service.StatsFor("t")->degraded.value();
  EXPECT_EQ(tier.records, results.size() - hits)
      << "a table-backed group records exactly its table misses";
  EXPECT_EQ(tier.record_drops, 0u);
  EXPECT_EQ(tier.stale_drops, 0u);
}

TEST_F(DegradationTest, TableRungAnswersHitsExactlyOnEveryRung) {
  UsiMultiServiceOptions options = TableRungOptions();
  options.max_inflight_batches = 1;  // Any concurrent pair sheds.
  UsiMultiService service(options);
  const WeightedString ws = IntegerWeighted(400, 3, 0xB2);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const std::vector<Text> patterns = AllShortPatterns(3, 4);
  const std::vector<MultiQuery> queries = QueriesFor("t", patterns);
  const std::vector<QueryResult> want = BruteAnswers(ws, patterns);
  std::vector<QueryResult> exact(queries.size());
  ASSERT_EQ(service.QueryBatchInto(queries, exact), ServeStatus::kOk);
  ExpectWithinBounds(exact, want);
  const std::size_t hits = CountTableHits(exact);
  ASSERT_GT(hits, 0u);
  ASSERT_LT(hits, exact.size());

  // Deadline rung.
  std::vector<QueryResult> results(queries.size());
  EXPECT_EQ(service.QueryBatchInto(queries, results, ExpiredDegraded()),
            ServeStatus::kDeadlineExceeded);
  ExpectTableRung(results, want, exact);
  EXPECT_EQ(service.stats().degraded_table_answers, hits);
  EXPECT_EQ(service.stats().degraded_answers, queries.size());

  // Overload shed: concurrent copies of a long batch; the one over the
  // in-flight cap pins the text and answers down the same ladder.
  constexpr int kRepeats = 20;
  std::vector<MultiQuery> big;
  std::vector<QueryResult> big_want;
  for (int rep = 0; rep < kRepeats; ++rep) {
    big.insert(big.end(), queries.begin(), queries.end());
    big_want.insert(big_want.end(), want.begin(), want.end());
  }
  MultiBatchOptions degrade;
  degrade.allow_degraded = true;
  std::mutex shed_mu;
  std::vector<std::vector<QueryResult>> shed;
  for (int round = 0; round < 50 && shed.empty(); ++round) {
    constexpr int kThreads = 4;
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        std::vector<QueryResult> got(big.size());
        start.arrive_and_wait();
        if (service.QueryBatchInto(big, got, degrade) ==
            ServeStatus::kDegraded) {
          std::lock_guard<std::mutex> lock(shed_mu);
          shed.push_back(std::move(got));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ASSERT_FALSE(shed.empty()) << "no batch was ever shed";
  for (const std::vector<QueryResult>& got : shed) {
    ExpectTableRung(got, big_want, exact);
  }
  EXPECT_EQ(service.stats().degraded_table_answers,
            hits + shed.size() * kRepeats * hits);

  // Fault rung.
  if (failpoint::kEnabled) {
    failpoint::Arm("serve.mapped_fault", failpoint::Action::kError,
                   /*fires=*/1);
    EXPECT_EQ(service.QueryBatchInto(queries, results, degrade),
              ServeStatus::kDegraded);
    ExpectTableRung(results, want, exact);
    EXPECT_EQ(service.stats().degraded_table_answers,
              2 * hits + shed.size() * kRepeats * hits);
  }
}

TEST_F(DegradationTest, PendingUpdateTurnsTheTableRungOff) {
  // A 1-wide injected pool whose worker is parked: UpdateText's build
  // cannot start, so the old generation keeps serving while new content is
  // declared. Its H no longer describes the text, so no rung may use it.
  ThreadPool pool(1);
  UsiMultiService service(&pool, TableRungOptions());
  const WeightedString ws1 = IntegerWeighted(400, 3, 0xB3);
  const WeightedString ws2 = IntegerWeighted(420, 3, 0xB4);
  service.SubmitText("t", ws1);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const std::vector<Text> patterns = AllShortPatterns(3, 4);
  const std::vector<MultiQuery> queries = QueriesFor("t", patterns);
  std::vector<QueryResult> results(queries.size());
  ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);
  const std::size_t hits = CountTableHits(results);
  ASSERT_GT(hits, 0u);
  EXPECT_EQ(service.QueryBatchInto(queries, results, ExpiredDegraded()),
            ServeStatus::kDeadlineExceeded);
  ASSERT_EQ(service.stats().degraded_table_answers, hits);

  std::latch started(1);
  std::latch release(1);
  pool.Run([&] {
    started.count_down();
    release.wait();
  });
  started.wait();
  service.UpdateText("t", ws2);
  EXPECT_EQ(service.QueryBatchInto(queries, results, ExpiredDegraded()),
            ServeStatus::kDeadlineExceeded);
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.provenance, AnswerProvenance::kNone)
        << "neither ws1's H nor ws1's tier answers may describe ws2";
  }
  EXPECT_EQ(service.stats().degraded_table_answers, hits);

  // Meanwhile the old generation is no longer table-backed: it records
  // every answer it serves.
  const u64 records_before = service.StatsFor("t")->degraded->records;
  ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);
  EXPECT_EQ(service.StatsFor("t")->degraded->records,
            records_before + queries.size());

  // The new generation's publish turns the rung back on, over ws2.
  release.count_down();
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);
  EXPECT_EQ(service.QueryBatchInto(queries, results, ExpiredDegraded()),
            ServeStatus::kDeadlineExceeded);
  ExpectWithinBounds(results, BruteAnswers(ws2, patterns));
  EXPECT_GT(service.stats().degraded_table_answers, hits);
}

TEST_F(DegradationTest, LiveOverlayRecordsEveryAnswer) {
  UsiMultiServiceOptions options = TableRungOptions();
  options.delta_compact_threshold = 0;  // Keep the overlay live.
  UsiMultiService service(options);
  const WeightedString base = IntegerWeighted(400, 3, 0xB5);
  service.SubmitText("t", base);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  // Appended symbol 3 never occurs in the base, so patterns without it
  // keep their base answers (table hits stay hits) while patterns ending
  // in it cross the boundary.
  Text full = base.text();
  std::vector<double> weights = base.weights();
  for (const double w : {2.0, 3.0}) {
    ASSERT_EQ(service.AppendText("t", Text(1, Symbol{3}),
                                 std::vector<double>{w}),
              ServeStatus::kOk);
    full.push_back(Symbol{3});
    weights.push_back(w);
  }
  const std::vector<Text> patterns = AllShortPatterns(4, 3);
  const std::vector<MultiQuery> queries = QueriesFor("t", patterns);
  const std::vector<QueryResult> want =
      BruteAnswers(WeightedString(full, weights), patterns);
  std::vector<QueryResult> results(queries.size());
  ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);
  ExpectWithinBounds(results, want);
  ASSERT_GT(CountTableHits(results), 0u);
  EXPECT_EQ(service.StatsFor("t")->degraded->records, queries.size())
      << "a group with appends past its base records every answer";

  EXPECT_EQ(service.QueryBatchInto(queries, results, ExpiredDegraded()),
            ServeStatus::kDeadlineExceeded);
  ExpectWithinBounds(results, want);
  for (const QueryResult& r : results) {
    EXPECT_NE(r.provenance, AnswerProvenance::kNone);
    EXPECT_FALSE(r.from_hash_table) << "the base's H misses the appends";
  }
  EXPECT_EQ(service.stats().degraded_table_answers, 0u);
}

// ---------------------------------------------------------------------------
// UnregisterText (satellite): RCU removal, queue purge, no hangs.

TEST_F(DegradationTest, UnregisterMakesTextUnknown) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(1500, 8, 301);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  EXPECT_TRUE(service.UnregisterText("t"));
  EXPECT_FALSE(service.HasText("t"));
  EXPECT_EQ(service.TextState("t"), BuildState::kUnknown);
  EXPECT_EQ(service.stats().texts, 0u);
  QueryResult result;
  EXPECT_EQ(service.Query("t", ws.Fragment(0, 4), result),
            ServeStatus::kUnknownText);
  EXPECT_FALSE(service.UnregisterText("t")) << "second removal reports false";
  EXPECT_FALSE(service.RemoveText("t")) << "alias shares the semantics";

  // The id is immediately reusable with fresh content.
  const WeightedString ws2 = RandomWeighted(1600, 8, 302);
  service.SubmitText("t", ws2);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);
  EXPECT_EQ(service.Query("t", ws2.Fragment(0, 4), result), ServeStatus::kOk);
}

TEST_F(DegradationTest, UnregisterPurgesQueuedBuildsWithoutHanging) {
  UsiMultiServiceOptions options;
  options.threads = 1;  // One worker: the build lane serializes everything.
  UsiMultiService service(options);
  // A large build hogs the lane while the victim's builds sit queued.
  const WeightedString hog = RandomWeighted(60'000, 8, 311);
  const WeightedString ws = RandomWeighted(1500, 8, 312);
  service.SubmitText("hog", hog);
  service.SubmitText("t", ws);
  service.UpdateText("t", ws);  // A second queued job for the same text.

  EXPECT_TRUE(service.UnregisterText("t"));
  // The dropped jobs are accounted as completed: this must return, not hang.
  service.WaitForBuilds();
  EXPECT_FALSE(service.HasText("t"));
  EXPECT_EQ(service.WaitForText("t"), BuildState::kUnknown);
  EXPECT_EQ(service.WaitForText("hog"), BuildState::kReady);
  const UsiMultiStats stats = service.stats();
  EXPECT_EQ(stats.builds_completed, stats.builds_scheduled)
      << "purged jobs must still balance the build ledger";
}

TEST_F(DegradationTest, InFlightBatchesSurviveConcurrentUnregister) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(3000, 8, 321);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const std::vector<Text> patterns = PatternsFor(ws, 322);
  const std::vector<MultiQuery> queries = QueriesFor("t", patterns);
  UsiOptions direct_options;
  direct_options.threads = 1;
  const UsiIndex direct(ws, direct_options);
  const std::vector<QueryResult> want = DirectAnswers(direct, patterns);

  // Readers hammer while the main thread unregisters mid-stream: every
  // batch must be either fully exact (pinned generation, RCU) or a clean
  // kUnknownText rejection — never a crash or a half answer.
  constexpr int kThreads = 4;
  std::latch start(kThreads + 1);
  std::atomic<u64> served{0}, unknown{0}, anomalies{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<QueryResult> results(queries.size());
      start.arrive_and_wait();
      for (int round = 0; round < 50; ++round) {
        const ServeStatus status = service.QueryBatchInto(queries, results);
        if (status == ServeStatus::kOk) {
          served.fetch_add(1);
          for (std::size_t i = 0; i < results.size(); ++i) {
            if (results[i].utility != want[i].utility ||
                results[i].occurrences != want[i].occurrences) {
              anomalies.fetch_add(1);
            }
          }
        } else if (status == ServeStatus::kUnknownText) {
          unknown.fetch_add(1);
        } else {
          anomalies.fetch_add(1);
        }
      }
    });
  }
  start.arrive_and_wait();
  EXPECT_TRUE(service.UnregisterText("t"));
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(anomalies.load(), 0u);
  EXPECT_GT(unknown.load(), 0u) << "post-removal batches must reject";
}

}  // namespace
}  // namespace usi
