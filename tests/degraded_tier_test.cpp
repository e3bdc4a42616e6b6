// Unit tests for the per-text degradation tier (core/degraded_tier.hpp):
// the cache rung replays exact answers with bound 0, the sketch rung
// answers within its advertised epsilon * mass bound and never
// under-estimates, unknown patterns stay unanswered (kNone at the serving
// layer), Clear forgets learned state, and the telemetry snapshot reports
// the geometry usi_inspect prints. Clear is an O(1) content-epoch bump:
// records tagged with an older epoch are dropped, and a tier cleared many
// times behaves exactly like a freshly built one fed the same stream.

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/core/degraded_tier.hpp"

namespace usi {
namespace {

using testing::T;

QueryResult Exact(double utility, index_t occurrences) {
  QueryResult result;
  result.utility = utility;
  result.occurrences = occurrences;
  return result;
}

TEST(DegradedTier, KeyForIsDeterministicAndLengthAware) {
  const Text a = T("banana");
  const Text b = T("banana");
  const Text c = T("banan");
  EXPECT_TRUE(DegradedTier::KeyFor(a) == DegradedTier::KeyFor(b));
  EXPECT_FALSE(DegradedTier::KeyFor(a) == DegradedTier::KeyFor(c));
  EXPECT_EQ(DegradedTier::KeyFor(c).len, 5u);
}

TEST(DegradedTier, CacheHitReplaysExactAnswerWithZeroBound) {
  DegradedTier tier;
  const PatternKey key = DegradedTier::KeyFor(T("needle"));
  tier.RecordExact(key, Exact(12.5, 3));

  QueryResult got;
  ASSERT_TRUE(tier.TryAnswer(key, &got));
  EXPECT_EQ(got.provenance, AnswerProvenance::kCached);
  EXPECT_EQ(got.error_bound, 0.0);
  EXPECT_EQ(got.utility, 12.5);
  EXPECT_EQ(got.occurrences, 3u);
  EXPECT_FALSE(got.from_hash_table);

  const DegradedTierStats stats = tier.stats();
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.lookups, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_DOUBLE_EQ(stats.CacheHitRate(), 1.0);
}

TEST(DegradedTier, SketchRungNeverUnderEstimatesAndHonorsBound) {
  // Cache rung disabled: every answer must come from the count-min sketch.
  DegradedTierOptions options;
  options.cache_capacity = 0;
  options.sketch_width = 256;
  options.sketch_depth = 4;
  DegradedTier tier(options);

  Rng rng(0x5EED);
  std::vector<PatternKey> keys;
  std::vector<QueryResult> exact;
  for (int i = 0; i < 2000; ++i) {
    // Unique by construction (the index is encoded in the prefix), so each
    // key has exactly one exact answer to compare against.
    Text pattern = {static_cast<Symbol>(i & 0xFF),
                    static_cast<Symbol>((i >> 8) & 0xFF)};
    const std::size_t len = 1 + rng.UniformBelow(12);
    for (std::size_t j = 0; j < len; ++j) {
      pattern.push_back(static_cast<Symbol>(rng.UniformBelow(8)));
    }
    const PatternKey key = DegradedTier::KeyFor(pattern);
    const QueryResult answer =
        Exact(rng.UniformDouble() * 10.0,
              static_cast<index_t>(1 + rng.UniformBelow(20)));
    tier.RecordExact(key, answer);
    keys.push_back(key);
    exact.push_back(answer);
  }

  const DegradedTierStats stats = tier.stats();
  ASSERT_GT(stats.sketched_keys, 0u);
  ASSERT_GT(stats.sketch_mass, 0.0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    QueryResult got;
    if (!tier.TryAnswer(keys[i], &got)) continue;  // Duplicate key dropped.
    EXPECT_EQ(got.provenance, AnswerProvenance::kApproximate);
    EXPECT_DOUBLE_EQ(got.error_bound, stats.epsilon * stats.sketch_mass);
    // One-sided CMS guarantee: never below the recorded exact answer. The
    // per-answer over-estimate can exceed the advertised bound only with
    // probability e^-depth; the aggregate check lives in sketch_bounds_test.
    EXPECT_GE(got.utility, exact[i].utility - 1e-9) << i;
    EXPECT_GE(got.occurrences, exact[i].occurrences) << i;
  }
}

TEST(DegradedTier, DuplicateRecordsEnterTheSketchOnce) {
  DegradedTierOptions options;
  options.cache_capacity = 0;
  DegradedTier tier(options);
  const PatternKey key = DegradedTier::KeyFor(T("hot"));
  for (int i = 0; i < 50; ++i) tier.RecordExact(key, Exact(4.0, 2));

  // Single insertion: the mass (and hence the estimate) must not scale
  // with how often the same pattern was served.
  const DegradedTierStats stats = tier.stats();
  EXPECT_EQ(stats.sketched_keys, 1u);
  EXPECT_DOUBLE_EQ(stats.sketch_mass, 4.0);
  QueryResult got;
  ASSERT_TRUE(tier.TryAnswer(key, &got));
  EXPECT_DOUBLE_EQ(got.utility, 4.0);
  EXPECT_EQ(got.occurrences, 2u);
}

TEST(DegradedTier, UnknownPatternStaysUnanswered) {
  DegradedTier tier;
  tier.RecordExact(DegradedTier::KeyFor(T("known")), Exact(1.0, 1));
  QueryResult got;
  got.utility = -7;  // Sentinel: a failed lookup must leave *out untouched.
  EXPECT_FALSE(tier.TryAnswer(DegradedTier::KeyFor(T("stranger")), &got));
  EXPECT_EQ(got.utility, -7.0);
  EXPECT_EQ(tier.stats().unanswered, 1u);
}

TEST(DegradedTier, ClearForgetsAnswersButKeepsCounters) {
  DegradedTier tier;
  const PatternKey key = DegradedTier::KeyFor(T("gone"));
  tier.RecordExact(key, Exact(2.0, 1));
  QueryResult got;
  ASSERT_TRUE(tier.TryAnswer(key, &got));

  tier.Clear();
  EXPECT_FALSE(tier.TryAnswer(key, &got))
      << "content changed: stale answers must not survive Clear";
  const DegradedTierStats stats = tier.stats();
  EXPECT_EQ(stats.cache_size, 0u);
  EXPECT_EQ(stats.sketched_keys, 0u);
  EXPECT_DOUBLE_EQ(stats.sketch_mass, 0.0);
  // Telemetry is cumulative across content versions.
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.lookups, 2u);
}

TEST(DegradedTier, ClearBumpsTheEpochAndStaleRecordsAreDropped) {
  DegradedTier tier;
  EXPECT_EQ(tier.epoch(), 1u);
  EXPECT_EQ(tier.stats().epoch, 1u);
  const PatternKey key = DegradedTier::KeyFor(T("before"));
  // A batch captures the epoch before pinning the content it serves...
  const u64 pinned = tier.epoch();
  // ...the content changes and the tier moves on...
  tier.Clear();
  EXPECT_EQ(tier.epoch(), pinned + 1);
  // ...and the batch's late record describes the old content: dropped.
  const QueryResult late = Exact(5.0, 2);
  tier.RecordExact({&key, 1}, {&late, 1}, pinned);
  QueryResult got;
  EXPECT_FALSE(tier.TryAnswer(key, &got))
      << "a record tagged with a stale epoch must never be replayed";
  DegradedTierStats stats = tier.stats();
  EXPECT_EQ(stats.stale_drops, 1u);
  EXPECT_EQ(stats.record_drops, 0u) << "stale drops are not contention";
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.cache_size, 0u);
  EXPECT_EQ(stats.sketched_keys, 0u);
  EXPECT_EQ(stats.epoch, pinned + 1);

  // A record tagged with the current epoch lands.
  const QueryResult current = Exact(6.0, 3);
  tier.RecordExact({&key, 1}, {&current, 1}, tier.epoch());
  ASSERT_TRUE(tier.TryAnswer(key, &got));
  EXPECT_EQ(got.utility, 6.0);
  EXPECT_EQ(got.occurrences, 3u);

  // A whole stale group is dropped, every record counted.
  const std::vector<PatternKey> group_keys(7, key);
  const std::vector<QueryResult> group_results(7, Exact(7.0, 4));
  tier.RecordExact(group_keys, group_results, pinned);
  stats = tier.stats();
  EXPECT_EQ(stats.stale_drops, 8u);
  EXPECT_EQ(stats.records, 1u);
  ASSERT_TRUE(tier.TryAnswer(key, &got));
  EXPECT_EQ(got.utility, 6.0);
}

TEST(DegradedTier, GroupRecordLandsEveryAnswer) {
  DegradedTier tier;
  std::vector<PatternKey> keys;
  std::vector<QueryResult> results;
  for (int i = 0; i < 5; ++i) {
    const Text pattern = {Symbol{7}, static_cast<Symbol>(i), Symbol{9}};
    keys.push_back(DegradedTier::KeyFor(pattern));
    results.push_back(Exact(1.5 * (i + 1), static_cast<index_t>(i + 1)));
  }
  tier.RecordExact(keys, results, tier.epoch());
  const DegradedTierStats stats = tier.stats();
  EXPECT_EQ(stats.records, keys.size());
  EXPECT_EQ(stats.stale_drops, 0u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    QueryResult got;
    ASSERT_TRUE(tier.TryAnswer(keys[i], &got)) << i;
    EXPECT_EQ(got.provenance, AnswerProvenance::kCached) << i;
    EXPECT_EQ(got.utility, results[i].utility) << i;
    EXPECT_EQ(got.occurrences, results[i].occurrences) << i;
  }
}

/// One tier's full observable answer state for \p keys, in order. Every
/// TryAnswer also feeds the popularity sketch, so two tiers compared this
/// way must be probed with the same sequence.
struct Observed {
  bool answered = false;
  QueryResult result;
};
std::vector<Observed> ObserveAll(DegradedTier& tier,
                                 const std::vector<PatternKey>& keys) {
  std::vector<Observed> out(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    out[i].answered = tier.TryAnswer(keys[i], &out[i].result);
  }
  return out;
}

TEST(DegradedTier, ClearedTierAnswersExactlyLikeAFreshOne) {
  // Small geometry so the older-epoch slots are everywhere the new epoch
  // writes: full cache victim windows, long filter probe chains (the
  // filter fills to its 7/8 admission cap) and shared count-min buckets.
  DegradedTierOptions options;
  options.cache_capacity = 32;
  options.sketch_width = 16;
  options.sketch_depth = 3;
  options.max_sketched_keys = 64;

  Rng rng(0xE90C);
  auto make_stream = [&](std::size_t n, u32 alphabet) {
    std::vector<std::pair<PatternKey, QueryResult>> stream;
    for (std::size_t i = 0; i < n; ++i) {
      Text pattern;
      const std::size_t len = 1 + rng.UniformBelow(4);
      for (std::size_t j = 0; j < len; ++j) {
        pattern.push_back(static_cast<Symbol>(rng.UniformBelow(alphabet)));
      }
      stream.emplace_back(DegradedTier::KeyFor(pattern),
                          Exact(static_cast<double>(rng.UniformBelow(50)),
                                static_cast<index_t>(rng.UniformBelow(9))));
    }
    return stream;
  };

  for (const int clears : {1, 2, 5, 17}) {
    DegradedTier cleared(options);
    DegradedTier fresh(options);
    std::vector<PatternKey> probe;
    // Earlier epochs: different answers for overlapping keys (the old
    // content), enough distinct keys to fill every structure.
    for (int c = 0; c < clears; ++c) {
      for (const auto& [key, answer] : make_stream(300, 6)) {
        cleared.RecordExact(key, answer);
        // The fresh twin sees the same popularity evidence (a lookup
        // inserts into the popularity sketch exactly as a record does) but
        // learns no answers: popularity survives Clear by design.
        QueryResult ignored;
        fresh.TryAnswer(key, &ignored);
        probe.push_back(key);
      }
      cleared.Clear();
    }
    // The current epoch: both tiers get the identical record stream.
    const auto stream = make_stream(200, 6);
    for (const auto& [key, answer] : stream) {
      cleared.RecordExact(key, answer);
      fresh.RecordExact(key, answer);
      probe.push_back(key);
    }

    const std::vector<Observed> want = ObserveAll(fresh, probe);
    const std::vector<Observed> got = ObserveAll(cleared, probe);
    std::size_t answered = 0;
    for (std::size_t i = 0; i < probe.size(); ++i) {
      ASSERT_EQ(got[i].answered, want[i].answered)
          << "clears " << clears << " probe " << i;
      if (!want[i].answered) continue;
      ++answered;
      EXPECT_EQ(got[i].result.provenance, want[i].result.provenance) << i;
      EXPECT_EQ(got[i].result.utility, want[i].result.utility) << i;
      EXPECT_EQ(got[i].result.occurrences, want[i].result.occurrences) << i;
      EXPECT_EQ(got[i].result.error_bound, want[i].result.error_bound) << i;
    }
    EXPECT_GT(answered, 0u);

    const DegradedTierStats a = cleared.stats();
    const DegradedTierStats b = fresh.stats();
    EXPECT_EQ(a.cache_size, b.cache_size) << "clears " << clears;
    EXPECT_EQ(a.sketched_keys, b.sketched_keys) << "clears " << clears;
    EXPECT_EQ(a.sketch_mass, b.sketch_mass) << "clears " << clears;
    EXPECT_EQ(a.epoch, b.epoch + static_cast<u64>(clears));
    // The geometry really was saturated: the filter hit its cap and the
    // cache filled, so older-epoch slots were reused on every path.
    EXPECT_EQ(b.sketched_keys, b.max_sketched_keys);
    EXPECT_EQ(b.cache_size, b.cache_capacity);
  }
}

TEST(DegradedTier, PopularPatternsDisplaceColdOnesInTheCache) {
  // A cache far smaller than the key population forces displacement; the
  // BSL3/BSL4 admission rule must keep a heavily-queried pattern resident.
  DegradedTierOptions options;
  options.cache_capacity = 16;
  options.sketch_width = 0;  // Cache rung only.
  DegradedTier tier(options);

  const Text hot_pattern = T("hothothot");
  const PatternKey hot = DegradedTier::KeyFor(hot_pattern);
  Rng rng(0xCAFE);
  for (int round = 0; round < 400; ++round) {
    tier.RecordExact(hot, Exact(9.0, 9));  // Popularity accrues per record.
    Text cold;
    for (int j = 0; j < 6; ++j) {
      cold.push_back(static_cast<Symbol>(rng.UniformBelow(200)));
    }
    tier.RecordExact(DegradedTier::KeyFor(cold),
                     Exact(rng.UniformDouble(), 1));
  }
  QueryResult got;
  EXPECT_TRUE(tier.TryAnswer(hot, &got))
      << "the hot pattern must survive 400 cold insertions";
  EXPECT_EQ(got.provenance, AnswerProvenance::kCached);
  EXPECT_DOUBLE_EQ(got.utility, 9.0);
}

TEST(DegradedTier, StatsReportGeometryAndFootprint) {
  DegradedTierOptions options;
  options.cache_capacity = 100;   // Rounds up to 128.
  options.sketch_width = 1000;    // Rounds up to 1024.
  options.sketch_depth = 5;
  DegradedTier tier(options);
  const DegradedTierStats stats = tier.stats();
  EXPECT_EQ(stats.cache_capacity, 128u);
  EXPECT_EQ(stats.sketch_width, 1024u);
  EXPECT_EQ(stats.sketch_depth, 5u);
  EXPECT_DOUBLE_EQ(stats.epsilon, 2.718281828459045 / 1024.0);
  EXPECT_EQ(stats.cache_size, 0u);
  EXPECT_DOUBLE_EQ(stats.CacheHitRate(), 0.0);
  EXPECT_GT(tier.SizeInBytes(),
            1024u * 5u * (sizeof(double) + sizeof(u32)));
}

}  // namespace
}  // namespace usi
