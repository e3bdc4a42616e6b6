#ifndef PERFBENCH_REPLAY_HPP_
#define PERFBENCH_REPLAY_HPP_

/// \file replay.hpp
/// The traced run's layer attribution.
///
/// A Replica holds bench-owned copies of the layers under UsiMultiService,
/// built with the service's options (builds are deterministic, so each copy
/// equals the service's generation): per text a UsiIndex, a UsiService over a
/// 2-wide pool, a DegradedTier, a v3 mapped image of the index, and for
/// append_mix a DeltaOverlay that mirrors the run's appends. ReplayBatch
/// sends one measured batch down those layers' public functions, recording
/// one span per layer call into a SpanLog whose parent is the batch's
/// QueryBatchInto span. A layer's self time is its span minus the replay of
/// the layer below on the same batch.

#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "usi/core/degraded_tier.hpp"
#include "usi/core/update_tier.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/core/usi_service.hpp"
#include "usi/parallel/thread_pool.hpp"

namespace perfbench {

/// Span names: the layer call each span wraps.
enum class Layer : u32 {
  kMultiBatch,       ///< UsiMultiService::QueryBatchInto (the root span).
  kServiceBatch,     ///< UsiService::QueryBatchInto, per text group.
  kIndexPrepare,     ///< UsiIndex::PrepareBatch.
  kIndexBatch,       ///< UsiIndex::QueryBatch, one thread, one scratch.
  kIndexHit,         ///< UsiIndex::Query over the group's table hits.
  kIndexMiss,        ///< UsiIndex::Query over the group's table misses.
  kKrHash,           ///< KarpRabinHasher::Hash over the group.
  kLearnedFind,      ///< LearnedSa::FindInterval over the misses.
  kBatchFind,        ///< LearnedSa::FindIntervalBatch over the misses.
  kPlainFind,        ///< FindSaInterval over the misses.
  kPswAggregate,     ///< VisitSaInterval + LocalUtility over the misses.
  kTierRecord,       ///< DegradedTier::KeyFor + RecordExact per answer.
  kMappedBatch,      ///< UsiIndex::QueryBatch on the mapped image.
  kOverlayAppend,    ///< DeltaOverlay::Append of the appends since last batch.
  kOverlayCrossing,  ///< DeltaOverlay::QueryCrossingLocked over the group.
  kCount,
};

const char* LayerName(Layer layer);

/// One recorded span. `batch` is the measured batch's span id (1-based);
/// the root span of a batch has parent 0, every replay span has the batch
/// as parent. `items` is how many patterns / answers / appends it covered.
struct Span {
  u32 batch = 0;
  u32 parent = 0;
  Layer layer = Layer::kMultiBatch;
  u32 items = 0;
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point end;
};

/// In-memory span store, written out once the run ends.
class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 20); }
  void Add(const Span& span) { spans_.push_back(span); }
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one CSV line per span; returns false on I/O failure.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Per-layer figures derived from a SpanLog: medians over batches of the
/// per-batch sums (microseconds) and of per-item costs (nanoseconds).
struct LayerFigures {
  double multi_batch_us = 0;
  double multi_self_us = 0;
  double service_batch_us = 0;
  double fanout_self_us = 0;
  double index_prepare_us = 0;
  double index_batch_us = 0;
  double mapped_batch_us = 0;
  double index_hit_ns = 0;
  double index_miss_ns = 0;
  double kr_hash_ns = 0;
  double learned_find_ns = 0;
  double batch_find_ns = 0;
  double plain_find_ns = 0;
  double psw_aggregate_ns = 0;
  double tier_record_ns = 0;
  double overlay_crossing_ns = 0;
  double overlay_append_us = 0;
  /// Total time inside replay spans (everything but the root spans).
  double replay_seconds = 0;
};

LayerFigures ComputeLayerFigures(const SpanLog& log);

class Replica {
 public:
  /// Builds the copies; v3 images are saved under \p image_dir.
  Replica(const Inputs& inputs, const std::string& image_dir);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Replays pooled batch \p pool_batch (served by the service as span
  /// \p batch_id with answers \p served) down the layers.
  void ReplayBatch(u32 batch_id, std::size_t pool_batch,
                   std::span<const usi::QueryResult> served, SpanLog& log);

  /// Brings the mirror overlay to \p committed appended symbols, over a base
  /// holding the first \p base_appended of them (the service's boundary
  /// after its latest compaction). Appends are recorded under \p batch_id.
  void MirrorAppends(index_t base_appended, index_t committed, u32 batch_id,
                     SpanLog& log);

  /// Median Clear() time of a filled tier, microseconds (tiers are refilled
  /// from the oracle between samples).
  double ClearTierUs();

  /// Median UsiIndex::OpenMapped time over all texts' images, milliseconds.
  double mapped_open_ms() const { return mapped_open_ms_; }

  /// Index bytes per text symbol over all texts.
  double bytes_per_symbol() const;

  /// Shards per replayed service call, misses and their occurrences.
  double shards_per_batch() const;
  u64 misses() const { return misses_; }
  u64 miss_occurrences() const { return miss_occurrences_; }

 private:
  struct TextCopy;

  const Inputs& inputs_;
  usi::ThreadPool pool_;
  std::vector<std::unique_ptr<TextCopy>> copies_;
  double mapped_open_ms_ = 0;

  // Per-batch working buffers.
  std::vector<usi::PatternSpan> patterns_;
  std::vector<usi::PatternSpan> miss_patterns_;
  std::vector<usi::QueryResult> results_;
  std::vector<usi::QueryResult> served_;
  std::vector<usi::SaInterval> intervals_;
  usi::QueryScratch scratch_;

  // append_mix mirror of the service's overlay on texts[0].
  std::shared_ptr<const usi::WeightedString> mirror_base_;
  std::unique_ptr<usi::DeltaOverlay> mirror_;
  index_t mirror_base_appended_ = 0;
  index_t mirror_appended_ = 0;
  usi::DeltaOverlay::Scratch overlay_scratch_;

  u64 service_calls_ = 0;
  u64 shards_ = 0;
  u64 misses_ = 0;
  u64 miss_occurrences_ = 0;
  double sink_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_HPP_
