#include "replay.hpp"

#include <cstdio>

#include "stats.hpp"
#include "usi/core/multi_service.hpp"
#include "usi/hash/karp_rabin.hpp"
#include "usi/suffix/sa_search.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

double Nanos(Clock::time_point start, Clock::time_point end) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

/// Times \p fn as one span of \p layer under \p batch_id.
template <typename Fn>
void Traced(SpanLog& log, u32 batch_id, Layer layer, std::size_t items,
            Fn&& fn) {
  Span span;
  span.batch = batch_id;
  span.parent = batch_id;
  span.layer = layer;
  span.items = static_cast<u32>(items);
  span.start = Clock::now();
  fn();
  span.end = Clock::now();
  log.Add(span);
}

}  // namespace

const char* LayerName(Layer layer) {
  static const char* const kNames[kLayers] = {
      "multi.batch",    "service.batch",    "index.prepare",
      "index.batch",    "index.hit",        "index.miss",
      "kr.hash",        "sa.learned_find",  "sa.batch_find",
      "sa.plain_find",  "psw.aggregate",    "tier.record",
      "mapped.batch",   "overlay.append",   "overlay.crossing"};
  return kNames[static_cast<std::size_t>(layer)];
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "span,parent,batch,layer,start_ns,end_ns,items\n");
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file, "%zu,%u,%u,%s,%.0f,%.0f,%u\n", i + 1, s.parent, s.batch,
                 LayerName(s.layer), Nanos(origin, s.start),
                 Nanos(origin, s.end), s.items);
  }
  return std::fclose(file) == 0;
}

LayerFigures ComputeLayerFigures(const SpanLog& log) {
  // Per batch and layer: summed span time and items.
  u32 batches = 0;
  for (const Span& s : log.spans()) batches = std::max(batches, s.batch);
  std::vector<std::vector<double>> ns(kLayers,
                                      std::vector<double>(batches + 1, 0));
  std::vector<std::vector<double>> items(kLayers,
                                         std::vector<double>(batches + 1, 0));
  LayerFigures figures;
  for (const Span& s : log.spans()) {
    const std::size_t l = static_cast<std::size_t>(s.layer);
    const double span_ns = Nanos(s.start, s.end);
    ns[l][s.batch] += span_ns;
    items[l][s.batch] += s.items;
    if (s.layer != Layer::kMultiBatch) figures.replay_seconds += span_ns * 1e-9;
  }
  const auto at = [&](Layer layer) {
    return static_cast<std::size_t>(layer);
  };
  // Median over batches of a per-batch value; batches without a root span
  // (none) or, for per-item figures, without items are skipped.
  const auto median_us = [&](auto value) {
    std::vector<double> values;
    for (u32 b = 1; b <= batches; ++b) {
      if (items[at(Layer::kMultiBatch)][b] > 0) values.push_back(value(b) / 1e3);
    }
    return Median(std::move(values));
  };
  const auto per_item_ns = [&](Layer layer) {
    std::vector<double> values;
    for (u32 b = 1; b <= batches; ++b) {
      if (items[at(layer)][b] > 0) {
        values.push_back(ns[at(layer)][b] / items[at(layer)][b]);
      }
    }
    return Median(std::move(values));
  };
  const auto sum = [&](Layer layer) {
    return [&ns, l = at(layer)](u32 b) { return ns[l][b]; };
  };
  figures.multi_batch_us = median_us(sum(Layer::kMultiBatch));
  figures.service_batch_us = median_us(sum(Layer::kServiceBatch));
  figures.index_batch_us = median_us(sum(Layer::kIndexBatch));
  figures.index_prepare_us = median_us(sum(Layer::kIndexPrepare));
  figures.mapped_batch_us = median_us(sum(Layer::kMappedBatch));
  figures.multi_self_us = median_us([&](u32 b) {
    return ns[at(Layer::kMultiBatch)][b] - ns[at(Layer::kServiceBatch)][b];
  });
  figures.fanout_self_us = median_us([&](u32 b) {
    return ns[at(Layer::kServiceBatch)][b] - ns[at(Layer::kIndexBatch)][b];
  });
  figures.index_hit_ns = per_item_ns(Layer::kIndexHit);
  figures.index_miss_ns = per_item_ns(Layer::kIndexMiss);
  figures.kr_hash_ns = per_item_ns(Layer::kKrHash);
  figures.learned_find_ns = per_item_ns(Layer::kLearnedFind);
  figures.batch_find_ns = per_item_ns(Layer::kBatchFind);
  figures.plain_find_ns = per_item_ns(Layer::kPlainFind);
  figures.psw_aggregate_ns = per_item_ns(Layer::kPswAggregate);
  figures.tier_record_ns = per_item_ns(Layer::kTierRecord);
  figures.overlay_crossing_ns = per_item_ns(Layer::kOverlayCrossing);
  figures.overlay_append_us = per_item_ns(Layer::kOverlayAppend) / 1e3;
  return figures;
}

/// The copies of one text's layers.
struct Replica::TextCopy {
  const usi::WeightedString* ws = nullptr;
  std::unique_ptr<usi::UsiIndex> index;
  std::unique_ptr<usi::UsiService> service;
  std::unique_ptr<usi::UsiIndex> mapped;
  usi::DegradedTier tier;
  usi::PrefixSumWeights psw;
  usi::KarpRabinHasher hasher{usi::UsiOptions{}.hash_seed};
};

Replica::Replica(const Inputs& inputs, const std::string& image_dir)
    : inputs_(inputs), pool_(2) {
  const usi::UsiMultiServiceOptions service_options;
  usi::UsiServiceOptions per_text;
  per_text.min_shard_size = service_options.min_shard_size;
  std::vector<double> open_ms;
  for (const BenchText& text : inputs.texts) {
    auto copy = std::make_unique<TextCopy>();
    copy->ws = &text.ws;
    copy->index = std::make_unique<usi::UsiIndex>(
        text.ws, service_options.default_build);
    copy->service =
        std::make_unique<usi::UsiService>(*copy->index, &pool_, per_text);
    copy->psw = usi::PrefixSumWeights(text.ws);
    const std::string image = image_dir + "/" + text.id + ".usi3";
    USI_CHECK(copy->index->SaveToFile(image, usi::IndexFileFormat::kV3Mapped));
    for (int rep = 0; rep < 5; ++rep) {
      copy->mapped.reset();
      const Clock::time_point start = Clock::now();
      copy->mapped = usi::UsiIndex::OpenMapped(text.ws, image);
      open_ms.push_back(Nanos(start, Clock::now()) / 1e6);
      USI_CHECK(copy->mapped != nullptr);
    }
    std::remove(image.c_str());
    copies_.push_back(std::move(copy));
  }
  mapped_open_ms_ = Median(open_ms);
  if (inputs.appends_during_phase) {
    mirror_base_ = std::make_shared<const usi::WeightedString>(
        inputs.texts[0].ws);
    mirror_ = std::make_unique<usi::DeltaOverlay>(
        mirror_base_, service_options.delta_context, 1,
        copies_[0]->index->utility_kind());
  }
}

Replica::~Replica() = default;

void Replica::ReplayBatch(u32 batch_id, std::size_t pool_batch,
                          std::span<const usi::QueryResult> served,
                          SpanLog& log) {
  for (u32 t = 0; t < copies_.size(); ++t) {
    TextCopy& copy = *copies_[t];
    const usi::Text& text = copy.ws->text();
    patterns_.clear();
    served_.clear();
    for (std::size_t i = 0; i < kBatchSize; ++i) {
      const std::size_t q = pool_batch * kBatchSize + i;
      if (inputs_.text_of[q] != t) continue;
      patterns_.push_back(inputs_.patterns[q]);
      served_.push_back(served[i]);
    }
    const std::size_t n = patterns_.size();
    if (n == 0) continue;
    results_.resize(n);
    const std::span<const usi::PatternSpan> group(patterns_);
    const std::span<usi::QueryResult> out(results_);

    usi::UsiBatchStats stats;
    Traced(log, batch_id, Layer::kServiceBatch, n, [&] {
      copy.service->QueryBatchInto(group, out, &stats);
    });
    ++service_calls_;
    shards_ += stats.shards;
    Traced(log, batch_id, Layer::kIndexPrepare, n,
           [&] { copy.index->PrepareBatch(group); });
    const usi::UsiIndex& index = *copy.index;
    Traced(log, batch_id, Layer::kIndexBatch, n,
           [&] { index.QueryBatch(group, out, &scratch_); });

    miss_patterns_.clear();
    std::size_t hits = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (results_[j].from_hash_table) {
        ++hits;
      } else {
        miss_patterns_.push_back(patterns_[j]);
      }
    }
    const std::size_t misses = miss_patterns_.size();
    double sink = 0;
    Traced(log, batch_id, Layer::kIndexHit, hits, [&] {
      for (std::size_t j = 0; j < n; ++j) {
        if (results_[j].from_hash_table) sink += index.Query(patterns_[j]).utility;
      }
    });
    Traced(log, batch_id, Layer::kIndexMiss, misses, [&] {
      for (const usi::PatternSpan& p : miss_patterns_) {
        sink += index.Query(p).utility;
      }
    });
    Traced(log, batch_id, Layer::kKrHash, n, [&] {
      for (const usi::PatternSpan& p : patterns_) {
        sink += static_cast<double>(copy.hasher.Hash(p) & 1);
      }
    });
    const std::span<const usi::index_t> sa = index.sa();
    const usi::LearnedSa& learned = index.learned_sa();
    intervals_.resize(misses);
    Traced(log, batch_id, Layer::kLearnedFind, misses, [&] {
      for (const usi::PatternSpan& p : miss_patterns_) {
        sink += learned.FindInterval(text, sa, p).Count();
      }
    });
    Traced(log, batch_id, Layer::kBatchFind, misses, [&] {
      learned.FindIntervalBatch(text, sa, miss_patterns_, intervals_);
    });
    Traced(log, batch_id, Layer::kPlainFind, misses, [&] {
      for (std::size_t j = 0; j < misses; ++j) {
        intervals_[j] = usi::FindSaInterval(text, sa, miss_patterns_[j]);
      }
    });
    u64 occurrences = 0;
    const usi::GlobalUtilityKind kind = index.utility_kind();
    Traced(log, batch_id, Layer::kPswAggregate, misses, [&] {
      for (std::size_t j = 0; j < misses; ++j) {
        const usi::index_t m = miss_patterns_[j].size();
        usi::UtilityAccumulator acc;
        usi::VisitSaInterval(sa, intervals_[j], copy.psw.data(),
                             [&](usi::index_t pos) {
                               acc.Add(copy.psw.LocalUtility(pos, m), kind);
                             });
        occurrences += acc.count;
        sink += acc.Finalize(kind);
      }
    });
    misses_ += misses;
    miss_occurrences_ += occurrences;
    Traced(log, batch_id, Layer::kTierRecord, n, [&] {
      for (std::size_t j = 0; j < n; ++j) {
        copy.tier.RecordExact(usi::DegradedTier::KeyFor(patterns_[j]),
                              served_[j]);
      }
    });
    copy.mapped->PrepareBatch(group);
    Traced(log, batch_id, Layer::kMappedBatch, n,
           [&] { copy.mapped->QueryBatch(group, out, &scratch_); });
    if (t == 0 && mirror_ != nullptr) {
      auto read = mirror_->LockForRead();
      Traced(log, batch_id, Layer::kOverlayCrossing, n, [&] {
        for (const usi::PatternSpan& p : patterns_) {
          sink += mirror_->QueryCrossingLocked(p, overlay_scratch_).utility;
        }
      });
    }
    sink_ += sink;
  }
}

void Replica::MirrorAppends(index_t base_appended, index_t committed,
                            u32 batch_id, SpanLog& log) {
  if (mirror_ == nullptr) return;
  if (base_appended != mirror_base_appended_ && base_appended <= committed) {
    // The service compacted: re-seed the mirror over the new base, as the
    // service's successor overlay does (outside any span).
    const usi::WeightedString& base = inputs_.texts[0].ws;
    usi::Text text = base.text();
    std::vector<double> weights = base.weights();
    text.insert(text.end(), inputs_.append_symbols.begin(),
                inputs_.append_symbols.begin() + base_appended);
    weights.insert(weights.end(), inputs_.append_weights.begin(),
                   inputs_.append_weights.begin() + base_appended);
    mirror_.reset();
    mirror_base_ = std::make_shared<const usi::WeightedString>(
        std::move(text), std::move(weights));
    mirror_ = std::make_unique<usi::DeltaOverlay>(
        mirror_base_, usi::UsiMultiServiceOptions{}.delta_context,
        base_appended + 1, copies_[0]->index->utility_kind());
    mirror_base_appended_ = base_appended;
    mirror_appended_ = base_appended;
  }
  if (committed <= mirror_appended_) return;
  Traced(log, batch_id, Layer::kOverlayAppend, committed - mirror_appended_,
         [&] {
           for (index_t k = mirror_appended_; k < committed; ++k) {
             mirror_->Append({&inputs_.append_symbols[k], 1},
                             {&inputs_.append_weights[k], 1});
           }
         });
  mirror_appended_ = committed;
}

double Replica::ClearTierUs() {
  std::vector<double> us;
  for (int rep = 0; rep < 5; ++rep) {
    for (auto& copy : copies_) {
      if (rep > 0) {
        // Refill from the oracle: every distinct pooled pattern once.
        for (std::size_t q = 0; q < inputs_.patterns.size(); ++q) {
          const Answer& answer = inputs_.base_answers[inputs_.key_of[q]];
          usi::QueryResult r;
          r.utility = answer.utility;
          r.occurrences = answer.occurrences;
          copy->tier.RecordExact(usi::DegradedTier::KeyFor(inputs_.patterns[q]),
                                 r);
        }
      }
      const Clock::time_point start = Clock::now();
      copy->tier.Clear();
      us.push_back(Nanos(start, Clock::now()) / 1e3);
    }
  }
  return Median(std::move(us));
}

double Replica::bytes_per_symbol() const {
  double bytes = 0;
  double symbols = 0;
  for (const auto& copy : copies_) {
    bytes += static_cast<double>(copy->index->SizeInBytes());
    symbols += copy->ws->size();
  }
  return bytes / symbols;
}

double Replica::shards_per_batch() const {
  return service_calls_ == 0 ? 0
                             : static_cast<double>(shards_) /
                                   static_cast<double>(service_calls_);
}

}  // namespace perfbench
