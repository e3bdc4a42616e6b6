#include "usi/core/degraded_tier.hpp"

#include <algorithm>

#include "usi/util/rng.hpp"

namespace usi {
namespace {

/// Base of the CMS epsilon (the classic w = ceil(e / eps) sizing).
constexpr double kEuler = 2.718281828459045;

std::size_t RoundUpPow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

DegradedTier::DegradedTier(const DegradedTierOptions& options)
    : // Popularity only steers cache admission, so its geometry tracks the
      // cache: enough buckets that hot patterns rarely fight for one.
      popularity_(std::max<std::size_t>(64, options.cache_capacity * 2), 2,
                  1.08, options.seed ^ 0x9E3779B97F4A7C15ULL) {
  if (options.cache_capacity > 0) {
    cache_.resize(RoundUpPow2(options.cache_capacity));
  }
  if (options.sketch_width > 0 && options.sketch_depth > 0 &&
      options.max_sketched_keys > 0) {
    width_ = RoundUpPow2(options.sketch_width);
    depth_ = options.sketch_depth;
    epsilon_ = kEuler / static_cast<double>(width_);
    u64 seed_state = options.seed;
    row_seeds_.resize(depth_);
    for (std::size_t row = 0; row < depth_; ++row) {
      row_seeds_[row] = Rng::SplitMix64(&seed_state);
    }
    cms_.assign(width_ * depth_, CmsCell{});
    seen_.assign(RoundUpPow2(options.max_sketched_keys) * 2, SeenSlot{});
    seen_cap_ = seen_.size() - seen_.size() / 8;  // stop at 7/8 occupancy
  }
}

PatternKey DegradedTier::KeyFor(std::span<const Symbol> pattern) {
  // FNV-1a over the symbol bytes, finished with a splitmix round: the tier
  // only needs identity consistent with itself, not the index's Karp-Rabin
  // fingerprints.
  u64 h = 0xCBF29CE484222325ULL;
  for (const Symbol s : pattern) {
    h ^= static_cast<u64>(s);
    h *= 0x100000001B3ULL;
  }
  u64 state = h;
  return PatternKey{Rng::SplitMix64(&state),
                    static_cast<u32>(pattern.size())};
}

std::size_t DegradedTier::CmsBucket(u64 hash, std::size_t row) const {
  return (Rng::Mix(hash, row_seeds_[row]) & (width_ - 1)) + row * width_;
}

void DegradedTier::RecordExact(const PatternKey& key,
                               const QueryResult& result) {
  const u64 hash = HashPatternKey(key);
  // The record path rides on every exactly-served query: never queue behind
  // the lock, drop the update instead (the tier is telemetry, not truth).
  if (!mu_.try_lock()) {
    record_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_, std::adopt_lock);
  RecordLocked(key, hash, result);
}

void DegradedTier::RecordExact(std::span<const PatternKey> keys,
                               std::span<const QueryResult> results,
                               u64 epoch) {
  USI_CHECK(keys.size() == results.size());
  if (keys.empty()) return;
  if (epoch != epoch_.load(std::memory_order_acquire)) {
    stale_drops_.fetch_add(keys.size(), std::memory_order_relaxed);
    return;
  }
  if (!mu_.try_lock()) {
    record_drops_.fetch_add(keys.size(), std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_, std::adopt_lock);
  // Recheck under the lock: a Clear() may have landed since the first look.
  if (epoch != epoch_.load(std::memory_order_relaxed)) {
    stale_drops_.fetch_add(keys.size(), std::memory_order_relaxed);
    return;
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    // A waiting Clear() is about to retire this epoch: yield the lock now
    // rather than make the content change (an append holds its text's
    // entry lock) wait out the whole group.
    if (clears_waiting_.load(std::memory_order_relaxed) != 0) {
      stale_drops_.fetch_add(keys.size() - i, std::memory_order_relaxed);
      return;
    }
    RecordLocked(keys[i], HashPatternKey(keys[i]), results[i]);
  }
}

void DegradedTier::RecordLocked(const PatternKey& key, u64 hash,
                                const QueryResult& result) {
  ++records_;
  const u32 popularity = popularity_.Insert(hash);
  if (!cache_.empty()) CacheUpsertLocked(key, hash, result, popularity);
  // Sketch rung: each distinct pattern's utility enters the count-min
  // arrays exactly once (the filter enforces it), preserving the classic
  // additive-overestimate bound relative to the inserted mass. Negative
  // utilities would break the one-sided guarantee, so they stay cache-only.
  if (width_ != 0 && result.utility >= 0 && SeenInsertLocked(hash)) {
    const u64 epoch = epoch_.load(std::memory_order_relaxed);
    for (std::size_t row = 0; row < depth_; ++row) {
      CmsCell& cell = cms_[CmsBucket(hash, row)];
      if (cell.epoch != epoch) cell = CmsCell{0, epoch, 0};
      cell.utility += result.utility;
      cell.occurrences += static_cast<u32>(result.occurrences);
    }
    sketch_mass_ += result.utility;
  }
}

bool DegradedTier::TryAnswer(const PatternKey& key, QueryResult* out) {
  const u64 hash = HashPatternKey(key);
  std::lock_guard<std::mutex> lock(mu_);
  ++lookups_;
  // Degraded traffic is still popularity evidence: keep the admission
  // signal learning even while the exact path is dark.
  const u32 popularity = popularity_.Insert(hash);
  (void)popularity;
  if (!cache_.empty() && CacheFindLocked(key, hash, out)) {
    out->from_hash_table = false;
    out->provenance = AnswerProvenance::kCached;
    out->error_bound = 0;
    ++cache_hits_;
    return true;
  }
  if (width_ != 0 && SeenContainsLocked(hash)) {
    // A sketched key wrote every one of its cells in this epoch, so all of
    // them are live here.
    double utility = cms_[CmsBucket(hash, 0)].utility;
    u32 occurrences = cms_[CmsBucket(hash, 0)].occurrences;
    for (std::size_t row = 1; row < depth_; ++row) {
      const CmsCell& cell = cms_[CmsBucket(hash, row)];
      utility = std::min(utility, cell.utility);
      occurrences = std::min(occurrences, cell.occurrences);
    }
    out->utility = utility;
    out->occurrences = static_cast<index_t>(occurrences);
    out->from_hash_table = false;
    out->provenance = AnswerProvenance::kApproximate;
    out->error_bound = epsilon_ * sketch_mass_;
    ++sketch_answers_;
    return true;
  }
  ++unanswered_;
  return false;
}

void DegradedTier::CacheUpsertLocked(const PatternKey& key, u64 hash,
                                     const QueryResult& result,
                                     u32 popularity) {
  const u64 epoch = epoch_.load(std::memory_order_relaxed);
  const std::size_t mask = cache_.size() - 1;
  const std::size_t base = hash & mask;
  const std::size_t window = std::min(kProbeWindow, cache_.size());
  std::size_t free_slot = cache_.size();
  std::size_t victim = base;
  u32 victim_popularity = ~u32{0};
  for (std::size_t w = 0; w < window; ++w) {
    const std::size_t slot = (base + w) & mask;
    CacheSlot& entry = cache_[slot];
    if (entry.epoch != epoch) {  // Empty, or left over from an old epoch.
      if (free_slot == cache_.size()) free_slot = slot;
      continue;
    }
    if (entry.key == key) {
      entry.utility = result.utility;
      entry.occurrences = result.occurrences;
      entry.popularity = std::max(entry.popularity, popularity);
      return;
    }
    if (entry.popularity < victim_popularity) {
      victim_popularity = entry.popularity;
      victim = slot;
    }
  }
  if (free_slot != cache_.size()) {
    cache_[free_slot] =
        CacheSlot{key, result.utility, result.occurrences, popularity, epoch};
    ++cache_size_;
    return;
  }
  // BSL3/BSL4 admission, windowed: a newcomer only displaces the least
  // popular incumbent of its probe window when it is strictly hotter.
  if (popularity > victim_popularity) {
    cache_[victim] =
        CacheSlot{key, result.utility, result.occurrences, popularity, epoch};
  }
}

bool DegradedTier::CacheFindLocked(const PatternKey& key, u64 hash,
                                   QueryResult* out) {
  const std::size_t mask = cache_.size() - 1;
  const std::size_t base = hash & mask;
  const std::size_t window = std::min(kProbeWindow, cache_.size());
  const u64 epoch = epoch_.load(std::memory_order_relaxed);
  for (std::size_t w = 0; w < window; ++w) {
    CacheSlot& entry = cache_[(base + w) & mask];
    if (entry.epoch != epoch || !(entry.key == key)) continue;
    out->utility = entry.utility;
    out->occurrences = entry.occurrences;
    return true;
  }
  return false;
}

bool DegradedTier::SeenInsertLocked(u64 hash) {
  // Linear probing without deletions: within one epoch, a slot from an
  // older epoch is exactly an empty slot, so it ends the chain.
  const u64 epoch = epoch_.load(std::memory_order_relaxed);
  const std::size_t mask = seen_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(hash) & mask;
  while (seen_[slot].epoch == epoch) {
    if (seen_[slot].hash == hash) return false;  // Already sketched.
    slot = (slot + 1) & mask;
  }
  if (seen_size_ >= seen_cap_) return false;  // Filter full: stop learning.
  seen_[slot] = SeenSlot{hash, epoch};
  ++seen_size_;
  return true;
}

bool DegradedTier::SeenContainsLocked(u64 hash) const {
  const u64 epoch = epoch_.load(std::memory_order_relaxed);
  const std::size_t mask = seen_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(hash) & mask;
  while (seen_[slot].epoch == epoch) {
    if (seen_[slot].hash == hash) return true;
    slot = (slot + 1) & mask;
  }
  return false;
}

void DegradedTier::Clear() {
  clears_waiting_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  clears_waiting_.fetch_sub(1, std::memory_order_relaxed);
  // O(1): every stamped slot of the old epoch now reads as empty. Release
  // pairs with epoch()'s acquire — a reader seeing the new epoch also sees
  // whatever the caller published before calling Clear().
  epoch_.store(epoch_.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
  cache_size_ = 0;
  seen_size_ = 0;
  sketch_mass_ = 0;
}

DegradedTierStats DegradedTier::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DegradedTierStats stats;
  stats.cache_capacity = cache_.size();
  stats.cache_size = cache_size_;
  stats.records = records_;
  stats.record_drops = record_drops_.load(std::memory_order_relaxed);
  stats.stale_drops = stale_drops_.load(std::memory_order_relaxed);
  stats.epoch = epoch_.load(std::memory_order_relaxed);
  stats.lookups = lookups_;
  stats.cache_hits = cache_hits_;
  stats.sketch_answers = sketch_answers_;
  stats.unanswered = unanswered_;
  stats.sketch_width = width_;
  stats.sketch_depth = depth_;
  stats.epsilon = epsilon_;
  stats.sketched_keys = seen_size_;
  stats.max_sketched_keys = seen_cap_;
  stats.sketch_mass = sketch_mass_;
  return stats;
}

std::size_t DegradedTier::SizeInBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.capacity() * sizeof(CacheSlot) +
         seen_.capacity() * sizeof(SeenSlot) +
         cms_.capacity() * sizeof(CmsCell) +
         row_seeds_.capacity() * sizeof(u64) + popularity_.SizeInBytes();
}

}  // namespace usi
