#ifndef USI_CORE_DEGRADED_TIER_HPP_
#define USI_CORE_DEGRADED_TIER_HPP_

/// \file degraded_tier.hpp
/// Per-text graceful-degradation tier: bounded-error answers when the exact
/// index cannot serve.
///
/// PR 8 made failure *contained* — overload, quarantined builds and mapped
/// faults return typed rejections — but a rejection still answers nothing.
/// The degraded tier closes that gap: it observes (pattern, exact answer)
/// pairs on the exact serving path and replays them on the degraded paths.
/// UsiMultiService consults the ladder when a batch opts in
/// (MultiBatchOptions::allow_degraded):
///
///   exact ─► table H ─► hot-pattern cache ─► sketch estimate ─► none
///
/// The table rung is not part of this class: it is the top-K table H of
/// the generation the batch pinned (UsiIndex::TableAnswer), used only for
/// a *table-backed* text (below). H already stores the exact answer of
/// every hot pattern, so it answers them with bound 0 and nothing to learn.
/// The tier's two rungs answer what H cannot; a slot no rung answers is a
/// kNone filler.
///
/// \par Rungs and bound semantics
///  * **Cache** (AnswerProvenance::kCached, error_bound 0): a fixed-capacity
///    open-addressed answer cache keyed by PatternKey. Admission is the
///    BSL3/BSL4 "top-K seen so far" rule of the caching baselines, learned
///    from traffic: a HeavyKeeper decay sketch estimates each pattern's
///    query popularity, and a new pattern only displaces the least-popular
///    incumbent of its probe window when it is more popular. A hit replays
///    the exact utility the pattern was last served — bound 0 relative to
///    the text content the tier learned from. Content versions are
///    tracked by a content epoch (below): within one epoch a cached answer
///    equals the exact answer, to the same 64-bit-fingerprint identity
///    standard the index's own hash table H uses.
///  * **Sketch** (AnswerProvenance::kApproximate): a count-min sketch over
///    served (fingerprint -> utility) mass. Each distinct pattern's exact
///    utility is added ONCE (an exact-membership filter of key hashes
///    enforces single insertion), so for a sketched pattern the min-over-rows
///    estimate never under-estimates U(P) and over-estimates by more than
///    epsilon * M (M = total utility mass inserted, epsilon = e / width)
///    with probability at most delta = e^-depth — the classic CMS guarantee,
///    surfaced per answer as QueryResult::error_bound = epsilon * M.
///    Occurrence counts ride in a parallel min-sketch with the same
///    geometry. Patterns the filter has never seen are NOT estimated (the
///    sketch cannot bound an answer for them) — the tier returns false and
///    the serving layer writes a kNone filler slot.
///
/// \par Content epochs
/// The tier's answers describe one version of the text's content, named by
/// a monotonically increasing 64-bit content epoch. Clear() starts a new
/// version in O(1): it bumps the epoch and zeroes the live counts, touching
/// no array and allocating nothing. Every cache slot, filter slot and
/// count-min bucket carries the epoch it was last written in; a slot from
/// an older epoch reads as empty and is reset by its next write, so the
/// filter's linear-probe chains stay exact (every older slot terminates a
/// chain, exactly as an empty one would). The stamps are 64-bit, so they
/// never wrap and no physical reset exists. Popularity (the HeavyKeeper
/// sketch) describes query traffic, not content, and survives Clear().
///
/// A record must describe the content of the epoch it lands in. The owner
/// (UsiMultiService) follows two rules:
///  * bump the epoch (Clear) only AFTER the new content is visible to
///    readers;
///  * read epoch() BEFORE pinning the content a batch serves, and record
///    through RecordExact(keys, results, epoch), which drops the records
///    when that epoch is no longer current (counted as stale drops).
/// A batch that pinned old content therefore either records before the
/// bump (and the bump invalidates it) or is dropped after it.
///
/// \par The record rule
/// A text is *table-backed* for a batch when the generation it pinned sits
/// on the heap (not mapped), no newer content has been declared
/// (SubmitText/UpdateText), and its overlay holds no appended symbols. A
/// table-backed serving group records only its table misses; its hits come
/// back from H on every degraded rung. Every other group records every
/// answer: a mapped H can sit inside a faulted mapping, and an old or
/// extended base's H does not describe what readers see.
///
/// No answer goes missing. Within one content epoch a text never stops
/// being table-backed: each event that ends it (a declaration, an append,
/// a RegisterTextFromFile publish, a build publish) bumps the epoch, so the
/// tier holds, in every epoch, every answer the table rung cannot give. A
/// compaction publish does not bump, and need not: it only ever makes a
/// text table-backed.
///
/// \par Exact-path cost
/// The record rule keeps the tier off the hot path where H serves: on a
/// hot workload (~95% table hits) a batch records only its few misses. The
/// misses of one serving group are recorded together, with one epoch check
/// and one lock acquisition. All structures are fixed-capacity arrays sized
/// at construction (no per-operation allocation, pinned by
/// query_alloc_test), and the tier lock is only ever *try*-acquired on the
/// record path — under contention the group's records are dropped, trading
/// a little learning for zero queueing. A Clear() never waits out a whole
/// group either: a group record stops at its next answer once a Clear()
/// is waiting (the rest would be stale at once). Degraded-path lookups
/// take the lock (they run when the exact path is not serving).
///
/// \par Thread safety
/// All members are safe to call concurrently; one mutex guards the
/// structures (record = try_lock + drop, lookup = lock). epoch() is a
/// lock-free atomic read.

#include <atomic>
#include <mutex>
#include <span>
#include <vector>

#include "usi/core/query_engine.hpp"
#include "usi/hash/count_min_sketch.hpp"
#include "usi/hash/pattern_key.hpp"
#include "usi/text/alphabet.hpp"
#include "usi/util/common.hpp"

namespace usi {

/// Tuning for a DegradedTier. Capacities round up to powers of two.
struct DegradedTierOptions {
  /// Hot-pattern answer cache slots (0 disables the cache rung).
  std::size_t cache_capacity = 4096;
  /// Count-min geometry: buckets per row / number of rows. The additive
  /// utility bound is (e / width) * inserted-utility-mass with failure
  /// probability e^-depth.
  std::size_t sketch_width = 4096;
  std::size_t sketch_depth = 4;
  /// Membership-filter capacity: distinct patterns the sketch will learn.
  /// Past ~7/8 occupancy the sketch stops admitting new patterns (already
  /// sketched ones keep answering) so single-insertion stays exact.
  std::size_t max_sketched_keys = 1 << 15;
  u64 seed = 0xDE62ADEDULL;
};

/// Telemetry snapshot of one tier (usi_inspect / UsiTextStats).
struct DegradedTierStats {
  std::size_t cache_capacity = 0;
  std::size_t cache_size = 0;
  u64 records = 0;         ///< Exact answers observed (post-drop).
  u64 record_drops = 0;    ///< Records dropped by try_lock contention.
  u64 stale_drops = 0;     ///< Records dropped: tagged with an old epoch.
  u64 epoch = 0;           ///< Current content epoch (bumps on Clear).
  u64 lookups = 0;         ///< Degraded-path consults.
  u64 cache_hits = 0;      ///< Lookups answered by the cache rung.
  u64 sketch_answers = 0;  ///< Lookups answered by the sketch rung.
  u64 unanswered = 0;      ///< Lookups no rung could answer.
  std::size_t sketch_width = 0;
  std::size_t sketch_depth = 0;
  double epsilon = 0;       ///< e / width: bound = epsilon * sketch_mass.
  std::size_t sketched_keys = 0;   ///< Distinct patterns in the sketch.
  std::size_t max_sketched_keys = 0;
  double sketch_mass = 0;   ///< Total utility mass inserted (the M above).

  /// Cache hit rate over degraded lookups (0 when never consulted).
  double CacheHitRate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(lookups);
  }
};

/// The per-text front tier. One instance lives on each registered text of a
/// UsiMultiService, shared across index generations (a quarantined text
/// with no servable generation is exactly when the tier earns its keep).
class DegradedTier {
 public:
  explicit DegradedTier(const DegradedTierOptions& options = {});

  /// The tier's pattern identity: a 64-bit hash of the pattern bytes plus
  /// the length. Self-consistent within the tier (it need not match the
  /// index's Karp-Rabin key — the tier is only ever consulted against what
  /// it recorded itself).
  static PatternKey KeyFor(std::span<const Symbol> pattern);

  /// The current content epoch (lock-free). Starts at 1; Clear() bumps it.
  u64 epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Observes one exactly-served answer. Never blocks: under lock
  /// contention the update is dropped. Never allocates. Records into the
  /// current epoch.
  void RecordExact(const PatternKey& key, const QueryResult& result);

  /// Observes one serving group's exact answers (keys[i] answered as
  /// results[i]; equal sizes), all computed against the content of
  /// \p epoch (read with epoch() before that content was pinned). One
  /// epoch check and one try_lock for the whole group: every record is
  /// dropped — counted in stale_drops — unless \p epoch is still current
  /// (checked lock-free, then again under the lock), and every record is
  /// dropped — counted in record_drops — when the lock is contended. A
  /// Clear() waiting for the lock stops the loop at the next record; the
  /// unrecorded rest count as stale drops. Never allocates.
  void RecordExact(std::span<const PatternKey> keys,
                   std::span<const QueryResult> results, u64 epoch);

  /// Degraded-path lookup: tries the cache rung then the sketch rung.
  /// On success writes utility/occurrences and tags \p out with
  /// provenance + error bound; returns false when no rung can answer
  /// (\p out untouched). Never allocates.
  bool TryAnswer(const PatternKey& key, QueryResult* out);

  /// Forgets every recorded answer (the owning text's content changed:
  /// they and their bounds no longer describe it) by starting a new
  /// content epoch. O(1) and allocation-free. Cumulative telemetry counters
  /// and the popularity sketch survive; live counts and sketch mass reset.
  void Clear();

  /// Telemetry snapshot.
  DegradedTierStats stats() const;

  /// Heap footprint in bytes.
  std::size_t SizeInBytes() const;

 private:
  /// One answer-cache slot (open addressing, bounded probe window). Live
  /// only when `epoch` is the tier's current epoch.
  struct CacheSlot {
    PatternKey key;
    double utility = 0;
    index_t occurrences = 0;
    u32 popularity = 0;  ///< HeavyKeeper estimate when last touched.
    u64 epoch = 0;       ///< Epoch of the last write (0 = never written).
  };
  /// One membership-filter slot: a key hash, live in its epoch only.
  struct SeenSlot {
    u64 hash = 0;
    u64 epoch = 0;
  };
  /// One count-min bucket; reads as zero outside its epoch.
  struct CmsCell {
    double utility = 0;
    u64 epoch = 0;
    u32 occurrences = 0;
  };
  static constexpr std::size_t kProbeWindow = 8;

  void RecordLocked(const PatternKey& key, u64 hash,
                    const QueryResult& result);
  void CacheUpsertLocked(const PatternKey& key, u64 hash,
                         const QueryResult& result, u32 popularity);
  bool CacheFindLocked(const PatternKey& key, u64 hash, QueryResult* out);
  /// Inserts \p hash into the membership filter; true only when newly
  /// inserted (false when already present or the filter is at capacity).
  bool SeenInsertLocked(u64 hash);
  bool SeenContainsLocked(u64 hash) const;
  std::size_t CmsBucket(u64 hash, std::size_t row) const;

  mutable std::mutex mu_;
  /// Content epoch: written only under mu_, read lock-free by epoch().
  std::atomic<u64> epoch_{1};
  /// Clear() calls waiting for mu_: a group record in progress stops at
  /// its next answer, so a content change waits out one record, not a
  /// whole group.
  std::atomic<u32> clears_waiting_{0};

  /// Query-popularity sketch feeding cache admission (HeavyKeeper).
  DecaySketch popularity_;

  std::vector<CacheSlot> cache_;  ///< Power-of-two slots; empty = disabled.
  std::size_t cache_size_ = 0;    ///< Live slots.

  /// Single-insertion membership filter: open-addressed key-hash set.
  std::vector<SeenSlot> seen_;
  std::size_t seen_size_ = 0;  ///< Live slots.
  std::size_t seen_cap_ = 0;   ///< Admission stops here (~7/8 of slots).

  /// Utility / occurrence count-min cells, width_ * depth_.
  std::size_t width_ = 0;
  std::size_t depth_ = 0;
  double epsilon_ = 0;
  std::vector<u64> row_seeds_;
  std::vector<CmsCell> cms_;
  double sketch_mass_ = 0;

  u64 records_ = 0;
  std::atomic<u64> record_drops_{0};  ///< Bumped without the lock held.
  std::atomic<u64> stale_drops_{0};   ///< Bumped without the lock held.
  u64 lookups_ = 0;
  u64 cache_hits_ = 0;
  u64 sketch_answers_ = 0;
  u64 unanswered_ = 0;
};

}  // namespace usi

#endif  // USI_CORE_DEGRADED_TIER_HPP_
