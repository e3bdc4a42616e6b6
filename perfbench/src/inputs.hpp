#ifndef PERFBENCH_INPUTS_HPP_
#define PERFBENCH_INPUTS_HPP_

/// \file inputs.hpp
/// Workload inputs of the serving benchmark and their oracle.
///
/// Everything here is generated from the workload seed before any timing:
/// the texts (the dataset registry's stand-ins at full size), a pool of
/// query batches that the measured phase cycles through, the symbols the
/// appender will append, and the expected answer of every pooled query
/// (BSL1: suffix array + PSW, no top-K table and no learned model). The
/// library only ever sees the generated inputs.

#include <cstddef>
#include <string>
#include <vector>

#include "usi/core/multi_service.hpp"
#include "usi/text/weighted_string.hpp"

namespace perfbench {

using usi::index_t;
using usi::u32;
using usi::u64;

/// Queries per QueryBatchInto call.
inline constexpr std::size_t kBatchSize = 256;
/// Distinct batches the measured phase cycles through.
inline constexpr std::size_t kPoolBatches = 512;
/// Open-loop appender rate (single-symbol AppendText calls per second).
inline constexpr double kAppendRate = 2000.0;
/// Appends issued by the post-phase probe of the read-only workloads: as
/// many as fit under the default delta_compact_threshold (4096), so the
/// probe times AppendText without a compaction.
inline constexpr std::size_t kProbeAppends = 4000;

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// An exact answer: what U(P) and |occ(P)| must be.
struct Answer {
  double utility = 0;
  index_t occurrences = 0;
};

/// The occurrences of one pattern that end past the base text (append_mix):
/// needs[i] is how many appended symbols the i-th such occurrence needs to
/// exist (ascending), cum_utility[i] the summed local utility of the first
/// i + 1 of them.
struct Crossing {
  std::vector<index_t> needs;
  std::vector<double> cum_utility;
};

struct BenchText {
  std::string id;
  usi::WeightedString ws;
};

struct Inputs {
  std::string workload;
  std::vector<BenchText> texts;
  /// The query pool: kPoolBatches * kBatchSize patterns, batch-major.
  std::vector<usi::Text> patterns;
  std::vector<u32> text_of;  ///< Text index of each pooled query.
  std::vector<u32> key_of;   ///< Distinct-pattern index of each query.
  /// Per distinct pattern: the answer over its base text.
  std::vector<Answer> base_answers;
  /// Per distinct pattern: its occurrences past the base (append_mix on
  /// texts[0]; empty otherwise).
  std::vector<Crossing> crossing;
  /// Symbols (and their weights) the appender appends to texts[0], in order.
  usi::Text append_symbols;
  std::vector<double> append_weights;
  /// Whether appends run beside the measured queries (append_mix) rather
  /// than as a quiet probe after them.
  bool appends_during_phase = false;
  /// The pool as MultiQuery batches (views into texts and patterns; filled
  /// by BuildBatches once the Inputs object has its final address).
  std::vector<std::vector<usi::MultiQuery>> batches;
};

/// Generates the inputs and oracle of \p workload for \p seed. \p seconds is
/// the measured phase length (it sizes the append stream).
Inputs MakeInputs(const std::string& workload, u64 seed, double seconds);

/// Fills inputs.batches.
void BuildBatches(Inputs& inputs);

/// Whether \p result is the exact answer to pooled query \p q over the base
/// text plus some prefix of the append stream whose length lies in
/// [\p appended_lo, \p appended_hi].
bool Matches(const Inputs& inputs, std::size_t q, const usi::QueryResult& result,
             index_t appended_lo, index_t appended_hi);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_HPP_
