#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "usi/core/baselines.hpp"
#include "usi/core/utility.hpp"
#include "usi/core/workload.hpp"
#include "usi/suffix/sa_search.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/text/dataset.hpp"
#include "usi/topk/substring_stats.hpp"
#include "usi/util/rng.hpp"

namespace perfbench {
namespace {

using usi::Rng;
using usi::Text;
using usi::WeightedString;

/// Independent sub-seed of the workload seed for one use.
u64 SubSeed(u64 seed, u64 purpose) { return Rng::Mix(seed, purpose); }

/// W2,90 patterns over one text (paper Section IX-C): 90% from its top-(n/100)
/// frequent substrings, the rest per W1 over the top-(n/50), with the random
/// tail capped at 64 symbols.
std::vector<Text> HotPatterns(const WeightedString& ws,
                              const std::vector<index_t>& sa, std::size_t count,
                              u64 seed) {
  const index_t n = ws.size();
  const usi::SubstringStats stats(ws.text(), sa);
  const usi::TopKList pool_w1 = stats.TopK(n / 50);
  const usi::TopKList pool_w2 = stats.TopK(n / 100);
  usi::WorkloadOptions options;
  options.num_queries = count;
  options.random_min_len = 1;
  options.random_max_len = 64;
  options.seed = seed;
  return usi::MakeWorkloadW2(ws.text(), pool_w2.items, pool_w1.items, 90,
                             options)
      .patterns;
}

/// Uniform random substrings of length 12..48 (no hot pool).
std::vector<Text> ColdPatterns(const WeightedString& ws, std::size_t count,
                               u64 seed) {
  usi::ZipfWorkloadOptions options;
  options.num_queries = count;
  options.hot_fraction = 0;
  options.min_len = 12;
  options.max_len = 48;
  options.seed = seed;
  return usi::MakeWorkloadZipf(ws.text(), options).patterns;
}

/// Appended content: 64-symbol stretches copied (with their weights) from
/// random places of the base, so appended text looks like the base and
/// pooled patterns keep occurring across and past the boundary.
void MakeAppendStream(const WeightedString& base, std::size_t count, u64 seed,
                      Inputs& inputs) {
  constexpr index_t kStretch = 64;
  Rng rng(seed);
  inputs.append_symbols.reserve(count);
  inputs.append_weights.reserve(count);
  while (inputs.append_symbols.size() < count) {
    const index_t start =
        static_cast<index_t>(rng.UniformBelow(base.size() - kStretch));
    for (index_t i = 0; i < kStretch && inputs.append_symbols.size() < count;
         ++i) {
      inputs.append_symbols.push_back(base.letter(start + i));
      inputs.append_weights.push_back(base.weight(start + i));
    }
  }
}

/// Crossing oracle of append_mix: for every distinct pattern of texts[0],
/// the occurrences that end past the base, found by a suffix array over the
/// base's last (max pattern length - 1) symbols followed by the whole
/// append stream.
void BuildCrossing(const std::vector<const Text*>& distinct,
                   const std::vector<u32>& distinct_text, Inputs& inputs) {
  const WeightedString& base = inputs.texts[0].ws;
  index_t max_len = 1;
  for (std::size_t k = 0; k < distinct.size(); ++k) {
    if (distinct_text[k] == 0) {
      max_len = std::max<index_t>(max_len, distinct[k]->size());
    }
  }
  const index_t context = std::min<index_t>(max_len - 1, base.size());
  const index_t d0 = base.size() - context;
  Text window(base.text().begin() + d0, base.text().end());
  std::vector<double> weights(base.weights().begin() + d0,
                              base.weights().end());
  window.insert(window.end(), inputs.append_symbols.begin(),
                inputs.append_symbols.end());
  weights.insert(weights.end(), inputs.append_weights.begin(),
                 inputs.append_weights.end());
  const WeightedString tail(std::move(window), std::move(weights));
  const std::vector<index_t> sa = usi::BuildSuffixArray(tail.text());
  const usi::PrefixSumWeights psw(tail);

  inputs.crossing.assign(distinct.size(), Crossing{});
  std::vector<std::pair<index_t, double>> found;
  for (std::size_t k = 0; k < distinct.size(); ++k) {
    if (distinct_text[k] != 0) continue;
    const Text& pattern = *distinct[k];
    const index_t m = pattern.size();
    found.clear();
    for (const index_t start :
         usi::CollectOccurrences(tail.text(), sa, pattern)) {
      if (start + m > context) {
        found.emplace_back(start + m - context, psw.LocalUtility(start, m));
      }
    }
    std::sort(found.begin(), found.end());
    Crossing& crossing = inputs.crossing[k];
    double sum = 0;
    for (const auto& [need, utility] : found) {
      sum += utility;
      crossing.needs.push_back(need);
      crossing.cum_utility.push_back(sum);
    }
  }
}

bool SameUtility(double got, double want) {
  return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"hot_batch", "cold_miss",
                                                  "append_mix"};
  return kNames;
}

Inputs MakeInputs(const std::string& workload, u64 seed, double seconds) {
  Inputs inputs;
  inputs.workload = workload;
  std::vector<std::string> ids;
  if (workload == "hot_batch") ids = {"HUM", "ADV"};
  if (workload == "cold_miss") ids = {"XML", "ECOLI"};
  if (workload == "append_mix") ids = {"HUM"};
  USI_CHECK(!ids.empty());
  const bool hot = workload != "cold_miss";
  inputs.appends_during_phase = workload == "append_mix";

  // Per text: its dataset (fixed registry seed, full size), a suffix array
  // shared by the miner and the oracle, and its own pattern list.
  const std::size_t total = kPoolBatches * kBatchSize;
  std::vector<std::vector<index_t>> sas;
  std::vector<std::vector<Text>> lists;
  for (std::size_t t = 0; t < ids.size(); ++t) {
    const usi::DatasetSpec& spec = usi::DatasetSpecByName(ids[t]);
    inputs.texts.push_back({ids[t], usi::MakeDataset(spec)});
    const WeightedString& ws = inputs.texts.back().ws;
    sas.push_back(usi::BuildSuffixArray(ws.text()));
    const u64 pattern_seed = SubSeed(seed, 0x100 + t);
    lists.push_back(hot ? HotPatterns(ws, sas.back(), total, pattern_seed)
                        : ColdPatterns(ws, total, pattern_seed));
  }

  // Mix the texts query by query (a fair coin per query for two texts).
  Rng mix(SubSeed(seed, 0x200));
  std::vector<std::size_t> cursor(ids.size(), 0);
  inputs.patterns.reserve(total);
  inputs.text_of.reserve(total);
  for (std::size_t q = 0; q < total; ++q) {
    const u32 t = static_cast<u32>(mix.UniformBelow(ids.size()));
    inputs.patterns.push_back(std::move(lists[t][cursor[t]++]));
    inputs.text_of.push_back(t);
  }
  lists.clear();

  // Distinct (text, pattern) pairs: the oracle answers each once.
  std::unordered_map<std::string, u32> key_index;
  std::vector<const Text*> distinct;
  std::vector<u32> distinct_text;
  inputs.key_of.reserve(total);
  for (std::size_t q = 0; q < total; ++q) {
    std::string key(1, static_cast<char>(inputs.text_of[q]));
    key.append(inputs.patterns[q].begin(), inputs.patterns[q].end());
    const auto [it, inserted] =
        key_index.emplace(std::move(key), static_cast<u32>(distinct.size()));
    if (inserted) {
      distinct.push_back(&inputs.patterns[q]);
      distinct_text.push_back(inputs.text_of[q]);
    }
    inputs.key_of.push_back(it->second);
  }

  // BSL1 oracle over each base text.
  inputs.base_answers.resize(distinct.size());
  for (std::size_t t = 0; t < ids.size(); ++t) {
    const WeightedString& ws = inputs.texts[t].ws;
    const usi::PrefixSumWeights psw(ws);
    usi::BaselineContext context;
    context.ws = &ws;
    context.sa = &sas[t];
    context.psw = &psw;
    const std::unique_ptr<usi::UsiBaseline> bsl1 =
        usi::MakeBaseline(usi::BaselineKind::kBsl1, context);
    for (std::size_t k = 0; k < distinct.size(); ++k) {
      if (distinct_text[k] != t) continue;
      const usi::QueryResult r = bsl1->Query(*distinct[k]);
      inputs.base_answers[k] = {r.utility, r.occurrences};
    }
  }
  sas.clear();

  const std::size_t appends =
      inputs.appends_during_phase
          ? static_cast<std::size_t>(std::ceil(seconds * kAppendRate)) + 1
          : kProbeAppends;
  MakeAppendStream(inputs.texts[0].ws, appends, SubSeed(seed, 0x300), inputs);
  if (inputs.appends_during_phase) {
    BuildCrossing(distinct, distinct_text, inputs);
  }
  return inputs;
}

void BuildBatches(Inputs& inputs) {
  inputs.batches.assign(kPoolBatches, {});
  for (std::size_t b = 0; b < kPoolBatches; ++b) {
    std::vector<usi::MultiQuery>& batch = inputs.batches[b];
    batch.reserve(kBatchSize);
    for (std::size_t i = 0; i < kBatchSize; ++i) {
      const std::size_t q = b * kBatchSize + i;
      batch.push_back({inputs.texts[inputs.text_of[q]].id, inputs.patterns[q]});
    }
  }
}

bool Matches(const Inputs& inputs, std::size_t q, const usi::QueryResult& result,
             index_t appended_lo, index_t appended_hi) {
  const u32 key = inputs.key_of[q];
  const Answer& base = inputs.base_answers[key];
  if (result.occurrences < base.occurrences) return false;
  const index_t extra = result.occurrences - base.occurrences;
  double want = base.utility;
  if (extra > 0) {
    if (inputs.crossing.empty()) return false;
    const Crossing& crossing = inputs.crossing[key];
    if (extra > crossing.needs.size()) return false;
    // Exactly `extra` crossing occurrences exist once needs[extra - 1]
    // symbols are appended and until needs[extra] are.
    if (crossing.needs[extra - 1] > appended_hi) return false;
    if (extra < crossing.needs.size() &&
        crossing.needs[extra] <= appended_lo) {
      return false;
    }
    want += crossing.cum_utility[extra - 1];
  } else if (!inputs.crossing.empty() && inputs.text_of[q] == 0) {
    const Crossing& crossing = inputs.crossing[key];
    if (!crossing.needs.empty() && crossing.needs[0] <= appended_lo) {
      return false;
    }
  }
  return SameUtility(result.utility, want);
}

}  // namespace perfbench
