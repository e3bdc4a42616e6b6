// File indexer: the adoption path for users with their own data. Indexes an
// arbitrary byte file as a weighted string (utilities drawn per the paper's
// recipe for corpora without native scores), persists the index, and answers
// pattern queries — demonstrating SaveToFile/OpenMapped and the tuning
// helper that picks K under a hash-table budget.
//
// Usage: file_indexer <file> [pattern...]
// With no file argument, indexes a self-generated sample so the example is
// runnable out of the box.

#include <cstdio>
#include <string>

#include "usi/core/usi_index.hpp"
#include "usi/text/dataset.hpp"
#include "usi/text/generators.hpp"
#include "usi/topk/substring_stats.hpp"
#include "usi/util/memory.hpp"
#include "usi/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace usi;

  WeightedString ws;
  Alphabet alphabet = Alphabet::Identity(256);
  if (argc > 1) {
    if (!LoadTextFile(argv[1], /*seed=*/42, &ws, &alphabet)) {
      std::fprintf(stderr, "cannot read %s\n", argv[1]);
      return 1;
    }
    std::printf("indexed file %s: %u bytes\n", argv[1], ws.size());
  } else {
    ws = MakeXmlLike(200'000, 7);
    std::printf("no file given; indexing a generated 200k XML-like sample\n");
  }

  // Pick K under a 16 MB hash-table budget via the trade-off curve.
  SubstringStats stats(ws.text());
  const std::size_t budget_entries = (16u << 20) / 64;  // ~64 B per entry.
  const auto point = stats.RecommendForBudget(budget_entries);
  std::printf("operating point: K=%llu (tau=%u, %u distinct lengths)\n",
              static_cast<unsigned long long>(point.k), point.tau,
              point.num_lengths);

  UsiOptions options;
  options.k = point.k > 0 ? point.k : ws.size() / 100;
  Timer build_timer;
  const UsiIndex index(ws, options);
  std::printf("built in %.2f s; index size %s\n", build_timer.ElapsedSeconds(),
              FormatBytes(index.SizeInBytes()).c_str());

  // Persist + reopen (a real deployment builds once, serves many): the
  // saved image opens by mmap, with no rebuild and no deserialization.
  const std::string index_path = "/tmp/usi_file_index.bin";
  if (index.SaveToFile(index_path)) {
    const auto opened = UsiIndex::OpenMapped(ws, index_path);
    std::printf("round-tripped through %s: %s\n", index_path.c_str(),
                opened != nullptr ? "ok" : "FAILED");
  }

  // Answer queries from the command line, encoding each raw byte pattern
  // over the same alphabet as the indexed text. A pattern using a byte the
  // text never contains cannot occur at all.
  for (int arg = 2; arg < argc; ++arg) {
    const std::string raw = argv[arg];
    Text pattern;
    bool encodable = true;
    for (char c : raw) {
      const u8 byte = static_cast<u8>(c);
      if (!alphabet.Contains(byte)) {
        encodable = false;
        break;
      }
      pattern.push_back(alphabet.Encode(byte));
    }
    if (!encodable) {
      std::printf("U(\"%s\") = 0.000 over 0 occurrence(s) [byte outside text "
                  "alphabet]\n",
                  raw.c_str());
      continue;
    }
    const QueryResult result = index.Query(pattern);
    std::printf("U(\"%s\") = %.3f over %u occurrence(s)%s\n", raw.c_str(),
                result.utility, result.occurrences,
                result.from_hash_table ? " [precomputed]" : "");
  }
  if (argc <= 2) {
    std::printf("pass patterns as extra arguments to query them\n");
  }
  return 0;
}
