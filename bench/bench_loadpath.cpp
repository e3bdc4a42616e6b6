// Load-path bench: what it costs to get a servable index at startup, per
// dataset. The v3 image opened by mmap is compared against the only other
// way to obtain one — rebuilding from the text with UsiBuilder. Two tables:
//
//   size — the persisted v3 image size (it carries the table's ctrl/slot
//          arrays verbatim plus the PSW, trading bytes for the O(1) open).
//   open — startup latency: rebuild from text (SA + mining + table +
//          learned fit, sequential) against v3 OpenMapped, warm (file in
//          page cache) and cold (page cache dropped via posix_fadvise
//          DONTNEED). A cold open faults in only the header pages; the rest
//          demand-pages as queries touch it, so the bench also reports cold
//          open + a query burst to price that in.
//
// Acceptance bar: v3 open >= 10x faster than a rebuild on the largest bench
// text. --json PATH writes machine-readable results (BENCH_loadpath.json in
// CI).

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "usi/core/usi_builder.hpp"
#include "usi/core/usi_index.hpp"

namespace usi {
namespace {

constexpr int kRepeats = 5;

/// Best-of-N wall time; opens are microsecond-scale, so the least-disturbed
/// run is the honest figure.
template <typename Fn>
double BestOf(Fn fn) {
  double best = 0;
  for (int r = 0; r < kRepeats; ++r) {
    const double seconds = bench::TimeOnce(fn);
    if (r == 0 || seconds < best) best = seconds;
  }
  return best;
}

/// Drops \p path from the page cache (best-effort) so the next read faults
/// in from storage — the "cold process on a warm machine" startup scenario.
void DropCaches(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);  // Dirty pages cannot be dropped; this file is clean anyway.
  (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

double FileMb(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<double>(bytes) / 1e6;
}

struct LoadpathRow {
  std::string name;
  double v3_mb = 0;
  double rebuild_s = 0;
  double v3_warm_s = 0;
  double v3_cold_s = 0;
  double v3_cold_burst_s = 0;  ///< Cold open + the query burst.
  /// Rebuild / v3 warm open — the instant-start scenario (process restart
  /// on a warm machine: the text is in memory either way, and the image is
  /// in the page cache, so this isolates the construction the persisted
  /// image removes).
  double speedup = 0;
};

LoadpathRow RunDataset(const char* name, bench::BenchJson* json) {
  const DatasetSpec& spec = DatasetSpecByName(name);
  const index_t n = bench::ScaledLength(spec);
  const WeightedString ws = MakeDataset(spec, n);
  const u64 k = std::max<u64>(
      10, static_cast<u64>(spec.default_k) * n / spec.default_n);

  // Sequential, like a UsiMultiService build lane (which builds with one
  // thread so the rest of the pool keeps serving).
  UsiOptions options;
  options.k = k;
  options.threads = 1;
  LoadpathRow row;
  row.name = name;
  std::unique_ptr<UsiIndex> index;
  row.rebuild_s = BestOf([&] {
    UsiBuilder builder(ws, options);
    index = builder.Build();
  });

  const std::string v3_path =
      std::string(P_tmpdir) + "/usi_bench_loadpath_" + name + "_v3.bin";
  if (!index->SaveToFile(v3_path, IndexFileFormat::kV3Mapped)) {
    std::fprintf(stderr, "bench_loadpath: saving %s failed\n", name);
    return row;
  }
  row.v3_mb = FileMb(v3_path);

  // A burst of table-hitting and fallback queries, for the demand-paging
  // figure: strided fragments touch SA/PSW/table pages all over the file.
  std::vector<Text> burst;
  for (index_t i = 0; i + 8 <= ws.size() && burst.size() < 1000; i += 997) {
    burst.push_back(ws.Fragment(i, 8));
  }
  const auto run_burst = [&](const UsiIndex& idx) {
    double sink = 0;
    for (const Text& pattern : burst) sink += idx.Utility(pattern);
    return sink;
  };

  // The cache drop runs before each repeat, outside the timed region —
  // charging the drop itself to the open would overstate the cold cost.
  const auto cold_best_of = [](const std::string& path, auto fn) {
    double best = 0;
    for (int r = 0; r < kRepeats; ++r) {
      DropCaches(path);
      const double seconds = bench::TimeOnce(fn);
      if (r == 0 || seconds < best) best = seconds;
    }
    return best;
  };

  row.v3_warm_s = BestOf([&] {
    const auto mapped = UsiIndex::OpenMapped(ws, v3_path);
    USI_CHECK(mapped != nullptr);
  });
  row.v3_cold_s = cold_best_of(v3_path, [&] {
    const auto mapped = UsiIndex::OpenMapped(ws, v3_path);
    USI_CHECK(mapped != nullptr);
  });
  row.v3_cold_burst_s = cold_best_of(v3_path, [&] {
    const auto mapped = UsiIndex::OpenMapped(ws, v3_path);
    USI_CHECK(mapped != nullptr);
    run_burst(*mapped);
  });
  row.speedup = row.v3_warm_s > 0 ? row.rebuild_s / row.v3_warm_s : 0;

  const std::string section = std::string("loadpath.") + name;
  json->Add(section, "v3_file", row.v3_mb * 1e6, "bytes");
  json->Add(section, "rebuild", row.rebuild_s * 1e6, "us");
  json->Add(section, "v3_open_warm", row.v3_warm_s * 1e6, "us");
  json->Add(section, "v3_open_cold", row.v3_cold_s * 1e6, "us");
  json->Add(section, "v3_open_cold_plus_1k_queries",
            row.v3_cold_burst_s * 1e6, "us");
  json->Add(section, "open_speedup_v3_vs_rebuild", row.speedup, "x");

  std::remove(v3_path.c_str());
  return row;
}

}  // namespace
}  // namespace usi

int main(int argc, char** argv) {
  const usi::bench::BenchArgs args = usi::bench::ParseBenchArgs(argc, argv);
  (void)args.threads;
  usi::bench::PrintBanner("bench_loadpath",
                          "startup: rebuild from text vs v3 mmap open");
  usi::bench::BenchJson json;

  std::vector<usi::LoadpathRow> rows;
  // Ordered smallest to largest; the last row is the acceptance row.
  for (const char* name : {"XML", "ADV", "HUM"}) {
    rows.push_back(usi::RunDataset(name, &json));
  }

  usi::TablePrinter size_table("Persisted index size");
  size_table.SetHeader({"dataset", "v3 (MB)"});
  for (const auto& row : rows) {
    size_table.AddRow({row.name, usi::TablePrinter::Num(row.v3_mb, 2)});
  }
  size_table.Print();

  usi::TablePrinter open_table(
      "Startup latency (best of 5; cold = page cache dropped)");
  open_table.SetHeader({"dataset", "rebuild (us)", "v3 warm (us)",
                        "v3 cold (us)", "v3 cold+1k queries (us)",
                        "speedup"});
  for (const auto& row : rows) {
    open_table.AddRow({row.name, usi::TablePrinter::Num(row.rebuild_s * 1e6, 0),
                       usi::TablePrinter::Num(row.v3_warm_s * 1e6, 0),
                       usi::TablePrinter::Num(row.v3_cold_s * 1e6, 0),
                       usi::TablePrinter::Num(row.v3_cold_burst_s * 1e6, 0),
                       usi::TablePrinter::Num(row.speedup, 1) + "x"});
  }
  open_table.Print();

  const usi::LoadpathRow& largest = rows.back();
  std::printf("\nv3 open vs rebuild on %s: %.1fx "
              "(acceptance bar: 10.0x; speedup = rebuild / v3 warm open)\n",
              largest.name.c_str(), largest.speedup);
  json.Add("loadpath.summary", "largest_text_speedup", largest.speedup, "x");

  if (!args.json_path.empty() &&
      !json.WriteTo(args.json_path, "bench_loadpath")) {
    return 1;
  }
  return 0;
}
