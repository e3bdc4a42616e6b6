// Serving benchmark for UsiMultiService.
//
// One process runs a UsiMultiService (threads = 2, build_lanes = 1) through
// one named workload with a closed-loop client issuing 256-query batches,
// checks every answer against a BSL1 oracle computed before timing, and
// prints the run's metrics as the last line of standard output, one JSON
// object. With --trace 0 they are the end-to-end metrics; with --trace 1 a
// separate traced run replays every measured batch down the layers' public
// APIs (replay.hpp) and prints the per-layer metrics. See README.md for the
// workloads and what each metric should move.
//
// Usage: usi_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--out-dir DIR]

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "inputs.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "usi/core/multi_service.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/util/memory.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using usi::MultiQuery;
using usi::QueryResult;
using usi::ServeStatus;
using usi::UsiMultiService;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Micros(Clock::duration d) { return Seconds(d) * 1e6; }

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  if (argc % 2 != 1 || !(args->seconds >= 1)) return false;
  for (const std::string& name : WorkloadNames()) {
    if (name == args->workload) return true;
  }
  return false;
}

/// The measured phase's host noise: CPU time the hypervisor stole from this
/// VM (share of all CPU time, from /proc/stat) and involuntary context
/// switches of this process.
struct HostSample {
  double steal = 0;
  double total = 0;
  long nivcsw = 0;

  static HostSample Now() {
    HostSample s;
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    for (int field = 0; field < 8; ++field) {
      double v = 0;
      if (!(stat >> v)) break;
      s.total += v;
      if (field == 7) s.steal = v;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    s.nivcsw = usage.ru_nivcsw;
    return s;
  }
};

/// Resets the process's peak-RSS mark (VmHWM) to its current RSS, so the
/// peak read later covers serving only, not input generation.
void ResetPeakRss() {
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) return;
  std::fputs("5", file);
  std::fclose(file);
}

/// Appender of single-symbol AppendText calls to texts[0]. Paced (open
/// loop): on a fixed schedule of kAppendRate per second; latency runs from
/// each append's scheduled time, so a stall counts against every append
/// queued behind it, and lateness is how far behind schedule each call
/// started. Unpaced (closed loop, the read-only workloads' probe): each
/// append is due when the previous one returns.
class Appender {
 public:
  Appender(UsiMultiService& service, const Inputs& inputs)
      : service_(service), inputs_(inputs) {
    latency_us_.reserve(inputs.append_symbols.size());
    late_us_.reserve(inputs.append_symbols.size());
  }
  ~Appender() { Join(); }

  Appender(const Appender&) = delete;
  Appender& operator=(const Appender&) = delete;

  /// Starts appending at \p first_due; appends due at or after \p stop are
  /// not issued.
  void Start(Clock::time_point first_due, Clock::time_point stop, bool paced) {
    thread_ = std::thread(
        [this, first_due, stop, paced] { Run(first_due, stop, paced); });
  }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Appends that returned kOk (all visible to batches pinned after).
  index_t committed() const { return committed_.load(); }
  /// Appends issued so far (a batch may see any of them).
  index_t started() const { return started_.load(); }

  std::vector<double>& latency_us() { return latency_us_; }
  std::vector<double>& late_us() { return late_us_; }
  u64 attempted() const { return started_.load(); }
  u64 failures() const { return failures_; }

 private:
  void Run(Clock::time_point first_due, Clock::time_point stop, bool paced) {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kAppendRate));
    const std::string& id = inputs_.texts[0].id;
    for (std::size_t k = 0; k < inputs_.append_symbols.size(); ++k) {
      const Clock::time_point due =
          paced ? first_due + period * static_cast<Clock::rep>(k) : Clock::now();
      if (due >= stop) break;
      // Spin rather than sleep to the due time: a sleeping thread's wake-up
      // on a VM (timer slack, rescheduling an idle vCPU) would be charged to
      // AppendText. The spinning thread is the load shape's fourth thread.
      while (Clock::now() < due) {
      }
      const Clock::time_point begin = Clock::now();
      started_.store(static_cast<index_t>(k + 1));
      const ServeStatus status = service_.AppendText(
          id, {&inputs_.append_symbols[k], 1}, {&inputs_.append_weights[k], 1});
      const Clock::time_point end = Clock::now();
      if (status != ServeStatus::kOk) {
        // The oracle follows the append stream in order: stop at a gap.
        ++failures_;
        break;
      }
      committed_.store(static_cast<index_t>(k + 1));
      late_us_.push_back(Micros(begin - due));
      latency_us_.push_back(Micros(end - due));
    }
  }

  UsiMultiService& service_;
  const Inputs& inputs_;
  std::atomic<index_t> committed_{0};
  std::atomic<index_t> started_{0};
  u64 failures_ = 0;
  std::vector<double> latency_us_;
  std::vector<double> late_us_;
  std::thread thread_;
};

/// Counters of one client loop.
struct LoopResult {
  std::vector<double> batch_us;
  std::vector<double> window_qps;  ///< kOk queries per second, per window.
  double seconds = 0;
  u64 batches = 0;
  u64 failed_batches = 0;
  u64 ok_queries = 0;
  u64 hits = 0;
  u64 mismatches = 0;
  u64 groups = 0;
  u64 overlay_samples = 0;
  u64 overlay_live = 0;
  double appended_sum = 0;
};

/// Everything the client loop needs; the loop cycles through the pool.
struct Client {
  UsiMultiService& service;
  const Inputs& inputs;
  Appender* appender = nullptr;  ///< Non-null while appends run beside.
  std::size_t cursor = 0;
  std::vector<QueryResult> results = std::vector<QueryResult>(kBatchSize);

  /// The service's live overlay on texts[0]: (appended symbols the base
  /// already holds, appended symbols in the overlay), if there is one.
  std::optional<std::pair<index_t, index_t>> Overlay() const {
    const std::optional<usi::UsiTextStats> stats =
        service.StatsFor(inputs.texts[0].id);
    if (!stats || !stats->delta) return std::nullopt;
    return std::make_pair(stats->delta->boundary - inputs.texts[0].ws.size(),
                          stats->delta->appended);
  }

  /// Runs closed-loop batches for \p seconds. With \p replica every batch is
  /// traced: it gets a root span, and after each block of kReplayBlock
  /// batches the block is replayed down the layers (serving a block back to
  /// back keeps the replays from cooling the service's caches and workers
  /// before every batch).
  LoopResult Run(double seconds, Replica* replica, SpanLog* log) {
    constexpr double kWindow = 0.5;
    constexpr double kSampleEvery = 0.25;
    constexpr std::size_t kReplayBlock = 128;
    LoopResult r;
    r.batch_us.reserve(static_cast<std::size_t>(seconds * 20'000));
    std::vector<u64> window_ok(static_cast<std::size_t>(seconds / kWindow), 0);
    struct Served {
      u32 id;
      std::size_t pool_batch;
      index_t committed;
      std::vector<QueryResult> results;
    };
    std::vector<Served> block(replica == nullptr ? 0 : kReplayBlock);
    for (Served& served : block) served.results.resize(kBatchSize);
    std::size_t pending = 0;
    const Clock::time_point t_start = Clock::now();
    const Clock::time_point t_end =
        t_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
    double next_sample = 0;
    Clock::time_point now = t_start;
    while (now < t_end) {
      const std::size_t b = cursor++ % kPoolBatches;
      const std::vector<MultiQuery>& batch = inputs.batches[b];
      const index_t lo = appender ? appender->committed() : 0;
      const Clock::time_point t0 = Clock::now();
      const ServeStatus status = service.QueryBatchInto(batch, results);
      const Clock::time_point t1 = Clock::now();
      const index_t hi = appender ? appender->started() : 0;
      ++r.batches;
      r.batch_us.push_back(Micros(t1 - t0));
      const u32 batch_id = static_cast<u32>(r.batches);
      if (log != nullptr) {
        log->Add({batch_id, 0, Layer::kMultiBatch,
                  static_cast<u32>(kBatchSize), t0, t1});
      }
      if (status != ServeStatus::kOk) {
        ++r.failed_batches;
      } else {
        r.ok_queries += kBatchSize;
        const std::size_t w =
            static_cast<std::size_t>(Seconds(t1 - t_start) / kWindow);
        if (w < window_ok.size()) window_ok[w] += kBatchSize;
        u32 texts_seen = 0;
        for (std::size_t i = 0; i < kBatchSize; ++i) {
          const std::size_t q = b * kBatchSize + i;
          if (!Matches(inputs, q, results[i], lo, hi)) {
            if (r.mismatches++ == 0) {
              std::fprintf(stderr,
                           "mismatch: batch %zu query %zu text %s: got "
                           "(%.17g, %u), appended in [%u, %u]\n",
                           b, i, inputs.texts[inputs.text_of[q]].id.c_str(),
                           results[i].utility, results[i].occurrences, lo, hi);
            }
          }
          r.hits += results[i].from_hash_table ? 1 : 0;
          texts_seen |= 1u << inputs.text_of[q];
        }
        r.groups += static_cast<u64>(__builtin_popcount(texts_seen));
      }
      if (replica != nullptr) {
        Served& served = block[pending++];
        served.id = batch_id;
        served.pool_batch = b;
        served.committed = lo;
        std::copy(results.begin(), results.end(), served.results.begin());
      }
      now = Clock::now();
      const bool replay =
          replica != nullptr && (pending == kReplayBlock || now >= t_end);
      std::optional<std::pair<index_t, index_t>> overlay;
      if (inputs.appends_during_phase &&
          (replay || (replica == nullptr &&
                      Seconds(now - t_start) >= next_sample))) {
        overlay = Overlay();
        ++r.overlay_samples;
        if (overlay && overlay->second > 0) ++r.overlay_live;
        r.appended_sum += overlay ? overlay->second : 0;
        next_sample += kSampleEvery;
      }
      if (replay) {
        for (std::size_t k = 0; k < pending; ++k) {
          const Served& served = block[k];
          if (overlay) {
            replica->MirrorAppends(overlay->first, served.committed, served.id,
                                   *log);
          }
          replica->ReplayBatch(served.id, served.pool_batch, served.results,
                               *log);
        }
        pending = 0;
        now = Clock::now();
      }
    }
    r.seconds = Seconds(now - t_start);
    for (const u64 ok : window_ok) {
      r.window_qps.push_back(static_cast<double>(ok) / kWindow);
    }
    return r;
  }
};

/// Builds a fresh service and registers every text; returns the seconds from
/// construction until every text is kReady (0 on a failed build). The
/// previous service's memory goes back to the OS first and the peak-RSS mark
/// is reset, so the peak read after serving covers this service alone.
double SetUp(const Inputs& inputs, std::unique_ptr<UsiMultiService>* service) {
  service->reset();
  malloc_trim(0);
  ResetPeakRss();
  usi::UsiMultiServiceOptions options;
  options.threads = 2;
  options.build_lanes = 1;
  std::vector<usi::WeightedString> copies;
  for (const BenchText& text : inputs.texts) copies.push_back(text.ws);
  const Clock::time_point start = Clock::now();
  *service = std::make_unique<UsiMultiService>(options);
  for (std::size_t t = 0; t < copies.size(); ++t) {
    (*service)->SubmitText(inputs.texts[t].id, std::move(copies[t]));
  }
  for (const BenchText& text : inputs.texts) {
    if ((*service)->WaitForText(text.id) != usi::BuildState::kReady) return 0;
  }
  return Seconds(Clock::now() - start);
}

/// Metrics of the run, printed in insertion order.
class Metrics {
 public:
  void Add(const char* name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[160];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name, entries_[i].value,
                    entries_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

void PrintResult(bool correct, u64 attempted, u64 failed,
                 const Metrics& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.Json().c_str());
  std::fflush(stdout);
}

int Fail(const char* what) {
  std::fprintf(stderr, "perfbench: %s\n", what);
  PrintResult(false, 1, 0, Metrics{});
  return 1;
}

/// Checks, once builds settle, every pooled query against the oracle at
/// \p appended appended symbols through the service and, when \p fresh_index,
/// through a fresh UsiIndex over the base plus those symbols. Returns the
/// number of wrong answers; a failed batch counts as all wrong.
u64 FinalCheck(UsiMultiService& service, const Inputs& inputs,
               index_t appended, bool fresh_index) {
  service.WaitForBuilds();
  u64 wrong = 0;
  std::vector<QueryResult> results(kBatchSize);
  for (std::size_t b = 0; b < kPoolBatches; ++b) {
    if (service.QueryBatchInto(inputs.batches[b], results) != ServeStatus::kOk) {
      wrong += kBatchSize;
      continue;
    }
    for (std::size_t i = 0; i < kBatchSize; ++i) {
      if (!Matches(inputs, b * kBatchSize + i, results[i], appended, appended)) {
        ++wrong;
      }
    }
  }
  if (!fresh_index) return wrong;
  const usi::WeightedString& base = inputs.texts[0].ws;
  usi::Text text = base.text();
  std::vector<double> weights = base.weights();
  text.insert(text.end(), inputs.append_symbols.begin(),
              inputs.append_symbols.begin() + appended);
  weights.insert(weights.end(), inputs.append_weights.begin(),
                 inputs.append_weights.begin() + appended);
  const usi::WeightedString full(std::move(text), std::move(weights));
  const usi::UsiIndex fresh(full, usi::UsiOptions{});
  for (std::size_t q = 0; q < inputs.patterns.size(); ++q) {
    if (inputs.text_of[q] == 0 &&
        !Matches(inputs, q, fresh.Query(inputs.patterns[q]), appended,
                 appended)) {
      ++wrong;
    }
  }
  return wrong;
}

/// What every run checks and reports beside its metrics.
struct RunTotals {
  u64 batches = 0;
  u64 failed = 0;
  u64 attempted = 0;
  u64 answered = 0;
  u64 hits = 0;
  u64 mismatches = 0;
  u64 compactions = 0;
  u64 overlay_samples = 0;
  u64 overlay_live = 0;
  std::vector<double> late_us;
  HostSample host_before = HostSample::Now();

  void AddLoop(const LoopResult& r) {
    batches += r.batches;
    failed += r.failed_batches;
    attempted += r.batches;
    answered += r.ok_queries;
    hits += r.hits;
    mismatches += r.mismatches;
    overlay_samples += r.overlay_samples;
    overlay_live += r.overlay_live;
  }
  void AddAppender(Appender& appender) {
    attempted += appender.attempted();
    failed += appender.failures();
    late_us.insert(late_us.end(), appender.late_us().begin(),
                   appender.late_us().end());
  }
  double hit_ratio() const {
    return answered == 0 ? 0
                         : static_cast<double>(hits) /
                               static_cast<double>(answered);
  }

  /// Prints the diagnostics line; returns the shape violation, if any.
  std::string Report(const Args& args, std::size_t latency_samples,
                     std::size_t append_samples, double batch_p99_us,
                     double append_p99_us, double* steal_frac,
                     long* nivcsw) const {
    const HostSample after = HostSample::Now();
    *steal_frac = (after.steal - host_before.steal) /
                  std::max(1.0, after.total - host_before.total);
    *nivcsw = after.nivcsw - host_before.nivcsw;
    std::vector<double> late = late_us;
    std::printf(
        "workload=%s seed=%llu batches=%llu batch_samples=%zu "
        "append_samples=%zu batch_p99_us=%.1f append_p99_us=%.1f "
        "hit_ratio=%.4f compactions=%llu "
        "overlay_live=%llu/%llu steal_frac=%.4f nivcsw=%ld "
        "appender_late_p50_us=%.1f appender_late_p99_us=%.1f\n",
        args.workload.c_str(), static_cast<unsigned long long>(args.seed),
        static_cast<unsigned long long>(batches), latency_samples,
        append_samples, batch_p99_us, append_p99_us, hit_ratio(),
        static_cast<unsigned long long>(compactions),
        static_cast<unsigned long long>(overlay_live),
        static_cast<unsigned long long>(overlay_samples), *steal_frac,
        *nivcsw, Percentile(late, 0.5), Percentile(late, 0.99));
    if (args.workload == "hot_batch" && hit_ratio() < 0.85) {
      return "hot_batch: table hit ratio below 0.85";
    }
    if (args.workload == "cold_miss" && hit_ratio() > 0.10) {
      return "cold_miss: table hit ratio above 0.10";
    }
    if (args.workload == "append_mix" &&
        (compactions < 3 || 2 * overlay_live < overlay_samples)) {
      return "append_mix: fewer than 3 compactions or no live overlay";
    }
    // A p99 needs at least ten samples beyond it.
    if (latency_samples < 1000 || append_samples < 1000) {
      return "too few samples for a p99";
    }
    return {};
  }
};

/// Appends during the phase (append_mix) or as a quiet probe after it.
void StartAppends(Appender& appender, const Inputs& inputs, Client& client,
                  double seconds) {
  if (!inputs.appends_during_phase) return;
  const Clock::time_point now = Clock::now();
  appender.Start(now,
                 now + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds)),
                 true);
  client.appender = &appender;
}
void FinishAppends(Appender& appender, const Inputs& inputs, Client& client) {
  appender.Join();
  client.appender = nullptr;
  if (!inputs.appends_during_phase) {
    appender.Start(Clock::now(), Clock::time_point::max(), false);
    appender.Join();
  }
}

/// The end-to-end run: kRounds rounds, each on a freshly built service
/// measured for a kRounds-th of the time; every metric is the median over
/// rounds, so one unlucky memory layout or build cannot move it.
int RunEndToEnd(const Args& args, const Inputs& inputs) {
  constexpr int kRounds = 5;
  const double round_seconds = args.seconds / kRounds;
  RunTotals totals;
  std::vector<double> setup_s, qps, p50, p99, append_p50, append_p99, rss_mb;
  std::size_t latency_samples = 0;
  std::size_t append_samples = 0;
  std::unique_ptr<UsiMultiService> service;
  for (int round = 0; round < kRounds; ++round) {
    setup_s.push_back(SetUp(inputs, &service));
    if (setup_s.back() == 0) return Fail("index build failed");
    Client client{*service, inputs};
    totals.AddLoop(client.Run(0.5, nullptr, nullptr));
    Appender appender(*service, inputs);
    StartAppends(appender, inputs, client, round_seconds);
    LoopResult r = client.Run(round_seconds, nullptr, nullptr);
    FinishAppends(appender, inputs, client);
    rss_mb.push_back(static_cast<double>(usi::ReadPeakRssBytes()) / 1e6);
    if (inputs.appends_during_phase) {
      totals.mismatches += FinalCheck(*service, inputs, appender.committed(),
                                      round == kRounds - 1);
    }
    totals.AddLoop(r);
    totals.AddAppender(appender);
    totals.compactions += service->StatsFor(inputs.texts[0].id)->compactions;
    latency_samples += r.batch_us.size();
    qps.push_back(Median(r.window_qps));
    p50.push_back(Percentile(r.batch_us, 0.5));
    p99.push_back(Percentile(r.batch_us, 0.99));
    append_samples += appender.latency_us().size();
    append_p50.push_back(Percentile(appender.latency_us(), 0.5));
    append_p99.push_back(Percentile(appender.latency_us(), 0.99));
  }
  double steal_frac = 0;
  long nivcsw = 0;
  // The p99s are printed, not reported: on a shared host their run-to-run
  // spread exceeds any bound the benchmark may set (see README.md).
  const std::string shape = totals.Report(
      args, latency_samples / kRounds, append_samples / kRounds, Median(p99),
      Median(append_p99), &steal_frac, &nivcsw);
  if (totals.mismatches > 0) {
    std::fprintf(stderr, "perfbench: %llu wrong answers\n",
                 static_cast<unsigned long long>(totals.mismatches));
    PrintResult(false, totals.attempted, totals.failed, Metrics{});
    return 1;
  }
  if (!shape.empty()) return Fail(shape.c_str());
  Metrics m;
  m.Add("setup_s", Median(setup_s), "s");
  m.Add("query_qps", Median(qps), "1/s");
  m.Add("batch_p50_us", Median(p50), "us");
  m.Add("append_p50_us", Median(append_p50), "us");
  m.Add("peak_rss_mb", Median(rss_mb), "MB");
  m.Add("ok_frac",
        1.0 - static_cast<double>(totals.failed) /
                  static_cast<double>(totals.attempted),
        "ratio");
  PrintResult(true, totals.attempted, totals.failed, m);
  return 0;
}

/// The traced run: one service, a third of the time untraced (the overhead
/// baseline), the rest traced with every batch replayed down the layers.
int RunTraced(const Args& args, const Inputs& inputs) {
  std::unique_ptr<UsiMultiService> service;
  if (SetUp(inputs, &service) == 0) return Fail("index build failed");
  const std::string& id0 = inputs.texts[0].id;
  usi::UsiBuildInfo build;
  for (const BenchText& text : inputs.texts) {
    const usi::UsiBuildInfo b = service->StatsFor(text.id)->last_build;
    build.sa_seconds += b.sa_seconds;
    build.mining_seconds += b.mining_seconds;
    build.table_seconds += b.table_seconds;
    build.learn_seconds += b.learn_seconds;
  }
  Replica replica(inputs, args.out_dir);

  RunTotals totals;
  Client client{*service, inputs};
  totals.AddLoop(client.Run(0.5, nullptr, nullptr));
  Appender appender(*service, inputs);
  const Clock::time_point phase_start = Clock::now();
  StartAppends(appender, inputs, client, args.seconds);
  SpanLog log;
  const LoopResult plain = client.Run(args.seconds / 3, nullptr, nullptr);
  const double traced_seconds =
      args.seconds - Seconds(Clock::now() - phase_start);
  const LoopResult traced = client.Run(traced_seconds, &replica, &log);
  FinishAppends(appender, inputs, client);
  if (inputs.appends_during_phase) {
    totals.mismatches +=
        FinalCheck(*service, inputs, appender.committed(), true);
  }
  totals.AddLoop(plain);
  totals.AddLoop(traced);
  totals.AddAppender(appender);
  const usi::UsiTextStats stats0 = *service->StatsFor(id0);
  totals.compactions = stats0.compactions;
  u64 records = 0;
  u64 drops = 0;
  for (const BenchText& text : inputs.texts) {
    const usi::UsiTextStats s = *service->StatsFor(text.id);
    records += s.degraded ? s.degraded->records : 0;
    drops += s.degraded ? s.degraded->record_drops : 0;
  }

  double steal_frac = 0;
  long nivcsw = 0;
  std::vector<double> plain_us = plain.batch_us;
  std::vector<double> append_us = appender.latency_us();
  const double batch_p99_us = Percentile(plain_us, 0.99);
  const double append_p99_us = Percentile(append_us, 0.99);
  const std::string shape = totals.Report(
      args, plain.batch_us.size() + traced.batch_us.size(), append_us.size(),
      batch_p99_us, append_p99_us, &steal_frac, &nivcsw);
  if (totals.mismatches > 0) {
    std::fprintf(stderr, "perfbench: %llu wrong answers\n",
                 static_cast<unsigned long long>(totals.mismatches));
    PrintResult(false, totals.attempted, totals.failed, Metrics{});
    return 1;
  }
  if (!shape.empty()) return Fail(shape.c_str());

  const LayerFigures f = ComputeLayerFigures(log);
  const double untraced_qps =
      static_cast<double>(plain.ok_queries) / plain.seconds;
  const double traced_qps = static_cast<double>(traced.ok_queries) /
                            std::max(1e-9, traced.seconds - f.replay_seconds);
  const double per_batch =
      traced.batches == 0 ? 0 : 1.0 / static_cast<double>(traced.batches);
  std::vector<double> late_us = totals.late_us;
  Metrics m;
  m.Add("multi.batch_us", f.multi_batch_us, "us");
  m.Add("multi.self_us", f.multi_self_us, "us");
  m.Add("multi.groups_per_batch",
        static_cast<double>(traced.groups) * per_batch, "count");
  m.Add("tier.record_ns", f.tier_record_ns, "ns");
  m.Add("tier.drop_frac",
        records + drops == 0 ? 0
                             : static_cast<double>(drops) /
                                   static_cast<double>(records + drops),
        "ratio");
  m.Add("tier.clear_us", replica.ClearTierUs(), "us");
  m.Add("service.batch_us", f.service_batch_us, "us");
  m.Add("fanout.self_us", f.fanout_self_us, "us");
  m.Add("service.shards_per_batch", replica.shards_per_batch(), "count");
  m.Add("index.prepare_us", f.index_prepare_us, "us");
  m.Add("index.batch_us", f.index_batch_us, "us");
  m.Add("index.hit_ratio", totals.hit_ratio(), "ratio");
  m.Add("index.hit_ns", f.index_hit_ns, "ns");
  m.Add("index.miss_ns", f.index_miss_ns, "ns");
  m.Add("kr.hash_ns", f.kr_hash_ns, "ns");
  m.Add("index.bytes_per_sym", replica.bytes_per_symbol(), "count");
  m.Add("sa.learned_find_ns", f.learned_find_ns, "ns");
  m.Add("sa.batch_find_ns", f.batch_find_ns, "ns");
  m.Add("sa.plain_find_ns", f.plain_find_ns, "ns");
  m.Add("psw.aggregate_ns", f.psw_aggregate_ns, "ns");
  m.Add("miss.occ_mean",
        replica.misses() == 0
            ? 0
            : static_cast<double>(replica.miss_occurrences()) /
                  static_cast<double>(replica.misses()),
        "count");
  m.Add("overlay.crossing_ns", f.overlay_crossing_ns, "ns");
  m.Add("overlay.append_us", f.overlay_append_us, "us");
  m.Add("overlay.appended_mean",
        totals.overlay_samples == 0
            ? 0
            : (plain.appended_sum + traced.appended_sum) /
                  static_cast<double>(totals.overlay_samples),
        "count");
  m.Add("build.sa_s", build.sa_seconds, "s");
  m.Add("build.mine_s", build.mining_seconds, "s");
  m.Add("build.table_s", build.table_seconds, "s");
  m.Add("build.learn_s", build.learn_seconds, "s");
  m.Add("compact.count", static_cast<double>(stats0.compactions), "count");
  m.Add("compact.publish_us",
        static_cast<double>(stats0.compact_publish_ns) / 1e3, "us");
  m.Add("compact.build_s",
        stats0.compactions == 0 ? 0 : stats0.last_build.total_seconds, "s");
  m.Add("mapped.open_ms", replica.mapped_open_ms(), "ms");
  m.Add("mapped.batch_us", f.mapped_batch_us, "us");
  m.Add("trace.qps_untraced", untraced_qps, "1/s");
  m.Add("trace.qps_traced", traced_qps, "1/s");
  m.Add("trace.overhead_frac", 1.0 - traced_qps / untraced_qps, "ratio");
  m.Add("trace.batch_p50_untraced_us", Percentile(plain_us, 0.5), "us");
  m.Add("host.steal_frac", steal_frac, "ratio");
  m.Add("host.nivcsw", static_cast<double>(nivcsw), "count");
  m.Add("batch_p99_us", batch_p99_us, "us");
  m.Add("append_p99_us", append_p99_us, "us");
  m.Add("appender.late_p50_us", Percentile(late_us, 0.5), "us");
  m.Add("appender.late_p99_us", Percentile(late_us, 0.99), "us");
  const std::string trace_path =
      args.out_dir + "/trace_" + args.workload + ".csv";
  if (!log.WriteCsv(trace_path)) return Fail("cannot write the span log");
  std::printf("spans=%zu written to %s\n", log.spans().size(),
              trace_path.c_str());
  PrintResult(true, totals.attempted, totals.failed, m);
  return 0;
}

int Run(const Args& args) {
  Inputs inputs = MakeInputs(args.workload, args.seed, args.seconds);
  BuildBatches(inputs);
  return args.trace ? RunTraced(args, inputs) : RunEndToEnd(args, inputs);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: usi_perfbench --workload hot_batch|cold_miss|"
                 "append_mix --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n");
    return 2;
  }
  return perfbench::Run(args);
}
