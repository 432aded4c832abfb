#include "workloads.h"

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "calls.h"
#include "core/engine.h"
#include "core/nodestore_engine.h"
#include "core/remote_engine.h"
#include "cypher/lexer.h"
#include "cypher/parser.h"
#include "cypher/planner.h"
#include "cypher/semantic.h"
#include "invoke.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "oracle.h"
#include "proc.h"
#include "rpc/client.h"
#include "rpc/messages.h"
#include "trace.h"
#include "twitter/loaders.h"

namespace mbqperf {

namespace {

using namespace mbq;  // NOLINT(build/namespaces)

// ------------------------------------------------------------ constants
// Every workload runs on the same 20k-user dataset (the program's default
// generator seed); --seed only drives the call lists.
constexpr uint64_t kUsers = 20000;
constexpr int kSetupReps = 3;
constexpr int kCallers = 2;
/// The measured phase of a closed-loop workload is cut into this many
/// equal windows; end-to-end figures are medians over the windows, so a
/// burst of interference from outside the benchmark moves one window, not
/// the run.
constexpr int kWindows = 5;
constexpr int kTable2AnchorsPerQuery = 10;
/// tao_local's page cache: well below the ~25 MB loaded record store.
constexpr uint64_t kTaoCacheBytes = 8ull << 20;
constexpr size_t kTaoListLength = 8192;
constexpr size_t kTaoWarmupCalls = 2048;
constexpr size_t kLdbcListLength = 8192;
constexpr size_t kLdbcWarmupCalls = 256;
constexpr size_t kChurnListLength = 60000;
constexpr size_t kChurnWarmupReads = 200;
constexpr size_t kChurnCheckSample = 150;
constexpr size_t kRpcReplayCalls = 100;
constexpr size_t kTraceCapacity = 1 << 17;
constexpr int64_t kNoFresh = INT64_MAX;
/// A Q2.1-shaped query; the probes run it for uids that do not exist.
constexpr char kEmptyRunQuery[] =
    "MATCH (a:user {uid: $uid})-[:follows]->(f:user) RETURN f.uid";

twitter::DatasetSpec Spec() {
  twitter::DatasetSpec spec;
  spec.num_users = kUsers;
  return spec;
}

double Seconds(uint64_t ns) { return ns / 1e9; }
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ------------------------------------------------------ metric registry
struct Snap {
  obs::MetricsSnapshot metrics;
  double cpu = 0;
};

Snap TakeSnap() {
  return {obs::MetricsRegistry::Default().Snapshot(), SelfCpuSeconds()};
}

double Delta(const Snap& a, const Snap& b, const std::string& name) {
  double before = std::max(0.0, a.metrics.ValueOf(name));
  double after = std::max(0.0, b.metrics.ValueOf(name));
  return std::max(0.0, after - before);
}

// --------------------------------------------------------------- samples
/// Every timed call: its template, latency, kind and the window of the
/// measured phase it started in.
struct Samples {
  struct Sample {
    uint16_t tmpl;
    uint16_t window;
    bool write;
    double us;
  };
  std::vector<Sample> all;

  void Add(size_t tmpl, double us, bool write, int window) {
    all.push_back({static_cast<uint16_t>(tmpl), static_cast<uint16_t>(window), write, us});
  }
  void Merge(const Samples& o) { all.insert(all.end(), o.all.begin(), o.all.end()); }
  size_t calls() const { return all.size(); }
  /// Latencies of reads (or writes), in window `window` or all (-1).
  std::vector<double> Latencies(bool writes, int window = -1) const {
    std::vector<double> out;
    for (const Sample& x : all) {
      if (x.write == writes && (window < 0 || x.window == window)) out.push_back(x.us);
    }
    return out;
  }
  std::vector<std::vector<double>> ByTemplate(int window = -1) const {
    std::vector<std::vector<double>> out;
    for (const Sample& x : all) {
      if (window >= 0 && x.window != window) continue;
      if (out.size() <= x.tmpl) out.resize(x.tmpl + 1);
      out[x.tmpl].push_back(x.us);
    }
    return out;
  }
  /// Geometric mean over templates of each template's median latency.
  double GeoMeanOfMedians(int window = -1) const {
    std::vector<double> medians;
    for (const auto& v : ByTemplate(window)) {
      if (!v.empty()) medians.push_back(Median(v));
    }
    return GeoMean(medians);
  }
  size_t InWindow(int window) const {
    size_t n = 0;
    for (const Sample& x : all) n += x.window == window;
    return n;
  }
};

struct CallerState {
  Samples samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t next = 0;        // position in the caller's list
  int window = 0;         // time window of the measured phase
  std::string mismatch;   // first wrong answer; stops the caller
  std::string first_error;
};

/// Runs `callers` closed-loop threads until `seconds` pass: each calls
/// step(caller, state) back to back; a false return stops that caller.
/// Each call is tagged with the window (one of kWindows equal slices of
/// the phase) it started in.
template <typename Step>
double ClosedLoop(int callers, double seconds, std::vector<CallerState>* states,
                  Step step) {
  states->assign(callers, CallerState());
  uint64_t start = NowNs();
  uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      PinToCpu(c);
      CallerState& s = (*states)[c];
      try {
        for (uint64_t now = NowNs(); now < deadline; now = NowNs()) {
          s.window = static_cast<int>((now - start) * kWindows / (deadline - start));
          if (!step(c, s)) break;
        }
      } catch (const std::exception& e) {
        s.mismatch = std::string("exception: ") + e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  return Seconds(NowNs() - start);
}

/// Folds the callers' results into the report; true when all answers
/// checked out.
bool Collect(const std::vector<CallerState>& states, Samples* samples,
             Report* report) {
  bool ok = true;
  for (const CallerState& s : states) {
    samples->Merge(s.samples);
    report->attempted += s.attempted;
    report->failed += s.failed;
    if (!s.first_error.empty()) {
      std::fprintf(stderr, "mbqperf: failed call: %s\n", s.first_error.c_str());
    }
    if (!s.mismatch.empty()) {
      report->Fail(s.mismatch);
      ok = false;
    }
  }
  return ok;
}

// -------------------------------------------------------- expectations
struct Expected {
  Answer answer;
  uint64_t fingerprint = 0;
};

/// Oracle answers for a read-only call list, computed once per distinct
/// call.
std::vector<std::shared_ptr<const Expected>> ExpectAll(
    const Oracle& oracle, const std::vector<Call>& calls) {
  std::map<std::string, std::shared_ptr<const Expected>> memo;
  std::vector<std::shared_ptr<const Expected>> out;
  out.reserve(calls.size());
  for (const Call& c : calls) {
    auto& slot = memo[DescribeCall(c)];
    if (!slot) {
      auto e = std::make_shared<Expected>();
      e->answer = oracle.Read(c);
      e->fingerprint = Fingerprint(e->answer);
      slot = e;
    }
    out.push_back(slot);
  }
  return out;
}

/// One timed, checked read on behalf of a closed-loop caller.
bool TimedCheckedRead(core::MicroblogEngine& engine, const char* label,
                      const Call& call, const Expected* want, CallerState& s) {
  Timed t = InvokeRead(engine, call, label);
  ++s.attempted;
  if (!t.status.ok()) {
    ++s.failed;
    if (s.first_error.empty()) s.first_error = DescribeCall(call) + ": " + t.status.ToString();
    return true;
  }
  s.samples.Add(call.tmpl, t.nanos / 1e3, false, s.window);
  if (want != nullptr &&
      FingerprintRows(t.rows, want->answer.ordered, kNoFresh) != want->fingerprint) {
    s.mismatch = CheckAnswer(call, want->answer, want->fingerprint, t.rows, kNoFresh);
    return false;
  }
  return true;
}

// --------------------------------------------------------------- stores
struct SetupTimes {
  std::vector<double> total, generate, ns_import, bm_import;
};

struct LocalStores {
  twitter::Dataset dataset;
  std::unique_ptr<nodestore::GraphDb> db;
  std::unique_ptr<bitmapstore::Graph> graph;
  twitter::BitmapHandles bitmap_handles{};
  std::unique_ptr<core::MicroblogEngine> nodestore;
  std::unique_ptr<core::MicroblogEngine> bitmap;
};

struct NodestoreConfig {
  uint64_t cache_bytes = 64ull << 20;
  bool wal = false;
  bool writes = false;
  std::string wal_dir;
};

/// Generates the dataset and loads the requested engines, timing each
/// public entry point. Fails the report on a load error.
std::unique_ptr<LocalStores> LoadLocal(bool nodestore, bool bitmap,
                                       const NodestoreConfig& config,
                                       SetupTimes* times, Report* report) {
  auto s = std::make_unique<LocalStores>();
  uint64_t t0 = NowNs();
  {
    Span span("twitter.GenerateDataset");
    s->dataset = twitter::GenerateDataset(Spec());
  }
  times->generate.push_back(Seconds(NowNs() - t0));
  if (nodestore) {
    Span span("nodestore.load");
    uint64_t t = NowNs();
    nodestore::GraphDbOptions options;
    options.cache_bytes = config.cache_bytes;
    options.wal_enabled = config.wal;
    options.disk_profile = storage::DiskProfile::Instant();
    s->db = std::make_unique<nodestore::GraphDb>(options);
    auto handles = twitter::LoadIntoNodestore(s->dataset, s->db.get());
    times->ns_import.push_back(Seconds(NowNs() - t));
    if (!handles.ok()) {
      report->Fail("LoadIntoNodestore: " + handles.status().ToString());
      return nullptr;
    }
    core::EngineOptions eo;
    eo.db = s->db.get();
    if (config.writes) {
      eo.enable_writes = true;
      eo.dataset = &s->dataset;
      eo.wal_dir = config.wal_dir;
      eo.result_cache = true;
      eo.adjacency_cache = true;
    }
    auto engine = core::OpenEngine(core::EngineKind::kNodestore, eo);
    if (!engine.ok()) {
      report->Fail("OpenEngine(nodestore): " + engine.status().ToString());
      return nullptr;
    }
    s->nodestore = std::move(*engine);
  }
  if (bitmap) {
    Span span("bitmapstore.load");
    uint64_t t = NowNs();
    bitmapstore::GraphOptions options;
    options.disk_profile = storage::DiskProfile::Instant();
    s->graph = std::make_unique<bitmapstore::Graph>(options);
    auto handles = twitter::LoadIntoBitmapstore(s->dataset, s->graph.get());
    times->bm_import.push_back(Seconds(NowNs() - t));
    if (!handles.ok()) {
      report->Fail("LoadIntoBitmapstore: " + handles.status().ToString());
      return nullptr;
    }
    s->bitmap_handles = *handles;
    core::EngineOptions eo;
    eo.graph = s->graph.get();
    eo.handles = &s->bitmap_handles;
    auto engine = core::OpenEngine(core::EngineKind::kBitmap, eo);
    if (!engine.ok()) {
      report->Fail("OpenEngine(bitmap): " + engine.status().ToString());
      return nullptr;
    }
    s->bitmap = std::move(*engine);
  }
  return s;
}

/// Warm-up inside set-up: the first call of each read query, so every
/// plan is compiled before timing starts.
void FirstCallPerQuery(core::MicroblogEngine& engine,
                       const std::vector<Call>& calls) {
  bool seen[kNumQueries] = {};
  for (const Call& c : calls) {
    if (IsWrite(c.q) || seen[static_cast<int>(c.q)]) continue;
    seen[static_cast<int>(c.q)] = true;
    (void)InvokeRead(engine, c, "warmup");
  }
}

void PrintDataset(const twitter::Dataset& d) {
  twitter::DatasetCounts c = twitter::CountDataset(d);
  std::printf(
      "dataset: users=%llu tweets=%llu hashtags=%llu follows=%llu posts=%llu "
      "retweets=%llu mentions=%llu tags=%llu nodes=%llu edges=%llu "
      "digest=%016llx\n",
      (unsigned long long)c.users, (unsigned long long)c.tweets,
      (unsigned long long)c.hashtags, (unsigned long long)c.follows,
      (unsigned long long)c.posts, (unsigned long long)c.retweets,
      (unsigned long long)c.mentions, (unsigned long long)c.tags,
      (unsigned long long)c.total_nodes, (unsigned long long)c.total_edges,
      (unsigned long long)DigestDataset(d));
}

void PrintCalls(const char* what, const std::vector<std::vector<Call>>& lists,
                uint64_t seed) {
  uint64_t digest = seed;
  size_t total = 0;
  for (const auto& l : lists) {
    digest = DigestCalls(l, digest);
    total += l.size();
  }
  std::printf("calls: %s lists=%zu calls=%zu digest=%016llx\n", what,
              lists.size(), total, (unsigned long long)digest);
}

// ------------------------------------------------------- cypher probes
double EmptyRunMedian(cypher::CypherSession& session, int reps) {
  std::vector<double> us;
  us.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    cypher::Params params{{"uid", common::Value::Int(-1 - i)}};
    uint64_t t0 = NowNs();
    auto r = session.Run(kEmptyRunQuery, params);
    us.push_back((NowNs() - t0) / 1e3);
    if (!r.ok() || !r->rows.empty()) return -1;
  }
  return Median(us);
}

/// cypher.*: cold compile through the four public stages, a plan-cache
/// hit through Prepare, and Run of a query that matches nothing — in
/// this process and in a child started with MBQ_TRACE_SAMPLE=0.
void CypherProbes(core::MicroblogEngine& engine, const Options& opt,
                  Report* report) {
  auto& ns = static_cast<core::NodestoreEngine&>(engine);
  cypher::CypherSession& session = ns.session();
  nodestore::GraphDb* db = ns.db();
  const char* texts[] = {kEmptyRunQuery, core::NodestoreEngine::kRecommendVariantA,
                         core::NodestoreEngine::kRecommendVariantB,
                         core::NodestoreEngine::kRecommendVariantC};
  std::vector<double> compile;
  for (int rep = 0; rep < 50; ++rep) {
    for (const char* text : texts) {
      Span span("cypher.compile");
      {
        Span tok("cypher.Tokenize");
        (void)cypher::Tokenize(text);
      }
      uint64_t t0 = NowNs();
      std::optional<Result<cypher::Query>> parsed;
      {
        Span s("cypher.ParseQuery");
        parsed.emplace(cypher::ParseQuery(text));
      }
      if (!parsed->ok()) {
        report->Fail(std::string("ParseQuery failed: ") + text);
        return;
      }
      {
        Span s("cypher.AnalyzeQuery");
        (void)cypher::AnalyzeQuery(**parsed, db);
      }
      {
        Span s("cypher.PlanQuery");
        auto plan = cypher::PlanQuery(std::move(**parsed), db);
        if (!plan.ok()) {
          report->Fail(std::string("PlanQuery failed: ") + text);
          return;
        }
      }
      compile.push_back((NowNs() - t0) / 1e3);
    }
  }
  report->Set("cypher.compile_us", Median(compile), "us");

  (void)session.Prepare(kEmptyRunQuery);
  std::vector<double> prepare;
  for (int i = 0; i < 2000; ++i) {
    uint64_t t0 = NowNs();
    auto r = session.Prepare(kEmptyRunQuery);
    prepare.push_back((NowNs() - t0) / 1e3);
    if (!r.ok()) {
      report->Fail("Prepare failed: " + r.status().ToString());
      return;
    }
  }
  report->Set("cypher.prepare_hit_us", Median(prepare), "us");

  double empty = EmptyRunMedian(session, 2000);
  if (empty < 0) report->Fail("empty Run returned rows or failed");
  report->Set("cypher.empty_run_us", empty, "us");

  std::string error;
  auto child = Child::Spawn({opt.self, "--probe-empty-run"}, {"MBQ_STATS_PORT"},
                            {"MBQ_TRACE_SAMPLE=0"}, opt.work_dir + "/probe.log",
                            -1, &error);
  double untraced = 0;
  if (child != nullptr && child->Wait() == 0) {
    std::string log = ReadFile(child->log_path());
    size_t at = log.find("empty_run_us=");
    if (at != std::string::npos) untraced = std::strtod(log.c_str() + at + 13, nullptr);
  }
  if (untraced <= 0) report->Fail("untraced empty-run probe failed " + error);
  report->Set("cypher.empty_run_untraced_us", untraced, "us");
}

// ------------------------------------------------ shared metric helpers
/// End-to-end figures: the median over the phase's windows of each
/// window's throughput, read p50 and p99, and geometric mean of template
/// medians. `window_seconds` holds each window's length.
void SetEndToEnd(const SetupTimes& setup, double peak_rss, const Samples& s,
                 const std::vector<double>& window_seconds, Report* report) {
  std::vector<double> cps, p50, p99, geo;
  std::string per_window;
  for (size_t w = 0; w < window_seconds.size(); ++w) {
    int win = static_cast<int>(w);
    std::vector<double> reads = s.Latencies(false, win);
    cps.push_back(Ratio(s.InWindow(win), window_seconds[w]));
    p50.push_back(Quantile(reads, 0.5));
    p99.push_back(Quantile(reads, 0.99));
    geo.push_back(s.GeoMeanOfMedians(win));
    per_window += " " + std::to_string(static_cast<long long>(cps.back()));
  }
  std::vector<double> reads = s.Latencies(false);
  std::printf(
      "windows: %zu, calls/s per window:%s; reads %zu, pooled p50 %.1f us "
      "p99 %.1f us\n",
      window_seconds.size(), per_window.c_str(), reads.size(),
      Quantile(reads, 0.5), Quantile(reads, 0.99));
  report->Set("setup_s", Median(setup.total), "s");
  report->Set("peak_rss_mb", peak_rss, "MiB");
  report->Set("throughput_cps", Median(cps), "calls/s");
  report->Set("read_p50_us", Median(p50), "us");
  report->Set("read_p99_us", Median(p99), "us");
  report->Set("geomean_us", Median(geo), "us");
}

std::vector<double> EqualWindows(double wall) {
  return std::vector<double>(kWindows, wall / kWindows);
}

void SetSetupLayers(const SetupTimes& setup, Report* report) {
  report->Set("twitter.generate_s", Median(setup.generate), "s");
  if (!setup.ns_import.empty()) {
    report->Set("nodestore.import_s", Median(setup.ns_import), "s");
  }
  if (!setup.bm_import.empty()) {
    report->Set("bitmapstore.import_s", Median(setup.bm_import), "s");
  }
}

/// Layer counts of the nodestore engine, the tracing plane and the CPU
/// over one measured phase of `calls` calls by `callers` callers.
void SetPhaseLayers(const Snap& a, const Snap& b, double calls, double wall,
                    int callers, double extra_cpu, Report* report) {
  double hits = Delta(a, b, "nodestore.page_cache.hits");
  double misses = Delta(a, b, "nodestore.page_cache.misses");
  report->Set("nodestore.record_reads_per_call",
              Ratio(Delta(a, b, "nodestore.record_reads"), calls), "count");
  report->Set("storage.page_cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  report->Set("storage.page_misses_per_call", Ratio(misses, calls), "count");
  report->Set("cypher.db_hits_per_call", Ratio(Delta(a, b, "cypher.db_hits"), calls),
              "count");
  report->Set("obs.spans_per_call", Ratio(Delta(a, b, "obs.spans.recorded"), calls),
              "count");
  report->Set("obs.traces_minted_per_call",
              Ratio(Delta(a, b, "trace.minted"), calls), "count");
  double cpu = b.cpu - a.cpu + extra_cpu;
  report->Set("exec.cpu_us_per_call", Ratio(cpu * 1e6, calls), "us");
  report->Set("exec.offcpu_share", std::max(0.0, 1 - Ratio(cpu, callers * wall)),
              "ratio");
}

// ---------------------------------------------------------------- table2
void ClusterLayers(const Options& opt, const std::vector<Call>& anchors,
                   const std::vector<std::shared_ptr<const Expected>>& expected,
                   Report* report);

/// For each query, kTable2AnchorsPerQuery anchors at fixed quantiles of
/// that query's own work order (Oracle::UsersByWork): half at the middles
/// of equal strata over all users, half over the top decile short of the
/// heaviest 2% (the skew towards high degree). The set does not depend on
/// the seed: nodestore Q4.2 costs vary up to 4x between users of nearly
/// equal work, so a per-seed draw let a few heavy anchors decide the
/// throughput (0.30 spread over five seeds). The seed permutes the order
/// of the calls in every pass instead.
std::vector<Call> Table2Anchors(const Oracle& oracle, const Universe& universe) {
  const int half = kTable2AnchorsPerQuery / 2;
  const std::vector<std::string> tags = oracle.TagsByWork();
  std::vector<Call> calls;
  for (int qi = 0; qi < kNumQueries; ++qi) {
    Q q = static_cast<Q>(qi);
    std::vector<int64_t> users = oracle.UsersByWork(q);
    for (int i = 0; i < kTable2AnchorsPerQuery; ++i) {
      bool skewed = i >= half;
      double u = ((skewed ? i - half : i) + 0.5) / half;
      double quantile = skewed ? 0.9 + 0.08 * u : u;
      Call call;
      call.q = q;
      call.tmpl = static_cast<uint16_t>(calls.size());
      if (q == Q::kQ1_1) {
        call.a = Threshold(universe, skewed ? 0.1 * u : u);
      } else if (q == Q::kQ3_2) {
        call.tag = tags[static_cast<size_t>(quantile * tags.size())];
      } else {
        call.a = users[static_cast<size_t>(quantile * users.size())];
      }
      if (q == Q::kQ6_1) {
        // The far end: a user at the mirrored uniform rank.
        call.b = universe.UserAtRank(universe.RankAt(1 - u, false));
        if (call.b == call.a) call.b = universe.UserAtRank(0);
      }
      calls.push_back(std::move(call));
    }
  }
  return calls;
}

void RunTable2(const Options& opt, Report* report) {
  SetupTimes setup;
  std::unique_ptr<LocalStores> stores;
  std::vector<Call> anchors;
  std::optional<Oracle> oracle;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stores.reset();
    uint64_t t0 = NowNs();
    stores = LoadLocal(true, true, NodestoreConfig(), &setup, report);
    if (!stores) return;
    if (!oracle) {
      oracle.emplace(stores->dataset);
      anchors = Table2Anchors(*oracle, Universe(stores->dataset));
    }
    FirstCallPerQuery(*stores->nodestore, anchors);
    FirstCallPerQuery(*stores->bitmap, anchors);
    setup.total.push_back(Seconds(NowNs() - t0));
  }
  PrintDataset(stores->dataset);
  PrintCalls("table2 anchors", {anchors}, 0);
  auto expected = ExpectAll(*oracle, anchors);

  core::MicroblogEngine* engines[2] = {stores->nodestore.get(), stores->bitmap.get()};
  const char* labels[2] = {"nodestore", "bitmap"};
  std::vector<double> db_hits(kNumQueries, 0);
  std::vector<double> ns_calls(kNumQueries, 0);
  Samples samples;
  CallerState state;
  // One pass calls every anchor, in an order the seed shuffles anew each
  // pass, on both engines, which engine goes first alternating by pass.
  // Pass 0 warms the caches and is not recorded.
  std::vector<size_t> order(anchors.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  SplitMix rng(opt.seed);
  auto pass = [&](int number, bool record) {
    for (size_t j = order.size(); j > 1; --j) std::swap(order[j - 1], order[rng.Below(j)]);
    for (size_t i : order) {
      for (int k = 0; k < 2; ++k) {
        int e = (k + number) % 2;
        Call call = anchors[i];
        call.tmpl = static_cast<uint16_t>(i + e * anchors.size());
        uint64_t hits0 = stores->db->db_hits();
        CallerState scratch;
        CallerState& s = record ? state : scratch;
        if (!TimedCheckedRead(*engines[e], labels[e], call, expected[i].get(), s)) {
          return false;
        }
        if (record && e == 0) {
          db_hits[static_cast<int>(call.q)] += stores->db->db_hits() - hits0;
          ns_calls[static_cast<int>(call.q)] += 1;
        }
      }
    }
    return true;
  };
  if (!pass(0, false)) {
    report->Fail(state.mismatch);
    return;
  }
  // Each pass is one window of the end-to-end figures.
  Snap a = TakeSnap();
  uint64_t start = NowNs();
  uint64_t deadline = start + static_cast<uint64_t>(opt.seconds * 1e9);
  std::vector<double> pass_seconds;
  bool ok = true;
  while (ok && (pass_seconds.empty() || NowNs() < deadline)) {
    uint64_t t0 = NowNs();
    state.window = static_cast<int>(pass_seconds.size());
    ok = pass(static_cast<int>(pass_seconds.size()) + 1, true);
    pass_seconds.push_back(Seconds(NowNs() - t0));
  }
  const int passes = static_cast<int>(pass_seconds.size());
  double wall = Seconds(NowNs() - start);
  Snap b = TakeSnap();
  // Samples are kept per (anchor, engine): tmpl = anchor + engine * anchors.
  std::vector<CallerState> states(1);
  states[0] = std::move(state);
  if (!Collect(states, &samples, report)) return;
  std::printf("phase: table2 passes=%d calls=%zu wall_s=%.3f\n", passes,
              samples.calls(), wall);
  if (!opt.trace) {
    SetEndToEnd(setup, PeakRssMib(getpid()), samples, pass_seconds, report);
    return;
  }
  SetSetupLayers(setup, report);
  size_t ns_total = 0;
  for (double c : ns_calls) ns_total += static_cast<size_t>(c);
  SetPhaseLayers(a, b, samples.calls(), wall, 1, 0, report);
  report->Set("nodestore.record_reads_per_call",
              Ratio(Delta(a, b, "nodestore.record_reads"), ns_total), "count");
  report->Set("cypher.db_hits_per_call", Ratio(Delta(a, b, "cypher.db_hits"), ns_total),
              "count");
  double bm_total = samples.calls() - ns_total;
  report->Set("bitmapstore.neighbors_per_call",
              Ratio(Delta(a, b, "bitmapstore.neighbors_calls"), bm_total), "count");
  report->Set("bitmapstore.set_ops_per_call",
              Ratio(Delta(a, b, "bitmapstore.objects.intersections") +
                        Delta(a, b, "bitmapstore.objects.unions") +
                        Delta(a, b, "bitmapstore.objects.differences"),
                    bm_total),
              "count");
  // A query's time on an engine: the geometric mean over its anchors of
  // each anchor's median over the passes.
  std::vector<double> ns_medians, bm_medians;
  const auto by_anchor = samples.ByTemplate();
  for (int q = 0; q < kNumQueries; ++q) {
    std::string name = QName(static_cast<Q>(q));
    std::vector<double> per_anchor[2];
    for (size_t i = 0; i < anchors.size(); ++i) {
      if (static_cast<int>(anchors[i].q) != q) continue;
      for (int e = 0; e < 2; ++e) {
        per_anchor[e].push_back(Median(by_anchor[i + e * anchors.size()]));
      }
    }
    ns_medians.push_back(GeoMean(per_anchor[0]));
    bm_medians.push_back(GeoMean(per_anchor[1]));
    report->Set("core.nodestore." + name + "_us", ns_medians.back(), "us");
    report->Set("core.bitmap." + name + "_us", bm_medians.back(), "us");
    report->Set("core.nodestore." + name + "_db_hits", Ratio(db_hits[q], ns_calls[q]),
                "count");
  }
  report->Set("core.nodestore.geomean_us", GeoMean(ns_medians), "us");
  report->Set("core.bitmap.geomean_us", GeoMean(bm_medians), "us");
  CypherProbes(*stores->nodestore, opt, report);
  ClusterLayers(opt, anchors, expected, report);
}


// ------------------------------------------------------------- tao_local
void RunTaoLocal(const Options& opt, Report* report) {
  SetupTimes setup;
  std::unique_ptr<LocalStores> stores;
  std::vector<std::vector<Call>> lists;
  NodestoreConfig config;
  config.cache_bytes = kTaoCacheBytes;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stores.reset();
    uint64_t t0 = NowNs();
    stores = LoadLocal(true, false, config, &setup, report);
    if (!stores) return;
    if (lists.empty()) {
      Universe universe(stores->dataset);
      for (int c = 0; c < kCallers; ++c) {
        lists.push_back(DrawReads(TaoMix(), universe, opt.seed * 1000 + c,
                                  kTaoListLength));
      }
    }
    FirstCallPerQuery(*stores->nodestore, lists[0]);
    setup.total.push_back(Seconds(NowNs() - t0));
  }
  PrintDataset(stores->dataset);
  PrintCalls("tao", lists, opt.seed);
  std::printf("tao_local: page cache %llu bytes, record store %llu bytes\n",
              (unsigned long long)kTaoCacheBytes,
              (unsigned long long)stores->db->DiskSizeBytes());
  Oracle oracle(stores->dataset);
  std::vector<std::vector<std::shared_ptr<const Expected>>> expected;
  for (const auto& l : lists) expected.push_back(ExpectAll(oracle, l));

  core::MicroblogEngine& engine = *stores->nodestore;
  auto step = [&](int c, CallerState& s) {
    size_t i = s.next++ % lists[c].size();
    return TimedCheckedRead(engine, "nodestore", lists[c][i], expected[c][i].get(), s);
  };
  // Warm-up, unrecorded: the page cache reaches its steady state.
  {
    std::vector<CallerState> warm;
    ClosedLoop(kCallers, 1e9, &warm, [&](int c, CallerState& s) {
      return s.next < kTaoWarmupCalls && step(c, s);
    });
    Samples ignored;
    Report scratch;
    if (!Collect(warm, &ignored, &scratch)) {
      report->Fail(warm[0].mismatch + warm[1].mismatch);
      return;
    }
  }
  std::vector<CallerState> states;
  Snap a = TakeSnap();
  double wall = ClosedLoop(kCallers, opt.seconds, &states, step);
  Snap b = TakeSnap();
  Samples samples;
  if (!Collect(states, &samples, report)) return;
  std::printf("phase: tao_local callers=%d calls=%zu reads=%zu wall_s=%.3f\n",
              kCallers, samples.calls(), samples.Latencies(false).size(), wall);
  if (!opt.trace) {
    SetEndToEnd(setup, PeakRssMib(getpid()), samples, EqualWindows(wall), report);
    return;
  }
  SetSetupLayers(setup, report);
  SetPhaseLayers(a, b, samples.calls(), wall, kCallers, 0, report);
  // One caller alone on the same engine, for the scaling of two.
  std::vector<CallerState> one;
  double one_wall = ClosedLoop(1, opt.seconds / 2, &one, step);
  Samples one_samples;
  if (!Collect(one, &one_samples, report)) return;
  report->Set("exec.one_client_cps", Ratio(one_samples.calls(), one_wall), "calls/s");
  std::printf("phase: tao_local one caller calls=%zu wall_s=%.3f\n",
              one_samples.calls(), one_wall);
  CypherProbes(engine, opt, report);
}

// --------------------------------------------------------- ldbc_cluster2
rpc::NavCall ToNavCall(Q q) {
  return static_cast<rpc::NavCall>(static_cast<int>(q) + 1);
}

/// Calls RemoteEngine sends to one shard (the follows skeleton and the
/// user scan are replicated); the rest fan out and merge.
bool IsRouted(Q q) {
  return q == Q::kQ1_1 || q == Q::kQ2_1 || q == Q::kQ4_1 || q == Q::kQ4_2 ||
         q == Q::kQ6_1;
}

struct Cluster {
  std::vector<std::unique_ptr<Child>> shards;
  std::vector<uint16_t> ports;
  std::unique_ptr<core::MicroblogEngine> engine;

  bool AllAlive() {
    for (auto& s : shards) {
      if (!s->Alive()) return false;
    }
    return true;
  }
};

/// Boots two bitmap shards on ephemeral loopback ports (stats server
/// off) and dials them; null with the report failed on any error.
std::unique_ptr<Cluster> BootCluster(const Options& opt, Report* report) {
  auto cluster = std::make_unique<Cluster>();
  Span span("cluster.boot");
  for (int i = 0; i < kCallers; ++i) {
    std::string error;
    auto child = Child::Spawn(
        {opt.mbqd, "--port=0", "--shards=2", "--shard-id=" + std::to_string(i),
         "--users=" + std::to_string(kUsers), "--seed=" + std::to_string(Spec().seed),
         "--engine=bitmap"},
        {"MBQ_STATS_PORT"}, {}, opt.work_dir + "/shard-" + std::to_string(i) + ".log",
        kCallers + i, &error);
    if (child == nullptr) {
      report->Fail("cannot start shard: " + error);
      return nullptr;
    }
    cluster->shards.push_back(std::move(child));
  }
  for (auto& shard : cluster->shards) {
    std::string error;
    int port = WaitForPort(*shard, "listening on 127.0.0.1:", 60, &error);
    if (port == 0) {
      report->Fail("shard boot: " + error);
      return nullptr;
    }
    cluster->ports.push_back(static_cast<uint16_t>(port));
  }
  std::vector<core::RemoteEngine::ShardAddress> addresses;
  for (uint16_t port : cluster->ports) addresses.push_back({"127.0.0.1", port});
  auto engine = core::RemoteEngine::Connect(addresses, /*timeout_millis=*/10000);
  if (!engine.ok()) {
    report->Fail("RemoteEngine::Connect: " + engine.status().ToString());
    return nullptr;
  }
  cluster->engine = std::move(*engine);
  return cluster;
}

/// core.remote.* and the per-call RPC counts of a phase run through
/// RemoteEngine; `query_of` maps a sample's template to its query.
template <typename QueryOf>
void RemoteLayers(const Snap& a, const Snap& b, const Samples& samples,
                  QueryOf query_of, Report* report) {
  std::vector<double> routed, fanout;
  const auto by_tmpl = samples.ByTemplate();
  for (size_t t = 0; t < by_tmpl.size(); ++t) {
    auto& into = IsRouted(query_of(t)) ? routed : fanout;
    into.insert(into.end(), by_tmpl[t].begin(), by_tmpl[t].end());
  }
  report->Set("core.remote.routed_p50_us", Median(routed), "us");
  report->Set("core.remote.fanout_p50_us", Median(fanout), "us");
  report->Set("core.remote.merged_rows_per_call",
              Ratio(Delta(a, b, "rpc.aggregator.merged_rows"), fanout.size()), "count");
  report->Set("rpc.exchanges_per_call", Ratio(Delta(a, b, "rpc.client.requests"), samples.calls()),
              "count");
  report->Set("rpc.bytes_per_call",
              Ratio(Delta(a, b, "rpc.client.bytes_in") + Delta(a, b, "rpc.client.bytes_out"),
                    samples.calls()),
              "bytes");

}

/// rpc.*: pings, then `calls` (up to kRpcReplayCalls of them) replayed
/// to every shard through RpcClient::Call with the shard's timing
/// envelope.
void RpcProbes(Cluster& cluster, const std::vector<Call>& calls, Report* report) {
  // The wire alone: pings, then a replay of the workload's own first
  // calls to every shard with the shard's timing envelope.
  std::vector<std::unique_ptr<rpc::RpcClient>> clients;
  for (uint16_t port : cluster.ports) {
    rpc::RpcClient::Options o;
    o.port = port;
    o.timeout_millis = 10000;
    auto client = rpc::RpcClient::Connect(o);
    if (!client.ok()) {
      report->Fail("RpcClient::Connect: " + client.status().ToString());
      return;
    }
    clients.push_back(std::move(*client));
  }
  std::vector<double> ping;
  for (int i = 0; i < 500; ++i) {
    Span span("rpc.Ping");
    uint64_t t0 = NowNs();
    Status st = clients[i % clients.size()]->Ping();
    ping.push_back((NowNs() - t0) / 1e3);
    if (!st.ok()) {
      report->Fail("Ping: " + st.ToString());
      return;
    }
  }
  std::vector<double> rtt, network, queue, execute, serialize, reply;
  for (size_t i = 0; i < kRpcReplayCalls && i < calls.size(); ++i) {
    const Call& call = calls[i];
    rpc::CallRequest req;
    req.call = ToNavCall(call.q);
    req.uid = call.a;
    req.arg = call.q == Q::kQ6_1 ? call.b : call.n;
    req.max_hops = call.q == Q::kQ6_1 ? call.hops : 0;
    req.tag = call.tag;
    rpc::Frame frame = rpc::EncodeCall(req);
    for (auto& client : clients) {
      obs::ScopedTraceContext trace(obs::MintTraceContext());
      Span span(std::string("rpc.Call.") + QName(call.q));
      rpc::ShardTiming timing;
      uint64_t t0 = NowNs();
      auto r = client->Call(frame, &timing);
      double us = (NowNs() - t0) / 1e3;
      if (!r.ok()) {
        report->Fail("RpcClient::Call " + DescribeCall(call) + ": " + r.status().ToString());
        return;
      }
      rtt.push_back(us);
      network.push_back(std::max(0.0, us - timing.reply_nanos / 1e3));
      queue.push_back(timing.queue_nanos / 1e3);
      execute.push_back(timing.execute_nanos / 1e3);
      serialize.push_back(timing.serialize_nanos / 1e3);
      reply.push_back(timing.reply_nanos / 1e3);
    }
  }
  report->Set("rpc.ping_us", Median(ping), "us");
  report->Set("rpc.rtt_us", Median(rtt), "us");
  report->Set("rpc.network_us", Median(network), "us");
  report->Set("rpc.shard_queue_us", Median(queue), "us");
  report->Set("rpc.shard_execute_us", Median(execute), "us");
  report->Set("rpc.shard_serialize_us", Median(serialize), "us");
  report->Set("rpc.shard_reply_us", Median(reply), "us");
}

/// The RPC layer on table2's anchors: boots the two-shard cluster, runs
/// one pass of the anchors through RemoteEngine, checked against the
/// oracle, and then the RPC probes.
void ClusterLayers(const Options& opt, const std::vector<Call>& anchors,
                   const std::vector<std::shared_ptr<const Expected>>& expected,
                   Report* report) {
  std::unique_ptr<Cluster> cluster = BootCluster(opt, report);
  if (!cluster) return;
  FirstCallPerQuery(*cluster->engine, anchors);
  CallerState state;
  Snap a = TakeSnap();
  for (size_t i = 0; i < anchors.size(); ++i) {
    if (!TimedCheckedRead(*cluster->engine, "remote", anchors[i], expected[i].get(), state)) {
      report->Fail(state.mismatch);
      return;
    }
  }
  Snap b = TakeSnap();
  RemoteLayers(a, b, state.samples, [&](size_t t) { return anchors[t].q; }, report);
  RpcProbes(*cluster, anchors, report);
}

void RunLdbcCluster2(const Options& opt, Report* report) {
  SetupTimes setup;
  twitter::Dataset dataset;
  {
    Span span("twitter.GenerateDataset");
    uint64_t t0 = NowNs();
    dataset = twitter::GenerateDataset(Spec());
    setup.generate.push_back(Seconds(NowNs() - t0));
  }
  Universe universe(dataset);
  std::vector<std::vector<Call>> lists;
  for (int c = 0; c < kCallers; ++c) {
    lists.push_back(DrawReads(LdbcMix(), universe, opt.seed * 1000 + c, kLdbcListLength));
  }
  std::unique_ptr<Cluster> cluster;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cluster.reset();
    uint64_t t0 = NowNs();
    cluster = BootCluster(opt, report);
    if (!cluster) return;
    FirstCallPerQuery(*cluster->engine, lists[0]);
    setup.total.push_back(Seconds(NowNs() - t0));
  }
  PrintDataset(dataset);
  PrintCalls("ldbc", lists, opt.seed);
  Oracle oracle(dataset);
  std::vector<std::vector<std::shared_ptr<const Expected>>> expected;
  for (const auto& l : lists) expected.push_back(ExpectAll(oracle, l));

  core::MicroblogEngine& engine = *cluster->engine;
  auto step = [&](int c, CallerState& s) {
    size_t i = s.next++ % lists[c].size();
    return TimedCheckedRead(engine, "remote", lists[c][i], expected[c][i].get(), s);
  };
  {
    std::vector<CallerState> warm;
    ClosedLoop(kCallers, 1e9, &warm, [&](int c, CallerState& s) {
      return s.next < kLdbcWarmupCalls && step(c, s);
    });
    Samples ignored;
    Report scratch;
    if (!Collect(warm, &ignored, &scratch)) {
      report->Fail(warm[0].mismatch + warm[1].mismatch);
      return;
    }
  }
  std::vector<double> shard_cpu0;
  for (auto& s : cluster->shards) shard_cpu0.push_back(ProcessCpuSeconds(s->pid()));
  std::vector<CallerState> states;
  Snap a = TakeSnap();
  double wall = ClosedLoop(kCallers, opt.seconds, &states, step);
  Snap b = TakeSnap();
  double shard_cpu = 0;
  for (size_t i = 0; i < cluster->shards.size(); ++i) {
    shard_cpu += ProcessCpuSeconds(cluster->shards[i]->pid()) - shard_cpu0[i];
  }
  if (!cluster->AllAlive()) {
    report->Fail("a shard died during the run");
    return;
  }
  Samples samples;
  if (!Collect(states, &samples, report)) return;
  std::printf("phase: ldbc_cluster2 callers=%d calls=%zu reads=%zu wall_s=%.3f\n",
              kCallers, samples.calls(), samples.Latencies(false).size(), wall);
  double rss = PeakRssMib(getpid());
  for (auto& s : cluster->shards) rss += PeakRssMib(s->pid());
  if (!opt.trace) {
    SetEndToEnd(setup, rss, samples, EqualWindows(wall), report);
    return;
  }
  SetSetupLayers(setup, report);
  double calls = samples.calls();
  SetPhaseLayers(a, b, calls, wall, kCallers, shard_cpu, report);
  RemoteLayers(a, b, samples, [](size_t t) { return LdbcMix()[t].q; }, report);
  RpcProbes(*cluster, lists[0], report);
}

// -------------------------------------------------------------- churn_wal
/// A private WAL directory inside the work dir, removed on every exit.
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& parent) {
    std::string templ = parent + "/wal-XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) != nullptr) path = buf.data();
  }
  ~TempDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

/// Caller c owns the users with uid % 2 == c and the tweets with
/// tid % 2 == c: it alone follows and unfollows from its users, posts
/// as them and adds mentions to its tweets. The final state then does not
/// depend on how the callers interleave, and each write is unambiguous
/// (no duplicate edges, every unfollow removes an edge).
std::vector<Call> ChurnList(const Universe& universe, Oracle state, int caller,
                            uint64_t seed, size_t count) {
  const auto& mix = ChurnMix();
  SplitMix rng(seed);
  std::vector<Call> calls;
  calls.reserve(count);
  auto owned = [caller](int64_t id) { return id % kCallers == caller; };
  auto owned_user = [&](bool zipf) {
    for (;;) {
      int64_t uid = universe.User(rng, zipf);
      if (owned(uid)) return uid;
    }
  };
  while (calls.size() < count) {
    size_t t = PickTemplate(mix, rng, false);
    if (!IsWrite(mix[t].q)) {
      calls.push_back(DrawRead(mix, t, universe, rng));
      continue;
    }
    Call call;
    call.q = mix[t].q;
    call.tmpl = static_cast<uint16_t>(t);
    bool drawn = false;
    for (int attempt = 0; attempt < 64 && !drawn; ++attempt) {
      switch (call.q) {
        case Q::kPost:
          call.a = owned_user(mix[t].zipf);
          drawn = true;
          break;
        case Q::kFollow:
          call.a = owned_user(false);
          call.b = universe.User(rng, mix[t].zipf);
          drawn = call.b != call.a && !state.Follows(call.a, call.b);
          break;
        case Q::kUnfollow: {
          call.a = owned_user(false);
          size_t degree = state.OutDegree(call.a);
          if (degree > 0) {
            call.b = state.FolloweeAt(call.a, rng.Below(degree));
            drawn = true;
          }
          break;
        }
        case Q::kMention:
          call.a = state.TidAt(rng.Below(state.num_tweets()));
          call.b = universe.User(rng, mix[t].zipf);
          drawn = owned(call.a) && !state.Mentions(call.a, call.b);
          break;
        default:
          break;
      }
    }
    if (!drawn) continue;
    state.Apply(call);
    calls.push_back(std::move(call));
  }
  return calls;
}

/// Q2.1 and Q2.3 on a caller's own user depend only on that caller's
/// writes, so they are checked during the run.
bool CheckedInRun(const Call& call, int caller) {
  return (call.q == Q::kQ2_1 || call.q == Q::kQ2_3) && call.a % kCallers == caller;
}

/// Re-issues `sample` on `engine` and compares with `oracle`.
bool CheckSample(core::MicroblogEngine& engine, const Oracle& oracle,
                 const std::vector<Call>& sample, int64_t fresh_from,
                 const char* when, Report* report) {
  for (const Call& call : sample) {
    Answer want = oracle.Read(call);
    Timed t = InvokeRead(engine, call, "check");
    if (!t.status.ok()) {
      report->Fail(std::string(when) + ": " + DescribeCall(call) + ": " +
                   t.status.ToString());
      return false;
    }
    // Only Q2.2 returns tweet ids.
    std::string diff = CheckAnswer(call, want, Fingerprint(want), t.rows,
                                   call.q == Q::kQ2_2 ? fresh_from : kNoFresh);
    if (!diff.empty()) {
      report->Fail(std::string(when) + ": " + diff);
      return false;
    }
  }
  return true;
}

void RunChurnWal(const Options& opt, Report* report) {
  SetupTimes setup;
  // Declared before the stores so the engine closes its WAL first.
  std::unique_ptr<TempDir> wal;
  std::unique_ptr<LocalStores> stores;
  std::vector<std::vector<Call>> lists;
  std::optional<Oracle> base;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stores.reset();
    wal = std::make_unique<TempDir>(opt.work_dir);
    if (wal->path.empty()) {
      report->Fail("cannot create a WAL directory under " + opt.work_dir);
      return;
    }
    NodestoreConfig config;
    config.wal = true;
    config.writes = true;
    config.wal_dir = wal->path;
    uint64_t t0 = NowNs();
    stores = LoadLocal(true, false, config, &setup, report);
    if (!stores) return;
    if (!base) {
      base.emplace(stores->dataset);
      Universe universe(stores->dataset);
      for (int c = 0; c < kCallers; ++c) {
        lists.push_back(ChurnList(universe, *base, c, opt.seed * 1000 + c,
                                  kChurnListLength));
      }
    }
    FirstCallPerQuery(*stores->nodestore, lists[0]);
    setup.total.push_back(Seconds(NowNs() - t0));
  }
  PrintDataset(stores->dataset);
  PrintCalls("churn", lists, opt.seed);
  const int64_t fresh_from = static_cast<int64_t>(stores->dataset.tweets.size());
  core::MicroblogEngine& engine = *stores->nodestore;
  core::WritableEngine* writer = engine.AsWritable();
  if (writer == nullptr) {
    report->Fail("nodestore engine opened with writes has no write surface");
    return;
  }

  // Warm-up: the first reads of each list, before any write, so every
  // answer is checked against the base state.
  std::vector<size_t> start_at(kCallers, 0);
  for (int c = 0; c < kCallers; ++c) {
    size_t reads = 0;
    CallerState scratch;
    size_t& i = start_at[c];
    for (; i < lists[c].size() && reads < kChurnWarmupReads; ++i) {
      const Call& call = lists[c][i];
      if (IsWrite(call.q)) break;
      Answer want = base->Read(call);
      Expected e{want, Fingerprint(want)};
      if (!TimedCheckedRead(engine, "nodestore", call, &e, scratch)) {
        report->Fail("warm-up: " + scratch.mismatch);
        return;
      }
      ++reads;
    }
  }

  // Each caller replays its own acknowledged writes into its own oracle.
  std::vector<Oracle> own(kCallers, *base);
  auto step = [&](int c, CallerState& s) {
    if (s.next == 0) s.next = start_at[c];
    if (s.next >= lists[c].size()) return false;
    const Call& call = lists[c][s.next++];
    if (IsWrite(call.q)) {
      Timed t = InvokeWrite(*writer, call);
      ++s.attempted;
      if (!t.status.ok()) {
        ++s.failed;
        s.mismatch = "write not acknowledged: " + DescribeCall(call) + ": " +
                     t.status.ToString();
        return false;
      }
      s.samples.Add(call.tmpl, t.nanos / 1e3, true, s.window);
      own[c].Apply(call);
      return true;
    }
    if (!CheckedInRun(call, c)) {
      return TimedCheckedRead(engine, "nodestore", call, nullptr, s);
    }
    Answer want = own[c].Read(call);
    Expected e{want, Fingerprint(want)};
    return TimedCheckedRead(engine, "nodestore", call, &e, s);
  };
  std::vector<CallerState> states;
  Snap a = TakeSnap();
  double wall = ClosedLoop(kCallers, opt.seconds, &states, step);
  Snap b = TakeSnap();
  Samples samples;
  bool ok = Collect(states, &samples, report);
  std::printf("phase: churn_wal callers=%d calls=%zu reads=%zu writes=%zu wall_s=%.3f\n",
              kCallers, samples.calls(), samples.Latencies(false).size(), samples.Latencies(true).size(),
              wall);
  if (!ok) return;
  for (int c = 0; c < kCallers; ++c) {
    if (states[c].next >= lists[c].size()) {
      report->Fail("churn call list too short for the run length");
      return;
    }
  }
  uint64_t delta_ops = writer->delta().ops();

  // Final state: the base plus every caller's acknowledged prefix.
  Oracle final_state = *base;
  std::vector<Call> sample;
  for (int c = 0; c < kCallers; ++c) {
    for (size_t i = start_at[c]; i < states[c].next; ++i) {
      if (IsWrite(lists[c][i].q)) final_state.Apply(lists[c][i]);
    }
    size_t taken = 0;
    for (const Call& call : lists[c]) {
      if (taken == kChurnCheckSample) break;
      if (!IsWrite(call.q)) {
        sample.push_back(call);
        ++taken;
      }
    }
  }
  if (!CheckSample(engine, final_state, sample, fresh_from, "after the run", report)) {
    return;
  }
  // Durability: reopen from the bulk base plus the WAL directory.
  stores->nodestore.reset();
  stores->db.reset();
  double recovery_s = 0;
  {
    Span span("recovery");
    uint64_t t0 = NowNs();
    nodestore::GraphDbOptions options;
    options.wal_enabled = true;
    options.disk_profile = storage::DiskProfile::Instant();
    stores->db = std::make_unique<nodestore::GraphDb>(options);
    auto handles = twitter::LoadIntoNodestore(stores->dataset, stores->db.get());
    if (!handles.ok()) {
      report->Fail("recovery load: " + handles.status().ToString());
      return;
    }
    core::EngineOptions eo;
    eo.db = stores->db.get();
    eo.enable_writes = true;
    eo.dataset = &stores->dataset;
    eo.wal_dir = wal->path;
    auto reopened = core::OpenEngine(core::EngineKind::kNodestore, eo);
    if (!reopened.ok()) {
      report->Fail("reopen from WAL: " + reopened.status().ToString());
      return;
    }
    stores->nodestore = std::move(*reopened);
    recovery_s = Seconds(NowNs() - t0);
  }
  if (!CheckSample(*stores->nodestore, final_state, sample, fresh_from,
                   "after recovery", report)) {
    return;
  }
  std::printf("checked: %zu reads after the run and after recovery (%.3f s)\n",
              sample.size(), recovery_s);
  if (!opt.trace) {
    SetEndToEnd(setup, PeakRssMib(getpid()), samples, EqualWindows(wall), report);
    return;
  }
  SetSetupLayers(setup, report);
  double calls = samples.calls();
  double writes = samples.Latencies(true).size();
  SetPhaseLayers(a, b, calls, wall, kCallers, 0, report);
  double rh = Delta(a, b, "cache.result.hits"), rm = Delta(a, b, "cache.result.misses");
  double ah = Delta(a, b, "cache.adjacency.hits"), am = Delta(a, b, "cache.adjacency.misses");
  report->Set("cache.result_hit_ratio", Ratio(rh, rh + rm), "ratio");
  report->Set("cache.adjacency_hit_ratio", Ratio(ah, ah + am), "ratio");
  report->Set("cache.invalidations_per_write",
              Ratio(Delta(a, b, "cache.result.invalidations") +
                        Delta(a, b, "cache.adjacency.invalidations"),
                    writes),
              "count");
  report->Set("store.wal_fsyncs_per_write", Ratio(Delta(a, b, "wal.fsyncs"), writes),
              "count");
  report->Set("store.wal_bytes_per_write", Ratio(Delta(a, b, "wal.bytes"), writes),
              "bytes");
  report->Set("nodestore.wal_pages_per_write",
              Ratio(Delta(a, b, "nodestore.wal.pages_written"), writes), "count");
  report->Set("store.delta_ops_retained", delta_ops, "count");
  report->Set("store.write_p50_us", Median(samples.Latencies(true)), "us");
  report->Set("store.recovery_s", recovery_s, "s");
  CypherProbes(*stores->nodestore, opt, report);
}

// ---------------------------------------------------------- metric names
struct MetricDef {
  std::string name;
  const char* unit;
};

std::vector<MetricDef> PerLayerMetrics() {
  std::vector<MetricDef> defs = {
      {"twitter.generate_s", "s"},
      {"nodestore.import_s", "s"},
      {"nodestore.record_reads_per_call", "count"},
      {"nodestore.wal_pages_per_write", "count"},
      {"storage.page_cache_hit_ratio", "ratio"},
      {"storage.page_misses_per_call", "count"},
      {"bitmapstore.import_s", "s"},
      {"bitmapstore.neighbors_per_call", "count"},
      {"bitmapstore.set_ops_per_call", "count"},
      {"cypher.compile_us", "us"},
      {"cypher.prepare_hit_us", "us"},
      {"cypher.empty_run_us", "us"},
      {"cypher.empty_run_untraced_us", "us"},
      {"cypher.db_hits_per_call", "count"},
      {"core.nodestore.geomean_us", "us"},
      {"core.bitmap.geomean_us", "us"},
  };
  for (int q = 0; q < kNumQueries; ++q) {
    defs.push_back({std::string("core.nodestore.") + QName(static_cast<Q>(q)) + "_us", "us"});
  }
  for (int q = 0; q < kNumQueries; ++q) {
    defs.push_back({std::string("core.bitmap.") + QName(static_cast<Q>(q)) + "_us", "us"});
  }
  for (int q = 0; q < kNumQueries; ++q) {
    defs.push_back(
        {std::string("core.nodestore.") + QName(static_cast<Q>(q)) + "_db_hits", "count"});
  }
  std::vector<MetricDef> rest = {
      {"core.remote.fanout_p50_us", "us"},
      {"core.remote.routed_p50_us", "us"},
      {"core.remote.merged_rows_per_call", "count"},
      {"rpc.ping_us", "us"},
      {"rpc.rtt_us", "us"},
      {"rpc.network_us", "us"},
      {"rpc.shard_queue_us", "us"},
      {"rpc.shard_execute_us", "us"},
      {"rpc.shard_serialize_us", "us"},
      {"rpc.shard_reply_us", "us"},
      {"rpc.exchanges_per_call", "count"},
      {"rpc.bytes_per_call", "bytes"},
      {"exec.cpu_us_per_call", "us"},
      {"exec.offcpu_share", "ratio"},
      {"exec.one_client_cps", "calls/s"},
      {"obs.spans_per_call", "count"},
      {"obs.traces_minted_per_call", "count"},
      {"cache.result_hit_ratio", "ratio"},
      {"cache.adjacency_hit_ratio", "ratio"},
      {"cache.invalidations_per_write", "count"},
      {"store.wal_fsyncs_per_write", "count"},
      {"store.wal_bytes_per_write", "bytes"},
      {"store.delta_ops_retained", "count"},
      {"store.write_p50_us", "us"},
      {"store.recovery_s", "s"},
  };
  defs.insert(defs.end(), rest.begin(), rest.end());
  return defs;
}

const char* kEndToEnd[][2] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MiB"},     {"throughput_cps", "calls/s"},
    {"read_p50_us", "us"},    {"read_p99_us", "us"},      {"geomean_us", "us"},
};

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "table2" || name == "tao_local" || name == "ldbc_cluster2" ||
         name == "churn_wal";
}

void RunWorkload(const Options& opt, Report* report) {
  if (opt.trace) EnableTracing(kTraceCapacity);
  if (opt.workload == "table2") RunTable2(opt, report);
  if (opt.workload == "tao_local") RunTaoLocal(opt, report);
  if (opt.workload == "ldbc_cluster2") RunLdbcCluster2(opt, report);
  if (opt.workload == "churn_wal") RunChurnWal(opt, report);
  // Every run reports the whole metric set of its kind; a layer the
  // workload does not exercise reads 0.
  Report ordered;
  ordered.correct = report->correct;
  ordered.attempted = report->attempted;
  ordered.failed = report->failed;
  auto copy = [&](const std::string& name, const char* unit) {
    double value = 0;
    for (const auto& m : report->metrics) {
      if (m.first == name) value = m.second.first;
    }
    ordered.Set(name, value, unit);
  };
  if (opt.trace) {
    for (const MetricDef& d : PerLayerMetrics()) copy(d.name, d.unit);
    std::string path = opt.work_dir + "/trace-" + opt.workload + "-" +
                       std::to_string(opt.seed) + ".json";
    if (WriteChromeTrace(path)) {
      std::printf("trace: %s spans=%llu dropped=%llu\n", path.c_str(),
                  (unsigned long long)(SpansRecorded() - SpansDropped()),
                  (unsigned long long)SpansDropped());
    }
  } else {
    for (const auto& d : kEndToEnd) copy(d[0], d[1]);
  }
  *report = std::move(ordered);
}

int ProbeEmptyRun() {
  SetupTimes times;
  Report report;
  std::unique_ptr<LocalStores> stores =
      LoadLocal(true, false, NodestoreConfig(), &times, &report);
  if (!stores) return 1;
  auto& ns = static_cast<core::NodestoreEngine&>(*stores->nodestore);
  double us = EmptyRunMedian(ns.session(), 2000);
  if (us < 0) return 1;
  std::printf("empty_run_us=%.6f\n", us);
  return 0;
}

}  // namespace mbqperf
