// perfbench: end-to-end benchmark of the CSCE library. It drives the
// library in-process through its public calls and times each call from
// outside (see README.md for the workloads and metrics).
//
//   perfbench gen      --workload=W --table=T --dir=D
//   perfbench run      --workload=W --seed=N --seconds=S --trace=0|1
//                      --table=T --dir=D [--trace-out=F]
//   perfbench oracle   --out=T
//   perfbench selftest
//   perfbench info
//
// `run` prints one JSON object as its last stdout line; everything
// else goes to stderr. perfbench/run.py builds this binary and calls
// `gen` and `run` in separate processes, so set-up is timed cold.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "baselines/backtracking.h"
#include "ccsr/ccsr.h"
#include "ccsr/ccsr_io.h"
#include "ccsr/cluster_cache.h"
#include "checks.h"
#include "engine/matcher.h"
#include "engine/setops/setops.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "inputs.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using csce::BacktrackingMatcher;
using csce::Ccsr;
using csce::CsceMatcher;
using csce::Edge;
using csce::Graph;
using csce::MatchOptions;
using csce::MatchResult;
using csce::MatchVariant;
using csce::Status;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Fisher-Yates with the library's portable generator, so an order
/// depends only on the seed, not on the standard library.
template <typename T>
void Shuffle(std::vector<T>* v, uint64_t seed) {
  csce::Rng rng(seed);
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Uniform(i)]);
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------
// Tracing. Spans are recorded from this file only, around the calls
// into the library, into an obs::TraceRecorder that is never installed
// process-wide (so the library's own spans stay off). A span's group
// is the id shared by every span of one query or update; each Match
// span gets the read/plan/enumerate split the library reports as three
// child spans laid end to end from its start.

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) {
      recorder_ = std::make_unique<csce::obs::TraceRecorder>();
      epoch_ = Clock::now();
    }
  }

  void Span(const std::string& name, const char* parent,
            const std::string& group, Clock::time_point start,
            double seconds) {
    if (!on_) return;
    const double ts_us =
        std::chrono::duration<double, std::micro>(start - epoch_).count();
    recorder_->RecordSpan(name, group, ts_us, seconds * 1e6);
    self_[name] += seconds;
    if (parent != nullptr) self_[parent] -= seconds;
  }

  void MatchSpans(const std::string& group, Clock::time_point start,
                  double seconds, const MatchResult& r) {
    if (!on_) return;
    Span("match", nullptr, group, start, seconds);
    auto at = start;
    for (const auto& [name, s] :
         {std::pair<const char*, double>{"ccsr.read", r.read_seconds},
          {"plan.plan", r.plan_seconds},
          {"engine.enumerate", r.enumerate_seconds}}) {
      Span(name, "match", group, at, s);
      at += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(s));
    }
  }

  /// Writes the Chrome-tracing document, each event carrying its group
  /// as `args.id`, and prints per-span self times to stderr.
  Status Finish(const std::string& path) const {
    if (!on_) return Status::OK();
    std::fprintf(stderr, "per-layer self time (s), traced run:\n");
    for (const auto& [name, s] : self_) {
      std::fprintf(stderr, "  %-22s %12.6f\n", name.c_str(), s);
    }
    if (path.empty()) return Status::OK();
    csce::obs::JsonValue doc = recorder_->ToChromeJson();
    csce::obs::JsonValue events = csce::obs::JsonValue::Array();
    for (const csce::obs::JsonValue& e : doc.Find("traceEvents")->items()) {
      csce::obs::JsonValue copy = e;
      if (const auto* cat = e.Find("cat"); cat != nullptr) {
        csce::obs::JsonValue args = csce::obs::JsonValue::Object();
        args.Set("id", cat->AsString());
        copy.Set("args", std::move(args));
      }
      events.Append(std::move(copy));
    }
    doc.Set("traceEvents", std::move(events));
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    out << doc.Dump() << "\n";
    if (!out) return Status::IOError("cannot write " + path);
    std::fprintf(stderr, "wrote %zu spans to %s\n", recorder_->NumEvents(),
                 path.c_str());
    return Status::OK();
  }

 private:
  bool on_;
  std::unique_ptr<csce::obs::TraceRecorder> recorder_;
  Clock::time_point epoch_;
  std::map<std::string, double> self_;
};

// ---------------------------------------------------------------------
// Run state shared by the workloads.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-layer totals over the timed section of a run.
struct Layers {
  double graph_load_s = 0, ccsr_build_s = 0, ccsr_save_s = 0, ccsr_load_s = 0;
  double read_s = 0, plan_s = 0, enumerate_s = 0;
  double worker_idle_s = 0, parallel_enumerate_s = 0;
  uint64_t clusters_read = 0, decompressed_bytes = 0, sce_vertices = 0;
  uint64_t search_nodes = 0, computed = 0, reused = 0, intersect = 0;
  uint64_t morsels = 0;

  void AddMatch(const MatchResult& r, uint32_t threads) {
    read_s += r.read_seconds;
    plan_s += r.plan_seconds;
    enumerate_s += r.enumerate_seconds;
    clusters_read += r.clusters_read;
    decompressed_bytes += r.decompressed_bytes;
    sce_vertices += r.sce.sce_vertices;
    search_nodes += r.search_nodes;
    computed += r.candidate_sets_computed;
    reused += r.candidate_sets_reused;
    intersect += r.intersect_elements;
    morsels += r.morsels_claimed;
    worker_idle_s += r.worker_idle_seconds;
    parallel_enumerate_s += threads * r.enumerate_seconds;
  }
};

struct Run {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  std::string dir;
  Clock::time_point process_start;
  Tracer* tracer = nullptr;
  Checker checker;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Layers layers;
  double setup_s = 0;
  double peak_rss_mb = 0;
  double index_bytes = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> per_layer;
};

struct Indexed {
  std::string dataset;
  Graph graph;
  Ccsr ccsr;
};

/// One set-up of one graph: text load, CCSR build, v2 save to
/// `artifact` and v2 load, with the time of each stage.
struct SetupTimes {
  double load = 0, build = 0, save = 0, reload = 0;
};

Status SetupGraph(const std::string& name, const std::string& artifact,
                  Run* run, Indexed* ix, SetupTimes* times) {
  ix->dataset = name;
  auto t0 = Clock::now();
  CSCE_RETURN_IF_ERROR(
      csce::LoadGraphFromFile(GraphPath(run->dir, name), &ix->graph));
  auto t1 = Clock::now();
  Ccsr built = Ccsr::Build(ix->graph);
  auto t2 = Clock::now();
  CSCE_RETURN_IF_ERROR(csce::SaveCcsrToFileV2(built, artifact));
  auto t3 = Clock::now();
  CSCE_RETURN_IF_ERROR(csce::LoadCcsrFromFile(artifact, &ix->ccsr));
  auto t4 = Clock::now();
  times->load = std::chrono::duration<double>(t1 - t0).count();
  times->build = std::chrono::duration<double>(t2 - t1).count();
  times->save = std::chrono::duration<double>(t3 - t2).count();
  times->reload = std::chrono::duration<double>(t4 - t3).count();
  Tracer& tr = *run->tracer;
  const std::string group = "setup:" + name;
  tr.Span("setup", nullptr, group, t0,
          std::chrono::duration<double>(t4 - t0).count());
  tr.Span("graph.load", "setup", group, t0, times->load);
  tr.Span("ccsr.build", "setup", group, t1, times->build);
  tr.Span("ccsr.save", "setup", group, t2, times->save);
  tr.Span("ccsr.load", "setup", group, t3, times->reload);
  return Status::OK();
}

/// The cold set-up of every graph. `setup_s` runs from the process's
/// start to the last load: it is what a user pays once, so it is timed
/// once per run, and the median over runs absorbs its spread.
Status Setup(const std::vector<std::string>& datasets, Run* run,
             std::vector<Indexed>* out) {
  out->clear();
  out->reserve(datasets.size());
  for (const std::string& name : datasets) {
    const std::string artifact = run->dir + "/" + name + ".ccsr";
    Indexed ix;
    SetupTimes times;
    CSCE_RETURN_IF_ERROR(SetupGraph(name, artifact, run, &ix, &times));
    run->index_bytes +=
        static_cast<double>(std::filesystem::file_size(artifact));
    out->push_back(std::move(ix));
  }
  run->setup_s = Since(run->process_start);
  return Status::OK();
}

/// Set-ups repeated after the timed section, for the per-layer set-up
/// times: per graph, one warm-up and kSetupRepeats timed repetitions;
/// each stage's time is its minimum over them, summed over the graphs.
constexpr int kSetupRepeats = 3;

Status RepeatSetup(const std::vector<std::string>& datasets, Run* run) {
  for (const std::string& name : datasets) {
    SetupTimes best{1e300, 1e300, 1e300, 1e300};
    for (int rep = 0; rep <= kSetupRepeats; ++rep) {
      Indexed ix;
      SetupTimes t;
      CSCE_RETURN_IF_ERROR(
          SetupGraph(name, run->dir + "/" + name + ".repeat.ccsr", run, &ix,
                     &t));
      if (rep == 0) continue;
      best = {std::min(best.load, t.load), std::min(best.build, t.build),
              std::min(best.save, t.save), std::min(best.reload, t.reload)};
    }
    run->layers.graph_load_s += best.load;
    run->layers.ccsr_build_s += best.build;
    run->layers.ccsr_save_s += best.save;
    run->layers.ccsr_load_s += best.reload;
  }
  return Status::OK();
}

struct Timed {
  Status status;
  MatchResult result;
  double seconds = 0;
};

Timed TimedMatch(const CsceMatcher& matcher, const Graph& pattern,
                 const MatchOptions& options, const std::string& group,
                 Run* run) {
  Timed t;
  ++run->attempted;
  const auto t0 = Clock::now();
  t.status = matcher.Match(pattern, options, &t.result);
  t.seconds = Since(t0);
  run->tracer->MatchSpans(group, t0, t.seconds, t.result);
  if (!t.status.ok() || t.result.timed_out || t.result.cancelled) {
    ++run->failed;
    run->checker.Fail(group + ": match failed: " +
                      (t.status.ok() ? std::string("interrupted")
                                     : t.status.ToString()));
  }
  return t;
}

/// Removes (or re-inserts) `batch`, then clears `cache` as its contract
/// requires after a mutation; returns the latency of both together.
double TimedUpdate(Ccsr* ccsr, csce::ClusterCache* cache,
                   const std::vector<Edge>& batch, bool remove,
                   const std::string& group, Run* run) {
  ++run->attempted;
  const auto t0 = Clock::now();
  Status st = remove ? ccsr->RemoveEdges(batch) : ccsr->InsertEdges(batch);
  if (cache != nullptr) cache->Clear();
  const double s = Since(t0);
  run->tracer->Span("update", nullptr, group, t0, s);
  run->tracer->Span(remove ? "ccsr.remove" : "ccsr.insert", "update", group,
                    t0, s);
  if (!st.ok()) {
    ++run->failed;
    run->checker.Fail(group + ": " + st.ToString());
  }
  return s;
}

void ValidateIndex(const Ccsr& ccsr, const std::string& group, Run* run) {
  const auto t0 = Clock::now();
  Status st = ccsr.Validate();
  run->tracer->Span("check.validate", nullptr, group, t0, Since(t0));
  if (!st.ok()) run->checker.Fail(group + ": Validate: " + st.ToString());
}

/// Edge batches are part of the fixed inputs, like the graphs and the
/// patterns: their cost depends on which clusters they hit, and
/// `--seed` only orders the work.
constexpr uint64_t kBatchSeed = 0xB47C4;

/// `sizes.size()` disjoint batches of distinct edges of `edges`, drawn
/// with `seed`.
std::vector<std::vector<Edge>> PickBatches(std::vector<Edge> edges,
                                           const std::vector<size_t>& sizes,
                                           uint64_t seed) {
  Shuffle(&edges, seed);
  std::vector<std::vector<Edge>> batches;
  size_t next = 0;
  for (size_t n : sizes) {
    n = std::min(n, edges.size() - next);
    batches.emplace_back(edges.begin() + next, edges.begin() + next + n);
    next += n;
  }
  return batches;
}

void AddCommonMetrics(Run* run, double suite_s, double qps, double p50_ms,
                      double p99_ms, double update_ms) {
  run->e2e = {
      {"setup_s", run->setup_s, "s"},
      {"query_suite_s", suite_s, "s"},
      {"queries_per_s", qps, "1/s"},
      {"query_p50_ms", p50_ms, "ms"},
      {"query_p99_ms", p99_ms, "ms"},
      {"update_ms", update_ms, "ms"},
      {"peak_rss_mb", run->peak_rss_mb, "MB"},
      {"index_mb", run->index_bytes / (1024.0 * 1024.0), "MB"},
  };
}

/// Per-layer metrics; Match totals are normalised per timed round.
/// The set-up times come from RepeatSetup.
void AddLayerMetrics(Run* run, double rounds, double cache_hit_pct,
                     double update_s) {
  const Layers& l = run->layers;
  const double per = rounds > 0 ? 1.0 / rounds : 0.0;
  run->per_layer = {
      {"graph.load_s", l.graph_load_s, "s"},
      {"ccsr.build_s", l.ccsr_build_s, "s"},
      {"ccsr.save_s", l.ccsr_save_s, "s"},
      {"ccsr.load_s", l.ccsr_load_s, "s"},
      {"ccsr.read_s", l.read_s * per, "s"},
      {"ccsr.clusters_read", l.clusters_read * per, "count"},
      {"ccsr.decompressed_mb", l.decompressed_bytes * per / 1048576.0, "MB"},
      {"ccsr.cache_hit_pct", cache_hit_pct, "%"},
      {"ccsr.update_s", update_s, "s"},
      {"plan.plan_s", l.plan_s * per, "s"},
      {"plan.sce_vertices", l.sce_vertices * per, "count"},
      {"engine.enumerate_s", l.enumerate_s * per, "s"},
      {"engine.ns_per_node",
       l.search_nodes == 0 ? 0.0 : l.enumerate_s * 1e9 / l.search_nodes,
       "ns"},
      {"engine.search_nodes", l.search_nodes * per, "count"},
      {"engine.candidate_sets_computed", l.computed * per, "count"},
      {"engine.candidate_sets_reused", l.reused * per, "count"},
      {"engine.intersect_elements", l.intersect * per, "count"},
      {"runtime.worker_idle_pct",
       l.parallel_enumerate_s == 0
           ? 0.0
           : 100.0 * l.worker_idle_s / l.parallel_enumerate_s,
       "%"},
      {"runtime.morsels_claimed", l.morsels * per, "count"},
  };
}

// ---------------------------------------------------------------------
// enum-serial / enum-parallel: the fixed query list, counted in full.

/// Passes after the warm-up pass, at the least. `peak_rss_mb` is read
/// when this many timed passes (rounds) are done, so that it depends on
/// the work done and not on how much work fits into `--seconds`.
constexpr int kMinTimedPasses = 3;

struct EnumQuery {
  QuerySpec spec;
  std::string id;
  size_t graph = 0;  // index into the Indexed list
  Graph pattern;
  std::vector<double> samples;
};

Status RunEnum(const std::vector<QuerySpec>& table, Run* run) {
  std::vector<std::string> datasets;
  for (const QuerySpec& q : table) {
    if (std::find(datasets.begin(), datasets.end(), q.family.dataset) ==
        datasets.end()) {
      datasets.push_back(q.family.dataset);
    }
  }
  std::vector<Indexed> graphs;
  CSCE_RETURN_IF_ERROR(Setup(datasets, run, &graphs));

  std::vector<EnumQuery> queries(table.size());
  for (size_t i = 0; i < table.size(); ++i) {
    EnumQuery& q = queries[i];
    q.spec = table[i];
    q.id = QueryId(q.spec);
    q.graph = static_cast<size_t>(
        std::find(datasets.begin(), datasets.end(), q.spec.family.dataset) -
        datasets.begin());
    CSCE_RETURN_IF_ERROR(csce::LoadGraphFromFile(
        PatternPath(run->dir, q.spec.family, q.spec.index), &q.pattern));
  }
  std::vector<CsceMatcher> matchers;
  for (const Indexed& ix : graphs) matchers.emplace_back(&ix.ccsr);

  const uint32_t threads =
      run->workload == "enum-parallel"
          ? std::clamp(std::thread::hardware_concurrency(), 1u, 4u)
          : 1u;
  std::fprintf(stderr, "%s: %zu queries over %zu graphs, %u thread(s)\n",
               run->workload.c_str(), queries.size(), graphs.size(), threads);

  // Edge updates on every graph: kBatchesPerSize fixed batches of each
  // size, all removed and re-inserted once after every suite pass, in a
  // seed-dependent order, so update samples are spread over the run like
  // query samples. The repetition after the warm-up pass is the update
  // warm-up: every later repetition repeats its operations on the same
  // index states, so validating the index after each warm-up update
  // covers every state. An update's latency is its minimum over the
  // timed repetitions. In the warm-up repetition, after re-inserting one
  // batch of each size, the graph's query with the fewest oracle
  // embeddings must count what it counted in the warm-up pass.
  constexpr size_t kBatchesPerSize = 4;
  std::vector<size_t> sizes;
  for (size_t n : {1, 16, 256}) sizes.insert(sizes.end(), kBatchesPerSize, n);
  struct GraphUpdates {
    size_t probe = 0;  // index into queries
    std::vector<std::vector<Edge>> batches;
    std::vector<std::array<double, 2>> mins;  // [batch][remove?]
  };
  std::vector<GraphUpdates> updates(graphs.size());
  for (size_t g = 0; g < graphs.size(); ++g) {
    GraphUpdates& u = updates[g];
    u.probe = queries.size();
    for (size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].graph == g &&
          (u.probe == queries.size() ||
           queries[i].spec.expected < queries[u.probe].spec.expected)) {
        u.probe = i;
      }
    }
    u.batches = PickBatches(graphs[g].graph.Edges(), sizes, kBatchSeed + g);
    u.mins.assign(u.batches.size(), {1e300, 1e300});
  }
  double update_total = 0;
  auto update_rep = [&](int rep, const std::vector<uint64_t>& got) {
    for (size_t g = 0; g < graphs.size(); ++g) {
      GraphUpdates& u = updates[g];
      std::vector<size_t> order(u.batches.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      Shuffle(&order, run->seed * 131 + g * 8 + static_cast<uint64_t>(rep));
      for (size_t b : order) {
        const std::string group = "update:" + graphs[g].dataset + ":" +
                                  std::to_string(u.batches[b].size()) + "#" +
                                  std::to_string(rep);
        for (bool remove : {true, false}) {
          const double s = TimedUpdate(&graphs[g].ccsr, nullptr, u.batches[b],
                                       remove, group, run);
          if (rep > 0) {
            u.mins[b][remove] = std::min(u.mins[b][remove], s);
            update_total += s;
          } else {
            ValidateIndex(graphs[g].ccsr, group, run);
          }
        }
        if (rep > 0 || (b + 1) % kBatchesPerSize != 0) continue;
        const EnumQuery& probe = queries[u.probe];
        MatchOptions options;
        options.variant = probe.spec.variant;
        options.num_threads = threads;
        Timed t = TimedMatch(matchers[g], probe.pattern, options,
                             probe.id + "@" + group, run);
        if (t.status.ok()) {
          CheckCount("the count before the removal", probe.id + "@" + group,
                     got[u.probe], t.result.embeddings, &run->checker);
        }
      }
    }
  };

  // Whole passes over the list, each in a seed-dependent order. Pass 0
  // is the warm-up; every later pass is timed.
  std::vector<size_t> order(queries.size());
  std::vector<uint64_t> got(queries.size(), 0);
  std::vector<double> pass_match_s;  // per timed pass: time in Match
  int timed_passes = 0;
  double last_pass = 0;
  const auto loop_start = Clock::now();
  for (int pass = 0;; ++pass) {
    if (pass > kMinTimedPasses &&
        Since(loop_start) + last_pass > run->seconds) {
      break;
    }
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    Shuffle(&order, run->seed * 7919 + static_cast<uint64_t>(pass));
    const auto pass_start = Clock::now();
    double match_s = 0;
    for (size_t i : order) {
      EnumQuery& q = queries[i];
      MatchOptions options;
      options.variant = q.spec.variant;
      options.num_threads = threads;
      Timed t = TimedMatch(matchers[q.graph], q.pattern, options,
                           q.id + "#" + std::to_string(pass), run);
      if (!t.status.ok()) continue;
      got[i] = t.result.embeddings;
      // Parallel counts are checked against the serial oracle table.
      CheckCount("the oracle table", q.id, q.spec.expected, got[i],
                 &run->checker);
      if (pass > 0) {
        q.samples.push_back(t.seconds);
        match_s += t.seconds;
        run->layers.AddMatch(t.result, threads);
      }
    }
    update_rep(pass, got);
    last_pass = Since(pass_start);
    if (pass > 0) {
      ++timed_passes;
      pass_match_s.push_back(match_s);
    }
    if (pass == kMinTimedPasses) run->peak_rss_mb = PeakRssMb();
  }
  std::vector<double> update_mins;
  for (const GraphUpdates& u : updates) {
    for (const auto& m : u.mins) {
      update_mins.insert(update_mins.end(), m.begin(), m.end());
    }
  }

  // Cross-query property checks on the engine's counts.
  std::vector<CountedQuery> counted;
  for (size_t i = 0; i < queries.size(); ++i) {
    const EnumQuery& q = queries[i];
    const auto t0 = Clock::now();
    const uint64_t aut = q.spec.variant == MatchVariant::kHomomorphic
                             ? 0
                             : CheapAutomorphismCount(q.pattern);
    run->tracer->Span("check.automorphisms", nullptr, q.id, t0, Since(t0));
    counted.push_back({q.id,
                       q.spec.family.dataset + "/" +
                           PatternPath("", q.spec.family, q.spec.index),
                       q.spec.variant, got[i], aut});
  }
  CheckVariantOrder(counted, &run->checker);
  CheckAutomorphismDivisibility(counted, &run->checker);

  // Each query's latency is its minimum over the timed passes, and the
  // suite sums them. The throughput is the list over the median pass's
  // time in Match, so one slow pass does not move it.
  std::vector<double> mins;
  double suite = 0;
  for (const EnumQuery& q : queries) {
    if (q.samples.empty()) continue;
    mins.push_back(*std::min_element(q.samples.begin(), q.samples.end()));
    suite += mins.back();
  }
  const double median_pass = Quantile(pass_match_s, 0.5);
  CSCE_RETURN_IF_ERROR(RepeatSetup(datasets, run));
  AddCommonMetrics(run, suite,
                   median_pass > 0 ? queries.size() / median_pass : 0.0,
                   Quantile(mins, 0.5) * 1e3, Quantile(mins, 0.99) * 1e3,
                   Quantile(update_mins, 0.5) * 1e3);
  AddLayerMetrics(run, timed_passes, 0.0,
                  timed_passes > 0 ? update_total / timed_passes : 0.0);
  std::fprintf(stderr, "%s: %d timed passes, suite %.4f s\n",
               run->workload.c_str(), timed_passes, suite);
  return Status::OK();
}

// ---------------------------------------------------------------------
// session-mix: short selective queries with edge updates between them.

struct SessionQuery {
  std::string id;
  std::string pattern_key;
  const Graph* pattern = nullptr;
  MatchVariant variant = MatchVariant::kEdgeInduced;
  /// Oracle count per update state: [0] the loaded graph, [k + 1] the
  /// graph without batch k.
  std::vector<uint64_t> oracle;
};

/// The data graph without the edges of `batch` (the oracle's mirror).
Status GraphWithout(const Graph& g, const std::vector<Edge>& batch,
                    Graph* out) {
  std::set<Edge> removed(batch.begin(), batch.end());
  csce::GraphBuilder b(g.directed());
  for (csce::VertexId v = 0; v < g.NumVertices(); ++v) {
    b.AddVertex(g.VertexLabel(v));
  }
  for (const Edge& e : g.Edges()) {
    if (removed.count(e) == 0) b.AddEdge(e.src, e.dst, e.elabel);
  }
  return b.Build(out);
}

uint64_t OracleCount(const Graph& data, const Graph& pattern,
                     MatchVariant variant, const std::string& id, Run* run) {
  const auto t0 = Clock::now();
  BacktrackingMatcher oracle(&data);
  csce::BaselineOptions options;
  options.variant = variant;
  csce::BaselineResult result;
  Status st = oracle.Match(pattern, options, &result);
  run->tracer->Span("check.oracle", nullptr, id, t0, Since(t0));
  if (!st.ok()) run->checker.Fail(id + ": oracle: " + st.ToString());
  return result.embeddings;
}

Status RunSession(Run* run) {
  std::vector<Indexed> graphs;
  CSCE_RETURN_IF_ERROR(Setup({"subcategory"}, run, &graphs));
  Indexed& ix = graphs[0];

  // The pool: every family pattern in every listed variant whose
  // oracle count on the loaded graph lies in the family's window.
  std::vector<std::unique_ptr<Graph>> patterns;
  std::vector<SessionQuery> pool;
  for (const Family& f : SessionFamilies()) {
    for (uint32_t i = 0; i < f.count; ++i) {
      auto p = std::make_unique<Graph>();
      CSCE_RETURN_IF_ERROR(
          csce::LoadGraphFromFile(PatternPath(run->dir, f, i), p.get()));
      for (char letter : f.variants) {
        SessionQuery q;
        CSCE_RETURN_IF_ERROR(ParseVariantLetter(letter, &q.variant));
        QuerySpec spec{f, i, q.variant, 0};
        q.id = QueryId(spec);
        q.pattern_key = PatternPath("", f, i);
        q.pattern = p.get();
        const uint64_t n = OracleCount(ix.graph, *p, q.variant, q.id, run);
        if (n < f.lo || n > f.hi) continue;
        q.oracle.push_back(n);
        pool.push_back(std::move(q));
      }
      patterns.push_back(std::move(p));
    }
  }
  if (pool.empty()) return Status::NotFound("session pool is empty");

  // Update batches: edges of the clusters the pool reads, so every
  // update invalidates clusters the queries use.
  std::set<std::tuple<csce::Label, csce::Label, csce::Label>> used;
  for (const auto& p : patterns) {
    for (const Edge& e : p->Edges()) {
      used.emplace(p->VertexLabel(e.src), p->VertexLabel(e.dst), e.elabel);
      if (!p->directed()) {
        used.emplace(p->VertexLabel(e.dst), p->VertexLabel(e.src), e.elabel);
      }
    }
  }
  std::vector<Edge> candidates;
  for (const Edge& e : ix.graph.Edges()) {
    if (used.count({ix.graph.VertexLabel(e.src), ix.graph.VertexLabel(e.dst),
                    e.elabel}) != 0) {
      candidates.push_back(e);
    }
  }
  const auto batches =
      PickBatches(std::move(candidates), {1, 4, 16, 64, 256}, kBatchSeed);
  for (size_t k = 0; k < batches.size(); ++k) {
    Graph mirror;
    CSCE_RETURN_IF_ERROR(GraphWithout(ix.graph, batches[k], &mirror));
    for (SessionQuery& q : pool) {
      q.oracle.push_back(OracleCount(mirror, *q.pattern, q.variant,
                                     q.id + "@-" + std::to_string(k), run));
    }
  }
  std::fprintf(stderr, "session-mix: pool of %zu queries, %zu edge batches\n",
               pool.size(), batches.size());

  csce::ClusterCache cache(&ix.ccsr);
  const CsceMatcher matcher(&ix.ccsr, &cache);
  const CsceMatcher uncached(&ix.ccsr);  // round-trip probes: cache untouched

  // One round = the pool in a seed-dependent order, cut into
  // 2 * |batches| chunks; between chunks batch k is removed, then
  // re-inserted. Round 0 is the warm-up.
  const size_t chunks = 2 * batches.size();
  std::vector<double> latencies, round_suites, update_samples;
  std::vector<double> fastest(pool.size(), 1e300);  // per query, timed
  // The engine's count of each query on the loaded graph (-1: unseen).
  std::vector<int64_t> state0_count(pool.size(), -1);
  std::vector<CountedQuery> counted;
  double update_total = 0;
  uint64_t hits0 = 0, misses0 = 0;
  int timed_rounds = 0;
  double last_round = 0;
  const auto loop_start = Clock::now();
  for (int round = 0;; ++round) {
    if (round > kMinTimedPasses &&
        Since(loop_start) + last_round > run->seconds) {
      break;
    }
    if (round == 1) {
      hits0 = cache.hits();
      misses0 = cache.misses();
    }
    const auto round_start = Clock::now();
    std::vector<size_t> order(pool.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    Shuffle(&order, run->seed * 104729 + static_cast<uint64_t>(round));
    double round_match_s = 0;
    size_t probe = pool.size();  // last query counted on the loaded graph
    uint64_t probe_count = 0;
    for (size_t c = 0; c < chunks; ++c) {
      const size_t k = c / 2;
      const size_t state = c % 2 == 0 ? 0 : k + 1;
      const size_t begin = order.size() * c / chunks;
      const size_t end = order.size() * (c + 1) / chunks;
      for (size_t j = begin; j < end; ++j) {
        SessionQuery& q = pool[order[j]];
        MatchOptions options;
        options.variant = q.variant;
        const std::string group = q.id + "@" + std::to_string(state) + "#" +
                                  std::to_string(round);
        Timed t = TimedMatch(matcher, *q.pattern, options, group, run);
        if (!t.status.ok()) continue;
        CheckCount("the oracle", group, q.oracle[state], t.result.embeddings,
                   &run->checker);
        if (state == 0) {
          probe = order[j];
          probe_count = t.result.embeddings;
          state0_count[probe] = static_cast<int64_t>(probe_count);
        }
        if (round > 0) {
          latencies.push_back(t.seconds);
          fastest[order[j]] = std::min(fastest[order[j]], t.seconds);
          round_match_s += t.seconds;
          run->layers.AddMatch(t.result, 1);
        }
      }
      // After an even chunk remove batch k, after an odd one put it back.
      const bool remove = c % 2 == 0;
      const std::string group = std::string(remove ? "remove:" : "insert:") +
                                std::to_string(batches[k].size());
      const double s =
          TimedUpdate(&ix.ccsr, &cache, batches[k], remove, group, run);
      if (round > 0) {
        update_samples.push_back(s);
        update_total += s;
      } else {
        // Every round removes and re-inserts the same batches in the same
        // order, so the warm-up round passes through every index state.
        // Validate() costs ~50x an update, too much to repeat per round.
        ValidateIndex(ix.ccsr, group, run);
      }
      if (!remove && probe < pool.size()) {
        // Removing and re-inserting a batch gives back the counts from
        // before the removal.
        const SessionQuery& q = pool[probe];
        MatchOptions options;
        options.variant = q.variant;
        Timed t = TimedMatch(uncached, *q.pattern, options,
                             q.id + "@" + group, run);
        if (t.status.ok()) {
          CheckCount("the count before the removal", q.id + "@" + group,
                     probe_count, t.result.embeddings, &run->checker);
        }
      }
    }
    last_round = Since(round_start);
    if (round > 0) {
      ++timed_rounds;
      round_suites.push_back(round_match_s);
    }
    if (round == kMinTimedPasses) run->peak_rss_mb = PeakRssMb();
  }
  for (size_t i = 0; i < pool.size(); ++i) {
    if (state0_count[i] < 0) continue;
    counted.push_back({pool[i].id, pool[i].pattern_key, pool[i].variant,
                       static_cast<uint64_t>(state0_count[i]),
                       pool[i].variant == MatchVariant::kHomomorphic
                           ? 0
                           : CheapAutomorphismCount(*pool[i].pattern)});
  }
  CheckVariantOrder(counted, &run->checker);
  CheckAutomorphismDivisibility(counted, &run->checker);

  const uint64_t hits = cache.hits() - hits0;
  const uint64_t lookups = hits + cache.misses() - misses0;
  // As on enum-*: the suite sums each query's minimum, the throughput is
  // the pool over the median round's time in Match.
  double suite = 0;
  for (double s : fastest) suite += s;
  const double median_round = Quantile(round_suites, 0.5);
  CSCE_RETURN_IF_ERROR(RepeatSetup({"subcategory"}, run));
  AddCommonMetrics(run, suite,
                   median_round > 0 ? pool.size() / median_round : 0.0,
                   Quantile(latencies, 0.5) * 1e3,
                   Quantile(latencies, 0.99) * 1e3,
                   Quantile(update_samples, 0.5) * 1e3);
  AddLayerMetrics(run, timed_rounds,
                  lookups == 0 ? 0.0 : 100.0 * hits / lookups,
                  timed_rounds == 0 ? 0.0 : update_total / timed_rounds);
  std::fprintf(stderr, "session-mix: %d timed rounds, %zu timed queries\n",
               timed_rounds, latencies.size());
  return Status::OK();
}

// ---------------------------------------------------------------------
// Commands.

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const Run& run, bool trace) {
  const std::vector<Metric>& metrics = trace ? run.per_layer : run.e2e;
  std::string out = std::string("{\"correct\": ") +
                    (run.checker.ok() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(run.attempted) +
                    ", \"failed\": " + std::to_string(run.failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int CmdRun(const csce::FlagParser& flags, Clock::time_point process_start) {
  const bool trace = flags.GetInt("trace", 0) != 0;
  Tracer tracer(trace);
  Run run;
  run.workload = flags.GetString("workload", "");
  run.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  run.seconds = flags.GetDouble("seconds", 0);
  run.dir = flags.GetString("dir", "");
  run.process_start = process_start;
  run.tracer = &tracer;

  Status st;
  if (!(run.seconds > 0)) {
    st = Status::InvalidArgument("--seconds must be a positive number");
  } else if (run.workload == "enum-serial" ||
             run.workload == "enum-parallel") {
    std::vector<QuerySpec> table;
    st = ReadQueryTable(flags.GetString("table", ""), &table);
    if (st.ok()) st = RunEnum(table, &run);
  } else if (run.workload == "session-mix") {
    st = RunSession(&run);
  } else {
    st = Status::InvalidArgument("unknown workload '" + run.workload + "'");
  }
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench run: %s\n", st.ToString().c_str());
    return 1;
  }
  for (const std::string& m : run.checker.messages()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", m.c_str());
  }
  for (const Metric& m : run.e2e) {
    std::fprintf(stderr, "  %-18s %14.6f %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
  if (Status t = tracer.Finish(flags.GetString("trace-out", "")); !t.ok()) {
    std::fprintf(stderr, "perfbench run: %s\n", t.ToString().c_str());
    return 1;
  }
  PrintResult(run, trace);
  return 0;
}

int CmdGen(const csce::FlagParser& flags) {
  Status st = GenerateInputs(flags.GetString("workload", ""),
                             flags.GetString("table", ""),
                             flags.GetString("dir", ""));
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench gen: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

/// Rebuilds the oracle table: samples every enumeration family and
/// counts each (pattern, variant) with BacktrackingMatcher on
/// kOracleJobs threads, one family at a time each; a query is kept iff
/// the oracle finished within kOracleTimeLimitSeconds and its count lies
/// in the family's window.
int CmdOracle(const csce::FlagParser& flags) {
  constexpr int kOracleJobs = 3;
  const std::string out = flags.GetString("out", "");
  const auto& families = EnumFamilies();
  std::vector<std::vector<QuerySpec>> kept(families.size());
  std::atomic<size_t> next{0};
  std::mutex log_mu;
  std::atomic<bool> ok{true};
  auto worker = [&] {
    for (size_t fi = next++; fi < families.size(); fi = next++) {
      const Family& f = families[fi];
      Graph data;
      std::vector<Graph> patterns;
      if (!MakeDataset(f.dataset, &data).ok() ||
          !SampleFamily(data, f, f.count, &patterns).ok()) {
        ok = false;
        return;
      }
      BacktrackingMatcher oracle(&data);
      for (uint32_t i = 0; i < f.count; ++i) {
        for (char letter : f.variants) {
          QuerySpec q{f, i, MatchVariant::kEdgeInduced, 0};
          if (!ParseVariantLetter(letter, &q.variant).ok()) ok = false;
          csce::BaselineOptions options;
          options.variant = q.variant;
          options.time_limit_seconds = kOracleTimeLimitSeconds;
          csce::BaselineResult r;
          if (!oracle.Match(patterns[i], options, &r).ok()) ok = false;
          q.expected = r.embeddings;
          const bool keep =
              !r.timed_out && r.embeddings >= f.lo && r.embeddings <= f.hi;
          {
            std::lock_guard<std::mutex> lock(log_mu);
            std::fprintf(stderr, "%-36s %14" PRIu64 "%s %8.2f s %s\n",
                         QueryId(q).c_str(), r.embeddings,
                         r.timed_out ? "+" : " ", r.total_seconds,
                         keep ? "kept" : "out");
          }
          if (keep) kept[fi].push_back(q);
        }
      }
    }
  };
  std::vector<std::thread> pool;
  for (int j = 0; j < kOracleJobs; ++j) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  std::vector<QuerySpec> all;
  for (const auto& k : kept) all.insert(all.end(), k.begin(), k.end());
  if (!ok || out.empty()) {
    std::fprintf(stderr, "perfbench oracle: failed\n");
    return 1;
  }
  if (Status st = WriteQueryTable(out, all); !st.ok()) {
    std::fprintf(stderr, "perfbench oracle: %s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu queries to %s\n", all.size(), out.c_str());
  return 0;
}

/// Feeds every check a right and a wrong count: the right one must
/// pass, the wrong one must fire.
int CmdSelftest() {
  int bad = 0;
  auto expect = [&](const char* what, const Checker& c, bool should_fire) {
    const bool fired = !c.ok();
    std::fprintf(stderr, "%-48s %s\n", what,
                 fired == should_fire ? "ok" : "WRONG");
    if (fired != should_fire) ++bad;
  };
  // A real query: a complex 6-vertex DIP pattern counted by CSCE and by
  // the oracle, the same path the workloads take.
  Graph dip;
  std::vector<Graph> ps;
  Family f{"dip", 6, Density::kComplex, 1, 1, "EVH", 0, 0};
  if (!MakeDataset("dip", &dip).ok() || !SampleFamily(dip, f, 1, &ps).ok()) {
    std::fprintf(stderr, "selftest: cannot build inputs\n");
    return 1;
  }
  Ccsr gc = Ccsr::Build(dip);
  CsceMatcher matcher(&gc);
  BacktrackingMatcher oracle(&dip);
  std::vector<CountedQuery> counted;
  for (MatchVariant v : {MatchVariant::kEdgeInduced,
                         MatchVariant::kVertexInduced,
                         MatchVariant::kHomomorphic}) {
    MatchOptions mo;
    mo.variant = v;
    MatchResult mr;
    csce::BaselineOptions bo;
    bo.variant = v;
    csce::BaselineResult br;
    if (!matcher.Match(ps[0], mo, &mr).ok() ||
        !oracle.Match(ps[0], bo, &br).ok()) {
      return 1;
    }
    Checker right, wrong;
    CheckCount("the oracle", "dip", br.embeddings, mr.embeddings, &right);
    CheckCount("the oracle", "dip", br.embeddings, mr.embeddings + 1, &wrong);
    expect("oracle count, right", right, false);
    expect("oracle count, off by one", wrong, true);
    counted.push_back({std::string("dip-") + VariantLetter(v), "p", v,
                       mr.embeddings, CheapAutomorphismCount(ps[0])});
  }
  {
    Checker right, wrong_eh, wrong_ev;
    CheckVariantOrder(counted, &right);
    expect("variant order, right", right, false);
    auto swapped = counted;  // E above H
    swapped[0].count = swapped[2].count + 1;
    CheckVariantOrder(swapped, &wrong_eh);
    expect("variant order, E > H", wrong_eh, true);
    swapped = counted;  // V above E
    swapped[1].count = swapped[0].count + 1;
    CheckVariantOrder(swapped, &wrong_ev);
    expect("variant order, V > E", wrong_ev, true);
  }
  {
    // A 4-cycle of one label has 8 automorphisms.
    csce::GraphBuilder b(false);
    for (int i = 0; i < 4; ++i) b.AddVertex(1);
    for (int i = 0; i < 4; ++i) b.AddEdge(i, (i + 1) % 4, 0);
    Graph cycle;
    if (!b.Build(&cycle).ok()) return 1;
    const uint64_t aut = CheapAutomorphismCount(cycle);
    Checker right, wrong, unknown;
    std::fprintf(stderr, "%-48s %s\n", "|Aut(C4)| = 8",
                 aut == 8 ? "ok" : "WRONG");
    if (aut != 8) ++bad;
    CheckAutomorphismDivisibility(
        {{"c4", "c4", MatchVariant::kEdgeInduced, 8 * 1234, aut}}, &right);
    expect("automorphism divisibility, right", right, false);
    CheckAutomorphismDivisibility(
        {{"c4", "c4", MatchVariant::kVertexInduced, 8 * 1234 + 4, aut}},
        &wrong);
    expect("automorphism divisibility, wrong", wrong, true);
    for (const CountedQuery& q : counted) {
      CheckAutomorphismDivisibility({q}, &unknown);
    }
    expect("automorphism divisibility, dip counts", unknown, false);
  }
  {
    // Remove and re-insert a batch; the count must come back.
    std::vector<Edge> edges = dip.Edges();
    std::vector<Edge> batch(edges.begin(), edges.begin() + 64);
    MatchOptions mo;
    MatchResult before, after;
    if (!matcher.Match(ps[0], mo, &before).ok() ||
        !gc.RemoveEdges(batch).ok() || !gc.Validate().ok() ||
        !gc.InsertEdges(batch).ok() || !gc.Validate().ok() ||
        !matcher.Match(ps[0], mo, &after).ok()) {
      return 1;
    }
    Checker right, wrong;
    CheckCount("the count before the removal", "dip", before.embeddings,
               after.embeddings, &right);
    CheckCount("the count before the removal", "dip", before.embeddings,
               after.embeddings - 1, &wrong);
    expect("remove/re-insert round trip, right", right, false);
    expect("remove/re-insert round trip, wrong", wrong, true);
  }
  std::fprintf(stderr, "selftest: %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

int CmdInfo() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::printf("cpu: %s\nnproc: %u\n", model.c_str(),
              std::thread::hardware_concurrency());
  std::printf("cache: L1d %ld KiB, L2 %ld KiB, L3 %ld KiB\n",
              sysconf(_SC_LEVEL1_DCACHE_SIZE) / 1024,
              sysconf(_SC_LEVEL2_CACHE_SIZE) / 1024,
              sysconf(_SC_LEVEL3_CACHE_SIZE) / 1024);
  std::printf("set-op kernel: %s\n",
              csce::setops::KernelName(csce::setops::ActiveKernel()));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  csce::FlagParser flags;
  if (argc < 2 || !flags.Parse(argc - 1, argv + 1).ok()) {
    std::fprintf(stderr,
                 "usage: perfbench gen|run|oracle|selftest|info [--flags]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "run") return perfbench::CmdRun(flags, process_start);
  if (cmd == "gen") return perfbench::CmdGen(flags);
  if (cmd == "oracle") return perfbench::CmdOracle(flags);
  if (cmd == "selftest") return perfbench::CmdSelftest();
  if (cmd == "info") return perfbench::CmdInfo();
  std::fprintf(stderr, "perfbench: unknown command '%s'\n", cmd.c_str());
  return 2;
}
