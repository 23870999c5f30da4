// n2j_perfbench: one closed-loop client running a workload's fixed
// operation sequence against the engine.
//
//   n2j_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans <path>]
//
// --trace 0 times QueryEngine::Run and prints the end-to-end metrics;
// --trace 1 replaces each QueryEngine::Run by the traced layer calls and
// prints the per-layer metrics (and writes the spans to --spans). The
// last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "harness/spans.h"
#include "harness/summary.h"
#include "harness/traced.h"
#include "harness/workload.h"

namespace n2j {
namespace perfbench {
namespace {

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 21;
// Engine threads of the traced thread-pool comparison (shredded only).
constexpr int kSpeedupThreads = 2;
// Share of the fastest and of the slowest samples of each class that
// the trimmed mean drops, so a rare stall does not move it.
constexpr double kTrim = 0.05;
// Mismatches reported on stderr per run.
constexpr int kMaxReported = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      long s = std::strtol(v, &end, 10);
      if (*end != '\0' || s < 1 || s > 3600) return false;
      a->seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] == '1';
    } else if (flag == "--spans") {
      a->spans_path = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                      metrics[i].unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::vector<std::string> ClassNames(const Workload& w) {
  std::vector<std::string> names;
  for (const QueryClass& c : w.classes) names.push_back(c.name);
  return names;
}

// Every class name of every workload, for the exec.eval_ms.<class>
// metrics (0 where the workload has no such class).
std::vector<std::string> AllClassNames() {
  std::vector<std::string> names;
  for (const std::string& workload : WorkloadNames()) {
    for (const std::string& c : ClassNames(*FindWorkload(workload))) {
      if (std::find(names.begin(), names.end(), c) == names.end()) {
        names.push_back(c);
      }
    }
  }
  return names;
}

void PrintFingerprint(const std::vector<Op>& ops, const std::string& extents) {
  std::printf("ops: %zu  ops_hash: %016llx\nfinal extents: %s\n", ops.size(),
              static_cast<unsigned long long>(OpsFingerprint(ops)),
              extents.c_str());
}

void ReportMismatch(int* reported, const Op& op, const std::string& why) {
  if (++*reported > kMaxReported) return;
  std::fprintf(stderr, "FAILED op (pass %d): %s\n  %s\n", op.pass,
               op.text.empty() ? "<write batch>" : op.text.c_str(),
               why.c_str());
}

std::unique_ptr<QueryEngine> MakeEngine(const Workload& w,
                                        const Database* db) {
  return std::make_unique<QueryEngine>(db, RewriteOptions(), w.eval,
                                       w.planner);
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics.

// One set-up: data generation, engine construction and one warm-up pass
// (the first pass's queries, uncounted) that fills every cache.
struct SetUp {
  std::unique_ptr<Database> db;
  std::unique_ptr<QueryEngine> engine;  // destroyed before db
  double seconds = 0;
};

bool RunSetUp(const Workload& w, uint64_t seed, const std::vector<Op>& ops,
              SetUp* out) {
  int64_t t0 = MonotonicNanos();
  out->db = MakeDatabase(w, seed);
  out->engine = MakeEngine(w, out->db.get());
  for (const Op& op : ops) {
    if (op.pass > 0) break;
    if (op.kind != Op::Kind::kQuery) continue;
    Result<QueryReport> r = out->engine->Run(op.text);
    if (!r.ok()) {
      std::fprintf(stderr, "warm-up query failed: %s\n  %s\n",
                   op.text.c_str(), r.status().ToString().c_str());
      return false;
    }
  }
  out->seconds = static_cast<double>(MonotonicNanos() - t0) / 1e9;
  return true;
}

int RunUntraced(const Workload& w, const Args& a) {
  const int passes = w.Passes(a.seconds);
  const std::vector<Op> ops = MakeOps(w, a.seed, passes);

  // The timed sequence runs on the first set-up. The other kSetups - 1
  // are spread evenly across the sequence, outside the timed operations,
  // so setup_s samples the same stretch of host conditions as the
  // queries do.
  SetUp live;
  if (!RunSetUp(w, a.seed, ops, &live)) return 1;
  std::vector<double> setup_s = {live.seconds};
  const int setup_every = passes / kSetups;

  // References live in their own database, so checking never warms a
  // cache the timed engine reads. A pass's ops run back to back, as one
  // client would issue them; their results are checked after the pass,
  // when the reference database receives the pass's write batch.
  std::unique_ptr<Database> ref_db = MakeDatabase(w, a.seed);
  std::map<std::string, Value> refs;  // by text; cleared by every write
  struct Pending {
    const Op* op;
    Result<Value> result;
  };
  std::vector<Pending> pending;

  std::vector<std::vector<double>> lat(w.classes.size());
  std::vector<double> write_ms;
  int64_t timed_ns = 0, attempted = 0, failed = 0, queries = 0;
  int64_t ref_ns = 0;
  size_t ref_count = 0;
  int reported = 0;
  auto check_pass = [&]() {
    for (Pending& p : pending) {
      const Op& op = *p.op;
      if (op.kind == Op::Kind::kWrite) {
        Status s = ApplyWriteBatch(ref_db.get(), w, a.seed, op.pass);
        if (!s.ok()) {
          ++failed;
          ReportMismatch(&reported, op, "reference write: " + s.ToString());
        }
        refs.clear();
        continue;
      }
      auto it = refs.find(op.text);
      if (it == refs.end()) {
        int64_t r0 = MonotonicNanos();
        Result<Value> ref = ReferenceValue(
            *ref_db, op.text,
            w.classes[static_cast<size_t>(op.cls)].reference);
        ref_ns += MonotonicNanos() - r0;
        if (!ref.ok()) {
          ++failed;
          ReportMismatch(&reported, op, "reference failed: " +
                                            ref.status().ToString());
          continue;
        }
        it = refs.emplace(op.text, *std::move(ref)).first;
        ++ref_count;
      }
      if (!p.result.ok()) {
        ++failed;
        ReportMismatch(&reported, op, p.result.status().ToString());
      } else if (!(*p.result == it->second)) {
        ++failed;
        ReportMismatch(&reported, op, "value differs from the reference");
      }
    }
    pending.clear();
  };
  int last_pass = 0;
  for (const Op& op : ops) {
    if (op.pass != last_pass) {
      check_pass();
      last_pass = op.pass;
      if (op.pass % setup_every == 0 &&
          setup_s.size() < static_cast<size_t>(kSetups)) {
        SetUp extra;
        if (!RunSetUp(w, a.seed, ops, &extra)) return 1;
        setup_s.push_back(extra.seconds);
      }
    }
    ++attempted;
    if (op.kind == Op::Kind::kWrite) {
      int64_t t0 = MonotonicNanos();
      Status s = ApplyWriteBatch(live.db.get(), w, a.seed, op.pass);
      int64_t dt = MonotonicNanos() - t0;
      timed_ns += dt;
      write_ms.push_back(Ms(dt));
      if (!s.ok()) {
        ++failed;
        ReportMismatch(&reported, op, s.ToString());
      }
      pending.push_back({&op, Value()});
      continue;
    }
    int64_t t0 = MonotonicNanos();
    Result<QueryReport> r = live.engine->Run(op.text);
    int64_t dt = MonotonicNanos() - t0;
    timed_ns += dt;
    ++queries;
    lat[static_cast<size_t>(op.cls)].push_back(Ms(dt));
    if (r.ok()) {
      pending.push_back({&op, std::move(r->result)});
    } else {
      pending.push_back({&op, r.status()});
    }
  }
  check_pass();

  const std::vector<std::string> names = ClassNames(w);
  std::printf("workload %s seed %llu: %lld queries, %zu write batches\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              static_cast<long long>(queries), write_ms.size());
  std::printf("%-16s %8s %12s %12s %12s\n", "class", "samples",
              "mean ms", "p50 ms", "p95 ms");
  for (size_t c = 0; c < lat.size(); ++c) {
    std::printf("%-16s %8zu %12.4f %12.4f %12.4f\n", names[c].c_str(),
                lat[c].size(), TrimmedMean(lat[c], kTrim),
                Percentile(lat[c], 0.5), Percentile(lat[c], 0.95));
  }
  if (!write_ms.empty()) {
    std::printf("write batch p50 %.4f ms over %zu batches\n",
                Percentile(write_ms, 0.5), write_ms.size());
  }
  std::printf("timed %.3f s; %zu references computed in %.3f s\n",
              static_cast<double>(timed_ns) / 1e9, ref_count,
              static_cast<double>(ref_ns) / 1e9);
  PrintFingerprint(ops, ExtentSizes(*live.db));

  Result<double> mean = ClassGeoMeanTrimmedMean(lat, names, kTrim);
  Result<double> p95 = ClassGeoMeanPercentile(lat, names, 0.95);
  if (!mean.ok() || !p95.ok()) {
    std::fprintf(stderr, "refusing to report: %s\n",
                 (!mean.ok() ? mean : p95).status().ToString().c_str());
    return 1;
  }
  std::vector<Metric> m = {
      {"throughput_qps",
       static_cast<double>(queries) / (static_cast<double>(timed_ns) / 1e9),
       "1/s"},
      {"query_ms_trimmed_mean", *mean, "ms"},
      {"query_ms_p95", *p95, "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"setup_s", Percentile(setup_s, 0.5), "s"},
  };
  PrintResult(failed == 0, attempted, failed, m);
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer metrics.

// One traced pass over the sequence on a fresh database.
struct TracedPass {
  SpanRecorder spans;
  std::vector<int> op_class;       // class per op id (-1 for writes)
  std::vector<int> query_span;     // root span per op id (-1 for writes)
  std::vector<EvalStats> stats;    // per op id
  std::vector<int64_t> rules;      // per op id
  std::vector<uint64_t> heuristic_work;  // per op id (when measured)
  std::vector<double> engine_ms;   // QueryEngine::Run wall per op id
  std::vector<double> write_ms;    // untraced batches on the engine db
  int64_t failed = 0;
  std::string extents;
};

struct PassOptions {
  bool compare_engine = false;  // run QueryEngine::Run on a twin database
  bool heuristic_work = false;  // evaluate the heuristic plan's work
};

TracedPass RunTracedPass(const Workload& w, uint64_t seed,
                         const std::vector<Op>& ops, PassOptions po) {
  TracedPass out;
  const size_t n = ops.size();
  out.op_class.assign(n, -1);
  out.query_span.assign(n, -1);
  out.stats.resize(n);
  out.rules.assign(n, 0);
  out.heuristic_work.assign(n, 0);
  out.engine_ms.assign(n, 0);

  std::unique_ptr<Database> db = MakeDatabase(w, seed);
  std::unique_ptr<Database> engine_db;
  std::unique_ptr<QueryEngine> engine;
  if (po.compare_engine) {
    engine_db = MakeDatabase(w, seed);
    engine = MakeEngine(w, engine_db.get());
  }
  TracedRunner runner(*db, w, &out.spans);
  // Warm-up as in the untraced set-up; negative op ids mark its spans.
  for (size_t i = 0; i < n && ops[i].pass == 0; ++i) {
    if (ops[i].kind != Op::Kind::kQuery) continue;
    (void)runner.Run(-1 - static_cast<int64_t>(i), ops[i].text);
    if (engine != nullptr) (void)engine->Run(ops[i].text);
  }

  int reported = 0;
  for (size_t i = 0; i < n; ++i) {
    const Op& op = ops[i];
    const int64_t id = static_cast<int64_t>(i);
    if (op.kind == Op::Kind::kWrite) {
      int root = out.spans.Begin(id, kWriteSpan);
      Status s = ApplyWriteBatch(db.get(), w, seed, op.pass,
                                 [&](int64_t t0, int64_t t1) {
                                   out.spans.Add(id, kInsertSpan, t0, t1,
                                                 root);
                                 });
      out.spans.End(root);
      if (s.ok() && engine_db != nullptr) {
        int64_t t0 = MonotonicNanos();
        s = ApplyWriteBatch(engine_db.get(), w, seed, op.pass);
        out.write_ms.push_back(Ms(MonotonicNanos() - t0));
      }
      if (!s.ok()) {
        ++out.failed;
        ReportMismatch(&reported, op, s.ToString());
      }
      continue;
    }
    out.op_class[i] = op.cls;
    // The engine twin runs first on odd passes, so neither side of the
    // glue and overhead comparisons always finds the CPU caches warm.
    std::optional<Result<QueryReport>> r;
    auto run_engine = [&] {
      int64_t t0 = MonotonicNanos();
      r.emplace(engine->Run(op.text));
      out.engine_ms[i] = Ms(MonotonicNanos() - t0);
    };
    const bool engine_first = engine != nullptr && op.pass % 2 == 1;
    if (engine_first) run_engine();
    Result<TracedQuery> t = runner.Run(id, op.text);
    if (engine != nullptr && !engine_first) run_engine();
    if (t.ok()) {
      out.query_span[i] = t->query_span;
      out.stats[i] = t->stats;
      out.rules[i] = t->rules_fired;
    }
    std::string why;
    if (engine != nullptr) {
      Result<Value> traced_value =
          t.ok() ? Result<Value>(t->value) : Result<Value>(t.status());
      if (!SameResult(traced_value, *r, &why) || !r->ok()) {
        ++out.failed;
        ReportMismatch(&reported, op,
                       why.empty() ? r->status().ToString() : why);
        continue;
      }
    } else if (!t.ok()) {
      ++out.failed;
      ReportMismatch(&reported, op, t.status().ToString());
      continue;
    }
    if (po.heuristic_work) {
      Evaluator ev(*db, w.eval);
      Result<Value> hv = ev.Eval(t->rewritten);
      out.heuristic_work[i] = Work(ev.stats());
      if (!hv.ok() || !(*hv == t->value)) {
        ++out.failed;
        ReportMismatch(&reported, op, "heuristic plan disagrees");
      }
    }
  }
  out.extents = ExtentSizes(*db);
  return out;
}

// Ops whose exact counters differ between two passes of one sequence.
int64_t CounterMismatches(const TracedPass& a, const TracedPass& b,
                          const std::vector<Op>& ops, const char* what) {
  int64_t bad = 0;
  int reported = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (a.stats[i] == b.stats[i] && a.rules[i] == b.rules[i] &&
        a.heuristic_work[i] == b.heuristic_work[i]) {
      continue;
    }
    ++bad;
    ReportMismatch(&reported, ops[i],
                   std::string("exact counters differ ") + what + ": " +
                       a.stats[i].Compact() + " vs " + b.stats[i].Compact());
  }
  return bad;
}

// Span durations in ms, grouped by layer then by query class.
using LayerSamples = std::map<std::string, std::vector<std::vector<double>>>;

LayerSamples ByLayerAndClass(const TracedPass& p, size_t classes) {
  LayerSamples out;
  for (const Span& s : p.spans.spans()) {
    if (s.op < 0) continue;
    int cls = p.op_class[static_cast<size_t>(s.op)];
    if (cls < 0) continue;
    auto& v = out[s.layer];
    v.resize(classes);
    v[static_cast<size_t>(cls)].push_back(Ms(s.duration_ns()));
  }
  return out;
}

// Per-class median of each class that has samples (NaN where none).
std::vector<double> ClassMedians(const LayerSamples& by, const char* layer,
                                 size_t classes) {
  std::vector<double> out(classes, std::nan(""));
  auto it = by.find(layer);
  if (it == by.end()) return out;
  for (size_t c = 0; c < classes; ++c) {
    if (!it->second[c].empty()) out[c] = Percentile(it->second[c], 0.5);
  }
  return out;
}

// Geometric mean of the per-class medians; 0 when the layer did no work.
double GeoMeanOfMedians(const LayerSamples& by, const char* layer,
                        size_t classes) {
  std::vector<double> vals;
  for (double v : ClassMedians(by, layer, classes)) {
    if (!std::isnan(v)) vals.push_back(std::max(v, 1e-6));
  }
  return vals.empty() ? 0.0 : GeoMean(vals);
}

// Median over every span of a layer (all classes, and writes); 0 if none.
double LayerMedian(const TracedPass& p, const char* layer, double scale) {
  std::vector<double> v;
  for (const Span& s : p.spans.spans()) {
    if (s.op >= 0 && s.layer == layer) {
      v.push_back(static_cast<double>(s.duration_ns()) * scale);
    }
  }
  return v.empty() ? 0.0 : Percentile(v, 0.5);
}

size_t CountSpans(const TracedPass& p, const char* layer) {
  size_t n = 0;
  for (const Span& s : p.spans.spans()) n += s.op >= 0 && s.layer == layer;
  return n;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int RunTraced(const Workload& w, const Args& a) {
  // Each op runs several times here (traced, engine twin, repeat pass,
  // 2-thread pass), so the traced sequence is a prefix of the untraced one.
  const int passes = std::max(20, w.Passes(a.seconds) / 4);
  const std::vector<Op> ops = MakeOps(w, a.seed, passes);
  const size_t nc = w.classes.size();
  const bool cost = w.planner.strategy == PlanStrategy::kCost;
  const bool shredded = w.eval.backend == Backend::kShredded;

  PassOptions main_opts;
  main_opts.compare_engine = true;
  main_opts.heuristic_work = cost && !shredded;
  TracedPass p = RunTracedPass(w, a.seed, ops, main_opts);
  PassOptions repeat_opts;
  repeat_opts.heuristic_work = main_opts.heuristic_work;
  TracedPass again = RunTracedPass(w, a.seed, ops, repeat_opts);
  int64_t failed = p.failed + again.failed;
  failed += CounterMismatches(p, again, ops, "across two traced passes");

  // The shredded workload runs one engine thread end to end; here its
  // sequence also runs on kSpeedupThreads to price the thread pool.
  double mt_speedup = 0;
  if (shredded) {
    Workload parallel_w = w;
    parallel_w.eval.num_threads = kSpeedupThreads;
    TracedPass parallel = RunTracedPass(parallel_w, a.seed, ops, repeat_opts);
    failed += parallel.failed;
    failed += CounterMismatches(p, parallel, ops, "between 1 and 2 threads");
    std::vector<double> st =
        ClassMedians(ByLayerAndClass(p, nc), kShredExecSpan, nc);
    std::vector<double> mt =
        ClassMedians(ByLayerAndClass(parallel, nc), kShredExecSpan, nc);
    std::vector<double> speedups;
    for (size_t c = 0; c < nc; ++c) speedups.push_back(st[c] / mt[c]);
    mt_speedup = GeoMean(speedups);
  }

  LayerSamples by = ByLayerAndClass(p, nc);
  EvalStats total;
  int64_t rules = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    total.Merge(p.stats[i]);
    rules += p.rules[i];
  }

  // Cost plan work against heuristic plan work, per class.
  double work_geo = 0, work_max = 0;
  if (main_opts.heuristic_work) {
    std::vector<double> cost_work(nc, 0), heur_work(nc, 0);
    for (size_t i = 0; i < ops.size(); ++i) {
      if (p.op_class[i] < 0) continue;
      cost_work[static_cast<size_t>(p.op_class[i])] +=
          static_cast<double>(Work(p.stats[i]));
      heur_work[static_cast<size_t>(p.op_class[i])] +=
          static_cast<double>(p.heuristic_work[i]);
    }
    std::vector<double> ratios;
    std::printf("%-16s %14s %14s %8s\n", "class", "cost work",
                "heuristic work", "ratio");
    for (size_t c = 0; c < nc; ++c) {
      double r = Ratio(cost_work[c], heur_work[c]);
      std::printf("%-16s %14.0f %14.0f %8.3f\n", w.classes[c].name,
                  cost_work[c], heur_work[c], r);
      if (r > 0) ratios.push_back(r);
    }
    if (!ratios.empty()) {
      work_geo = GeoMean(ratios);
      work_max = *std::max_element(ratios.begin(), ratios.end());
    }
  }

  // Engine glue: QueryEngine::Run wall minus the traced layer calls of
  // the same op (the traced path's extra lowering call excluded).
  std::vector<double> layer_ms(ops.size(), 0);
  double traced_total = 0, engine_total = 0;
  for (const Span& s : p.spans.spans()) {
    if (s.op < 0 || s.parent < 0 || s.layer == kLowerSpan) continue;
    layer_ms[static_cast<size_t>(s.op)] += Ms(s.duration_ns());
  }
  std::vector<std::vector<double>> glue(nc);
  for (size_t i = 0; i < ops.size(); ++i) {
    if (p.query_span[i] < 0) continue;
    glue[static_cast<size_t>(p.op_class[i])].push_back(p.engine_ms[i] -
                                                        layer_ms[i]);
    traced_total += Ms(p.spans.spans()[static_cast<size_t>(p.query_span[i])]
                           .duration_ns());
    engine_total += p.engine_ms[i];
  }
  double glue_ms = 0;
  for (const auto& g : glue) {
    if (!g.empty()) glue_ms += Percentile(g, 0.5) / static_cast<double>(nc);
  }

  const size_t stats_collects = CountSpans(p, kStatsCollectSpan);
  const size_t stats_hits = CountSpans(p, kStatsHitSpan);
  const size_t col_builds = CountSpans(p, kColumnarBuildSpan);
  const size_t col_hits = CountSpans(p, kColumnarHitSpan);

  std::vector<Metric> m = {
      {"oosql.parse_ms", GeoMeanOfMedians(by, kParseSpan, nc), "ms"},
      {"oosql.translate_ms", GeoMeanOfMedians(by, kTranslateSpan, nc), "ms"},
      {"rewrite.rewrite_ms", GeoMeanOfMedians(by, kRewriteSpan, nc), "ms"},
      {"rewrite.rules_fired", static_cast<double>(rules), "count"},
      {"opt.plan_ms", GeoMeanOfMedians(by, kPlanSpan, nc), "ms"},
      {"opt.work_ratio_geomean", work_geo, "ratio"},
      {"opt.work_ratio_max", work_max, "ratio"},
      {"stats.collect_ms", LayerMedian(p, kStatsCollectSpan, 1e-6), "ms"},
      {"stats.hit_ratio",
       Ratio(static_cast<double>(stats_hits),
             static_cast<double>(stats_hits + stats_collects)),
       "ratio"},
      {"storage.columnar_ms", LayerMedian(p, kColumnarBuildSpan, 1e-6), "ms"},
      {"storage.columnar_hit_ratio",
       Ratio(static_cast<double>(col_hits),
             static_cast<double>(col_hits + col_builds)),
       "ratio"},
      {"storage.insert_us", LayerMedian(p, kInsertSpan, 1e-3), "us"},
      {"write_ms_p50",
       p.write_ms.empty() ? 0.0 : Percentile(p.write_ms, 0.5), "ms"},
      {"shred.lower_ms", GeoMeanOfMedians(by, kLowerSpan, nc), "ms"},
      {"shred.exec_ms", GeoMeanOfMedians(by, kShredExecSpan, nc), "ms"},
      {"shred.vec_fallback_ratio",
       Ratio(static_cast<double>(total.vec_fallbacks),
             static_cast<double>(total.vec_pipelines + total.vec_fallbacks)),
       "ratio"},
      {"shred.mt_speedup", mt_speedup, "ratio"},
      {"exec.eval_ms", GeoMeanOfMedians(by, kNestedExecSpan, nc), "ms"},
      {"exec.tuples_scanned", static_cast<double>(total.tuples_scanned),
       "count"},
      {"exec.predicate_evals", static_cast<double>(total.predicate_evals),
       "count"},
      {"exec.hash_inserts", static_cast<double>(total.hash_inserts), "count"},
      {"exec.hash_probes", static_cast<double>(total.hash_probes), "count"},
      {"exec.joins_nested_loop",
       static_cast<double>(total.joins_nested_loop), "count"},
      {"exec.joins_hash", static_cast<double>(total.joins_hash), "count"},
      {"exec.compiled_ratio",
       Ratio(static_cast<double>(total.compiled_evals),
             static_cast<double>(total.compiled_evals +
                                 total.interp_fallback_evals)),
       "ratio"},
      {"core.glue_ms", glue_ms, "ms"},
      {"trace.overhead_frac", Ratio(traced_total, engine_total) - 1.0,
       "ratio"},
  };
  std::vector<double> eval = ClassMedians(by, kNestedExecSpan, nc);
  for (const std::string& name : AllClassNames()) {
    double v = 0;
    for (size_t c = 0; c < nc; ++c) {
      if (w.classes[c].name == name && !std::isnan(eval[c])) v = eval[c];
    }
    m.push_back({"exec.eval_ms." + name, v, "ms"});
  }

  std::printf("traced workload %s seed %llu: %zu ops over %d passes\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              ops.size(), passes);
  PrintFingerprint(ops, p.extents);
  std::printf("spans: %zu (stats collect %zu / hit %zu, columnar build %zu "
              "/ hit %zu)\n",
              p.spans.spans().size(), stats_collects, stats_hits, col_builds,
              col_hits);
  if (!a.spans_path.empty() && !p.spans.WriteJsonl(a.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", a.spans_path.c_str());
    return 1;
  }
  PrintResult(failed == 0, static_cast<int64_t>(ops.size()), failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace n2j

int main(int argc, char** argv) {
  using namespace n2j::perfbench;
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: n2j_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>]\n");
    return 2;
  }
  const Workload* w = FindWorkload(a.workload);
  if (w == nullptr) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    std::fprintf(stderr, "unknown workload %s; known:%s\n",
                 a.workload.c_str(), names.c_str());
    return 2;
  }
  return a.trace ? RunTraced(*w, a) : RunUntraced(*w, a);
}
