// prague_bench — the repository's benchmark.
//
//   prague_bench --workload=<name|all> --seed=<n> [--seconds=<s>]
//                [--trace=<file>] [--out=<file.jsonl>] [--data-dir=<dir>]
//                [--smoke] [--perturb]
//
// For each workload: generates the AIDS-like database and the query pool
// (both frozen), sets the deployment up kSetupRepeats times (setup_s is the
// median), drives the server over loopback for --seconds (append_mix: for
// its fixed APPEND plan), with --seed choosing what the clients send,
// checks every answer against the index-free reference, and
// prints one `workload metric value unit` line per end-to-end metric plus
// one JSON record (also appended to --out). --trace runs the workload a
// second time with client spans on, replays the operations through the
// layer APIs, writes every span to the trace file, and adds the per-layer
// metrics and the tracing overhead to the record. Exit status: 0 when every
// answer matched, 1 on a mismatch or an incomplete run, 2 on bad usage.
//
// --smoke runs a tiny version of each workload (any build type); --perturb
// corrupts one reference answer so a correct engine must fail the check.

#include <sys/resource.h>
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datasets/aids_generator.h"
#include "percentile.h"
#include "query/pattern_parser.h"
#include "reference.h"
#include "replay.h"
#include "storage/storage_engine.h"
#include "workloads.h"

#ifndef PRAGUE_BENCH_BUILD_TYPE
#define PRAGUE_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PRAGUE_BENCH_GIT_SHA
#define PRAGUE_BENCH_GIT_SHA "unknown"
#endif

namespace prague::perfbench {
namespace {

constexpr double kNa = std::numeric_limits<double>::quiet_NaN();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 8;
  std::string trace_path;
  std::string out_path;
  std::string data_dir = ".prague_bench_data";
  bool smoke = false;
  bool perturb = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  bool correct = true;
  bool complete = true;  // every metric had its samples
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t answers = 0;
  uint64_t mismatches = 0;
};

double CurrentRssMb() {
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Per-layer names read <layer>.<quantity>[.pNN]; the quantity's suffix
// names the unit.
std::string UnitOf(const std::string& name) {
  std::string quantity = name;
  const size_t dot = quantity.rfind('.');
  if (dot != std::string::npos && dot + 2 < quantity.size() &&
      quantity[dot + 1] == 'p' &&
      std::isdigit(static_cast<unsigned char>(quantity[dot + 2]))) {
    quantity.resize(dot);
  }
  auto ends = [&](const std::string& suffix) {
    return quantity.size() >= suffix.size() &&
           quantity.compare(quantity.size() - suffix.size(), suffix.size(),
                            suffix) == 0;
  };
  if (name.rfind("bench.trace_overhead_pct.", 0) == 0) return "%";
  if (ends("_bytes_per_append")) return "B";
  if (ends("_us")) return "us";
  if (ends("_ms") || ends("_ms_per_record")) return "ms";
  if (ends("_s")) return "s";
  if (ends("_yield")) return "ratio";
  return "count";
}

// ---- Answer checks --------------------------------------------------------

// Compares every answer of `pass` with the reference. Versions name graph
// counts: the initial n0 graphs plus each acknowledged batch at or below it.
void CheckPass(const PassResult& pass, uint64_t v0, size_t n0,
               Reference* ref, bool perturb, Outcome* out) {
  auto count_at = [&](uint64_t version) {
    size_t n = n0;
    for (size_t b = 0; b < pass.append_versions.size(); ++b) {
      if (pass.append_versions[b] <= version) {
        n += pass.append_batches[b].size();
      }
    }
    return n;
  };
  std::set<std::pair<uint32_t, size_t>> needed;
  for (const SessionRecord& s : pass.sessions) {
    if (!s.digests.empty()) needed.insert({s.query, count_at(s.version)});
  }
  for (const ArrivalRecord& a : pass.arrivals) {
    if (a.answered) needed.insert({a.query, count_at(v0)});
  }
  ref->Prepare(needed, kCheckThreads);
  if (perturb) ref->Perturb();
  auto check = [&](uint32_t query, size_t count, uint64_t digest) {
    ++out->answers;
    if (ref->Digest(query, count) != digest) ++out->mismatches;
  };
  for (const SessionRecord& s : pass.sessions) {
    for (uint64_t d : s.digests) check(s.query, count_at(s.version), d);
  }
  for (const ArrivalRecord& a : pass.arrivals) {
    if (a.answered) check(a.query, count_at(v0), a.digest);
  }
}

// ---- Metrics ---------------------------------------------------------------

// The tail percentile each workload's primary latency reports. APPENDs are
// too few for a p99; oneshot's p99 at r0 is set by single stalls and does
// not repeat run to run, its p95 does.
double PrimaryTail(Kind kind) {
  switch (kind) {
    case Kind::kAppendMix:
      return 0.90;
    case Kind::kOneshot:
      return 0.95;
    default:
      return 0.99;
  }
}

std::vector<Metric> EndToEnd(const WorkloadSpec& spec, const PassResult& p,
                             double setup_s, double mem_mb) {
  const std::vector<double>* primary = nullptr;
  const std::vector<double>* secondary = nullptr;
  double rate = 0;
  switch (spec.kind) {
    case Kind::kFormulate:
      primary = &p.tally.step_ms;
      secondary = &p.tally.run_ms;
      rate = static_cast<double>(p.tally.sessions) / p.wall_s;
      break;
    case Kind::kSimilar:
      primary = &p.tally.run_ms;
      secondary = &p.tally.step_ms;
      rate = static_cast<double>(p.tally.runs) / p.wall_s;
      break;
    case Kind::kAppendMix:
      primary = &p.tally.append_ms;
      secondary = &p.tally.run_ms;
      rate = p.appender_wall_s > 0
                 ? static_cast<double>(p.tally.appends) / p.appender_wall_s
                 : 0;
      break;
    case Kind::kOneshot: {
      static const std::vector<double> kEmpty;
      primary = p.steps.empty() ? &kEmpty : &p.steps[0].due_ms;
      secondary = p.steps.empty() ? &kEmpty : &p.steps[0].send_ms;
      rate = p.max_qps;
      break;
    }
  }
  auto pct = [](const std::vector<double>& v, double q) {
    return Percentile(v, q).value_or(kNa);
  };
  return {
      {"setup_s", setup_s, "s"},
      {"mem_mb", mem_mb, "MB"},
      {"primary_p50_ms", pct(*primary, 0.5), "ms"},
      {"primary_tail_ms", pct(*primary, PrimaryTail(spec.kind)), "ms"},
      {"throughput_per_s", rate, "1/s"},
      {"secondary_p50_ms", pct(*secondary, 0.5), "ms"},
      {"secondary_tail_ms", pct(*secondary, 0.99), "ms"},
  };
}

obs::HistogramSnapshot Delta(const PassResult& p, const std::string& name) {
  obs::HistogramSnapshot delta;
  auto after = p.registry_after.histograms.find(name);
  if (after == p.registry_after.histograms.end()) return delta;
  delta = after->second;
  auto before = p.registry_before.histograms.find(name);
  if (before == p.registry_before.histograms.end()) return delta;
  for (size_t i = 0; i < delta.buckets.size(); ++i) {
    delta.buckets[i] -= before->second.buckets[i];
  }
  delta.count -= before->second.count;
  delta.sum -= before->second.sum;
  return delta;
}

uint64_t CounterDelta(const PassResult& p, const std::string& name) {
  auto value = [&](const obs::RegistrySnapshot& s) -> uint64_t {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return value(p.registry_after) - value(p.registry_before);
}

// A registry histogram quantile, held to the same sample floor as raw
// percentiles.
double HistQuantile(const obs::HistogramSnapshot& h, double q) {
  return h.count >= SamplesNeeded(q) ? h.Quantile(q) : kNa;
}

double Ratio(double num, double den) { return den > 0 ? num / den : kNa; }

struct Recovery {
  double recover_s = kNa;
  uint64_t replayed = 0;
  bool ok = true;
};

// Reopens the pass's data directory (WAL replay) and checks that it
// recovers exactly the last acknowledged version.
Recovery Reopen(const std::string& dir, const PassResult& pass, uint64_t v0) {
  Recovery r;
  const int64_t t0 = NowNs();
  Result<std::unique_ptr<storage::StorageEngine>> engine =
      storage::StorageEngine::Open(dir);
  r.recover_s = static_cast<double>(NowNs() - t0) / 1e9;
  const uint64_t expected =
      pass.append_versions.empty() ? v0 : pass.append_versions.back();
  r.ok = engine.ok() &&
         (*engine)->recovered().snapshot->version() == expected;
  if (engine.ok()) r.replayed = (*engine)->Stats().recovery_replayed_records;
  return r;
}

std::vector<Metric> PerLayer(const WorkloadSpec& spec, const PassResult& p,
                             const Recovery& recovery,
                             const std::vector<SetupTimes>& setups,
                             const MetricMap& replay) {
  MetricMap m = replay;
  const obs::HistogramSnapshot body =
      Delta(p, spec.kind == Kind::kOneshot ? "prague_server_batch_latency_us"
                                          : "prague_server_run_latency_us");
  m["server.run_body_us.p50"] = HistQuantile(body, 0.5);
  m["server.run_body_us.p99"] = HistQuantile(body, 0.99);
  m["server.run_outside_engine_us.p50"] =
      Percentile(p.tally.outside_engine_us, 0.5).value_or(kNa);
  m["server.run_outside_engine_us.p99"] =
      Percentile(p.tally.outside_engine_us, 0.99).value_or(kNa);
  m["server.sched_queue_depth.p99"] =
      HistQuantile(Delta(p, "prague_server_sched_queue_depth"), 0.99);
  m["server.write_queue_depth.p99"] =
      HistQuantile(Delta(p, "prague_server_write_queue_depth"), 0.99);
  const double frames =
      static_cast<double>(CounterDelta(p, "prague_server_frames_total"));
  size_t sessions = p.tally.sessions;
  for (const ArrivalRecord& a : p.arrivals) sessions += a.answered ? 1 : 0;
  m["server.frames_per_session"] =
      Ratio(frames, static_cast<double>(sessions));
  m["server.wakeups_per_frame"] = Ratio(
      static_cast<double>(
          CounterDelta(p, "prague_server_event_loop_wakeups_total")),
      frames);

  const obs::HistogramSnapshot fsync = Delta(p, "prague_storage_wal_fsync_us");
  m["storage.wal_fsync_us.p50"] = HistQuantile(fsync, 0.5);
  m["storage.wal_fsync_us.p99"] = HistQuantile(fsync, 0.99);
  const double appends = static_cast<double>(p.storage_after.wal_appends -
                                             p.storage_before.wal_appends);
  m["storage.appends_per_fsync"] = Ratio(
      appends, static_cast<double>(p.storage_after.wal_syncs -
                                   p.storage_before.wal_syncs));
  m["storage.wal_bytes_per_append"] =
      Ratio(static_cast<double>(p.storage_after.wal_bytes) -
                static_cast<double>(p.storage_before.wal_bytes),
            appends);
  m["storage.recover_s"] = recovery.recover_s;
  m["storage.replayed_records"] =
      spec.durable ? static_cast<double>(recovery.replayed) : kNa;
  m["storage.replay_ms_per_record"] =
      Ratio(recovery.recover_s * 1e3, static_cast<double>(recovery.replayed));

  auto median = [&](double SetupTimes::*field, double scale) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field * scale);
    return Median(v);
  };
  m["mining.mine_s"] = median(&SetupTimes::mine_s, 1);
  m["index.build_s"] = median(&SetupTimes::build_s, 1);
  m["storage.bootstrap_s"] =
      spec.durable ? median(&SetupTimes::bootstrap_s, 1) : kNa;
  m["server.start_ms"] = median(&SetupTimes::start_s, 1e3);
  m["bench.generator_late_ms.p99"] =
      Percentile(p.late_ms, 0.99).value_or(kNa);

  std::vector<Metric> out;
  for (const auto& [name, value] : m) out.push_back({name, value, UnitOf(name)});
  return out;
}

// ---- One workload ----------------------------------------------------------

Status RunWorkload(const WorkloadSpec& spec, const Options& opt,
                   Outcome* out) {
  AidsGeneratorConfig gen;
  gen.graph_count = spec.graphs;
  gen.seed = kDatabaseSeed;
  const GraphDatabase db = GenerateAidsLikeDatabase(gen);
  PRAGUE_ASSIGN_OR_RETURN(std::vector<Query> pool,
                          MakePool(db, spec));
  std::vector<std::vector<std::string>> append_plan;
  std::vector<Graph> appended;
  if (spec.kind == Kind::kAppendMix) {
    append_plan = MakeAppendPlan(db, opt.seed,
                                 opt.smoke ? kSmokeAppendBatches
                                           : kAppendBatches);
    for (const auto& batch : append_plan) {
      for (const std::string& text : batch) {
        PRAGUE_ASSIGN_OR_RETURN(ParsedPattern parsed,
                                ParsePatternStrict(text, db.labels()));
        appended.push_back(std::move(parsed.graph));
      }
    }
  }
  Reference reference(&db, std::move(appended), &pool, kSigma);
  const std::string dir =
      spec.durable ? opt.data_dir + "/" + spec.name : std::string();
  auto fresh_dir = [&] {
    if (dir.empty()) return;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  };

  const double rss_before = CurrentRssMb();
  const int64_t setup_start = NowNs();
  std::vector<SetupTimes> setups;
  std::unique_ptr<Deployment> deployment;
  const size_t repeats = opt.smoke ? 1 : kSetupRepeats;
  for (size_t r = 0; r < repeats; ++r) {
    deployment.reset();
    fresh_dir();
    SetupTimes times;
    PRAGUE_ASSIGN_OR_RETURN(deployment, Deployment::Start(db, dir, &times));
    setups.push_back(times);
  }
  PassInput input;
  input.spec = &spec;
  input.db = &db;
  input.pool = &pool;
  input.append_plan = &append_plan;
  input.seed = opt.seed;
  input.seconds = opt.seconds;
  const int64_t pass_start = NowNs();
  const PassResult untraced = RunPass(*deployment, input);
  const uint64_t v0 = deployment->initial()->version();
  deployment.reset();
  const double mem_mb = PeakRssMb() - rss_before;

  std::vector<double> setup_totals;
  for (const SetupTimes& s : setups) setup_totals.push_back(s.total_s);
  out->end_to_end =
      EndToEnd(spec, untraced, Median(setup_totals), mem_mb);
  out->attempted += untraced.tally.attempted;
  out->failed += untraced.tally.failed;
  const int64_t check_start = NowNs();
  CheckPass(untraced, v0, db.size(), &reference, opt.perturb, out);
  std::fprintf(stderr,
               "%s: set-up x%zu %.1f s, timed phase %.1f s, checks %.1f s\n",
               spec.name, repeats,
               static_cast<double>(pass_start - setup_start) / 1e9,
               static_cast<double>(check_start - pass_start) / 1e9,
               static_cast<double>(NowNs() - check_start) / 1e9);

  if (!opt.trace_path.empty()) {
    fresh_dir();
    SetupTimes times;
    PRAGUE_ASSIGN_OR_RETURN(deployment, Deployment::Start(db, dir, &times));
    std::vector<std::unique_ptr<SpanLog>> logs;
    for (uint32_t t = 0; t <= spec.clients + 1; ++t) {
      logs.push_back(std::make_unique<SpanLog>(t + 1));
    }
    input.spans = &logs;
    const PassResult traced = RunPass(*deployment, input);
    const SnapshotPtr initial = deployment->initial();
    deployment.reset();
    // Restart cost, measured once per traced run: replay grows with the
    // appends logged, about 40 ms per record here.
    const Recovery recovery =
        dir.empty() ? Recovery() : Reopen(dir, traced, v0);
    out->attempted += traced.tally.attempted;
    out->failed += traced.tally.failed;
    if (!recovery.ok) ++out->mismatches;
    CheckPass(traced, v0, db.size(), &reference, false, out);

    SpanLog replay_log(0);
    ReplayInput replay_input;
    replay_input.spec = &spec;
    replay_input.pool = &pool;
    replay_input.initial = initial;
    replay_input.pass = &traced;
    replay_input.storage_dir = dir.empty() ? std::string() : dir + "-replay";
    const ReplayOutput replay = Replay(replay_input, &replay_log);
    out->mismatches += replay.mismatches;
    out->per_layer =
        PerLayer(spec, traced, recovery, setups, replay.metrics);

    // Tracing overhead: the traced pass's end-to-end values against the
    // untraced pass of this same invocation.
    const std::vector<Metric> traced_e2e =
        EndToEnd(spec, traced, kNa, kNa);
    for (size_t i = 0; i < traced_e2e.size(); ++i) {
      const Metric& base = out->end_to_end[i];
      if (base.name == "setup_s" || base.name == "mem_mb") continue;
      out->per_layer.push_back(
          {"bench.trace_overhead_pct." + base.name,
           100.0 * (traced_e2e[i].value - base.value) / base.value, "%"});
      std::printf("%s traced.%s %.6g %s\n", spec.name,
                  traced_e2e[i].name.c_str(), traced_e2e[i].value,
                  traced_e2e[i].unit.c_str());
    }
    std::vector<const SpanLog*> all;
    for (const auto& log : logs) all.push_back(log.get());
    all.push_back(&replay_log);
    PRAGUE_RETURN_NOT_OK(WriteSpans(opt.trace_path, all));
  }
  if (!dir.empty()) std::filesystem::remove_all(dir);
  for (const Metric& m : out->end_to_end) {
    if (std::isnan(m.value)) out->complete = false;
  }
  out->correct = out->mismatches == 0;
  return Status::OK();
}

// ---- Output ------------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics,
                        std::vector<std::string>* na) {
  std::string s = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) na->push_back(m.name);
    s += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
         JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}";
}

std::string Record(const WorkloadSpec& spec, const Options& opt,
                   const Outcome& o) {
  std::vector<std::string> na;
  const std::string e2e = MetricsJson(o.end_to_end, &na);
  const std::string layer = MetricsJson(o.per_layer, &na);
  std::string na_json = "[";
  for (size_t i = 0; i < na.size(); ++i) {
    na_json += (i > 0 ? ", \"" : "\"") + na[i] + "\"";
  }
  na_json += "]";
  char header[512];
  std::snprintf(header, sizeof(header),
                "{\"git_sha\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\", "
                "\"seed\": %llu, \"workload\": \"%s\", \"seconds\": %g, "
                "\"traced\": %s, \"smoke\": %s}",
                PRAGUE_BENCH_GIT_SHA, std::thread::hardware_concurrency(),
                PRAGUE_BENCH_BUILD_TYPE,
                static_cast<unsigned long long>(opt.seed), spec.name,
                opt.seconds, opt.trace_path.empty() ? "false" : "true",
                opt.smoke ? "true" : "false");
  return std::string("{\"header\": ") + header +
         ", \"correct\": " + (o.correct && o.complete ? "true" : "false") +
         ", \"attempted\": " + std::to_string(o.attempted) +
         ", \"failed\": " + std::to_string(o.failed) +
         ", \"answers_checked\": " + std::to_string(o.answers) +
         ", \"mismatches\": " + std::to_string(o.mismatches) +
         ", \"metrics\": " + e2e + ", \"per_layer\": " + layer +
         ", \"na\": " + na_json + "}";
}

void PrintLines(const char* workload, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (std::isfinite(m.value)) {
      std::printf("%s %s %.6g %s\n", workload, m.name.c_str(), m.value,
                  m.unit.c_str());
    } else {
      std::printf("%s %s n/a %s\n", workload, m.name.c_str(), m.unit.c_str());
    }
  }
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag, std::string* out) {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) != 0) return false;
      *out = arg.substr(prefix.size());
      return true;
    };
    std::string v;
    if (value("--workload", &opt->workload) ||
        value("--trace", &opt->trace_path) ||
        value("--out", &opt->out_path) ||
        value("--data-dir", &opt->data_dir)) {
      continue;
    }
    if (value("--seed", &v)) {
      opt->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (value("--seconds", &v)) {
      opt->seconds = std::strtod(v.c_str(), nullptr);
      if (!(opt->seconds > 0)) return false;
    } else if (arg == "--smoke") {
      opt->smoke = true;
    } else if (arg == "--perturb") {
      opt->perturb = true;
    } else {
      return false;
    }
  }
  return !opt->workload.empty();
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: prague_bench --workload=<name|all> --seed=<n> "
                 "[--seconds=<s>] [--trace=<file>] [--out=<file>] "
                 "[--data-dir=<dir>] [--smoke] [--perturb]\n");
    return 2;
  }
  if (!opt.smoke && std::string(PRAGUE_BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "prague_bench: refusing a full run on a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PRAGUE_BENCH_BUILD_TYPE);
    return 2;
  }
  std::vector<WorkloadSpec> selected;
  for (const WorkloadSpec& spec : Workloads()) {
    if (opt.workload == "all" || opt.workload == spec.name) {
      selected.push_back(opt.smoke ? SmokeSpec(spec) : spec);
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr, "prague_bench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  // A client may see the server close a socket mid-write.
  std::signal(SIGPIPE, SIG_IGN);
  bool all_ok = true;
  for (const WorkloadSpec& spec : selected) {
    Outcome outcome;
    Status st = RunWorkload(spec, opt, &outcome);
    if (!st.ok()) {
      std::fprintf(stderr, "prague_bench: %s: %s\n", spec.name,
                   st.ToString().c_str());
      return 1;
    }
    PrintLines(spec.name, outcome.end_to_end);
    PrintLines(spec.name, outcome.per_layer);
    std::printf("%s answers_checked %llu count\n", spec.name,
                static_cast<unsigned long long>(outcome.answers));
    if (!outcome.correct) {
      std::fprintf(stderr, "prague_bench: %s: %llu answers differ from the "
                   "reference\n", spec.name,
                   static_cast<unsigned long long>(outcome.mismatches));
    }
    if (!outcome.complete) {
      std::fprintf(stderr, "prague_bench: %s: a metric lacked the samples "
                   "its percentile needs\n", spec.name);
    }
    const std::string record = Record(spec, opt, outcome);
    std::printf("%s\n", record.c_str());
    std::fflush(stdout);
    if (!opt.out_path.empty()) {
      if (std::FILE* f = std::fopen(opt.out_path.c_str(), "a")) {
        std::fprintf(f, "%s\n", record.c_str());
        std::fclose(f);
      }
    }
    all_ok = all_ok && outcome.correct && (outcome.complete || opt.smoke);
  }
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace prague::perfbench

int main(int argc, char** argv) { return prague::perfbench::Main(argc, argv); }
