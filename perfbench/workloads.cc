#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "datasets/query_workload.h"
#include "index/action_aware_index.h"
#include "mining/gspan.h"
#include "percentile.h"
#include "query/pattern_parser.h"
#include "util/rng.h"

namespace prague::perfbench {

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void Tally::Merge(const Tally& o) {
  step_ms.insert(step_ms.end(), o.step_ms.begin(), o.step_ms.end());
  run_ms.insert(run_ms.end(), o.run_ms.begin(), o.run_ms.end());
  append_ms.insert(append_ms.end(), o.append_ms.begin(), o.append_ms.end());
  outside_engine_us.insert(outside_engine_us.end(),
                           o.outside_engine_us.begin(),
                           o.outside_engine_us.end());
  attempted += o.attempted;
  failed += o.failed;
  sessions += o.sessions;
  runs += o.runs;
  appends += o.appends;
}

const std::vector<WorkloadSpec>& Workloads() {
  // name, kind, |D|, containment, similarity, clients, runs/session,
  // modify, durable, r0
  static const std::vector<WorkloadSpec> specs = {
      {"formulate", Kind::kFormulate, 1000, 64, 32, 3, 1, true, false, 0},
      {"similar", Kind::kSimilar, 2000, 0, 64, 1, 4, false, false, 0},
      {"append_mix", Kind::kAppendMix, 1000, 64, 0, 3, 1, true, true, 0},
      {"oneshot", Kind::kOneshot, 2000, 45, 19, 4, 1, false, false, 1500},
  };
  return specs;
}

WorkloadSpec SmokeSpec(const WorkloadSpec& spec) {
  WorkloadSpec smoke = spec;
  smoke.graphs = 200;
  smoke.containment_queries = std::min<size_t>(spec.containment_queries, 6);
  smoke.similarity_queries = std::min<size_t>(spec.similarity_queries, 3);
  return smoke;
}

Result<std::vector<Query>> MakePool(const GraphDatabase& db,
                                    const WorkloadSpec& spec) {
  WorkloadGenerator gen(&db, kPoolSeed);
  Rng rng(kPoolSeed);
  std::vector<Query> pool;
  // Queries stay within the mining cap: the engine assumes the indexes
  // cover every fragment a query can grow into, and a containment query
  // two edges past the cap can lose its exact matches.
  auto add = [&](bool similarity) -> Status {
    for (int attempt = 0; attempt < 16; ++attempt) {
      Result<VisualQuerySpec> spec_or =
          similarity
              ? gen.SimilarityQuery(6 + rng.Below(kMaxFragmentEdges - 5),
                                    1 + static_cast<int>(rng.Below(3)), "")
              : gen.ContainmentQuery(4 + rng.Below(kMaxFragmentEdges - 3),
                                     "");
      if (!spec_or.ok()) continue;
      Query q;
      q.graph = std::move(spec_or->graph);
      q.similarity = similarity;
      q.pattern = PatternToString(q.graph, db.labels());
      pool.push_back(std::move(q));
      return Status::OK();
    }
    return Status::NotFound("could not sample a query for the pool");
  };
  for (size_t i = 0; i < spec.containment_queries; ++i) {
    PRAGUE_RETURN_NOT_OK(add(false));
  }
  for (size_t i = 0; i < spec.similarity_queries; ++i) {
    PRAGUE_RETURN_NOT_OK(add(true));
  }
  return pool;
}

std::vector<std::vector<std::string>> MakeAppendPlan(const GraphDatabase& db,
                                                     uint64_t seed,
                                                     size_t count) {
  WorkloadGenerator gen(&db, seed ^ 0xA99E0DA99E0DULL);
  Rng rng(seed ^ 0xBA7C4BA7C4ULL);
  std::vector<std::vector<std::string>> plan(count);
  for (std::vector<std::string>& batch : plan) {
    while (batch.size() < 4) {
      Result<VisualQuerySpec> g = gen.ContainmentQuery(6 + rng.Below(7), "");
      if (g.ok()) batch.push_back(PatternToString(g->graph, db.labels()));
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Deployment

Result<std::unique_ptr<Deployment>> Deployment::Start(
    const GraphDatabase& db, const std::string& data_dir, SetupTimes* times) {
  GraphDatabase copy = db;  // dataset generation is not set-up
  std::unique_ptr<Deployment> d(new Deployment());
  const int64_t t0 = NowNs();
  MiningConfig mining;
  mining.min_support_ratio = kAlpha;
  mining.max_fragment_edges = kMaxFragmentEdges;
  PRAGUE_ASSIGN_OR_RETURN(MiningResult mined, MineFragments(copy, mining));
  const int64_t t1 = NowNs();
  A2fConfig a2f;
  a2f.beta = kBeta;
  ActionAwareIndexes indexes = BuildActionAwareIndexes(mined, a2f);
  SnapshotPtr snapshot =
      DatabaseSnapshot::Make(std::move(copy), std::move(indexes));
  const int64_t t2 = NowNs();
  if (!data_dir.empty()) {
    // praguedb serve --data-dir: fsync on, serve what the engine recovered.
    PRAGUE_ASSIGN_OR_RETURN(
        std::unique_ptr<storage::StorageEngine> engine,
        storage::StorageEngine::Bootstrap(data_dir, *snapshot, kAlpha));
    d->engine_ = std::move(engine);
    snapshot = d->engine_->recovered().snapshot;
  }
  const int64_t t3 = NowNs();
  d->initial_ = snapshot;
  d->manager_ = std::make_unique<SessionManager>(snapshot);
  if (d->engine_ != nullptr) d->manager_->AttachStorage(d->engine_);
  d->watchdog_ = std::make_unique<obs::Watchdog>();
  d->watchdog_->set_trace_ring(&d->manager_->mutable_traces());
  PragueServerOptions options;
  options.watchdog = d->watchdog_.get();
  d->server_ = std::make_unique<PragueServer>(d->manager_.get(), options);
  PRAGUE_RETURN_NOT_OK(d->server_->Start());
  d->watchdog_->Start();
  const int64_t t4 = NowNs();
  times->mine_s = static_cast<double>(t1 - t0) / 1e9;
  times->build_s = static_cast<double>(t2 - t1) / 1e9;
  times->bootstrap_s = static_cast<double>(t3 - t2) / 1e9;
  times->start_s = static_cast<double>(t4 - t3) / 1e9;
  times->total_s = static_cast<double>(t4 - t0) / 1e9;
  return d;
}

Deployment::~Deployment() {
  if (server_ != nullptr) server_->Stop();
  if (watchdog_ != nullptr) watchdog_->Stop();
}

// ---------------------------------------------------------------------------
// Clients

namespace {

std::atomic<uint32_t> g_next_conn{0};

double MsBetween(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

// One client thread's connection: times every request, counts failures,
// and (traced) records a span per request under a per-connection session
// span.
class Client {
 public:
  Client(uint16_t port, const LabelDictionary& labels, Tally* tally,
         SpanLog* spans)
      : port_(port), labels_(labels), tally_(tally), spans_(spans) {}

  // Connect + OPEN; returns false (counted as a failed request) on error.
  bool Open(SessionRecord* rec) {
    conn_no_ = g_next_conn.fetch_add(1) + 1;
    session_start_ = NowNs();
    session_span_ = spans_ != nullptr ? spans_->NewId() : 0;
    if (!conn_.Connect(port_).ok()) {
      ++tally_->attempted;
      ++tally_->failed;
      return false;
    }
    WireCommand cmd;
    cmd.kind = CommandKind::kOpen;
    Result<std::string> reply = Request("OPEN", cmd, nullptr);
    if (!reply.ok()) return false;
    Result<OpenReply> open = ParseOpenReply(*reply);
    if (!open.ok()) return Fail();
    if (rec != nullptr) {
      rec->conn = conn_no_;
      rec->version = open->version;
    }
    return true;
  }

  // CLOSE, then records the session span.
  bool Close() {
    WireCommand cmd;
    cmd.kind = CommandKind::kClose;
    const bool ok = Request("CLOSE", cmd, nullptr).ok();
    conn_.Disconnect();
    if (spans_ != nullptr) {
      spans_->Record({session_span_, 0, "session", "client", session_start_,
                      NowNs(), conn_no_, 0});
    }
    return ok;
  }

  // One whole closed-loop session: OPEN, an ADD_EDGE per edge (plus the
  // Modify action), `rec->runs` RUNs, CLOSE.
  bool Session(const Query& q, SessionRecord* rec) {
    bool ok = Open(rec);
    for (size_t i = 0; ok && i < rec->order.size(); ++i) {
      ok = AddEdge(q.graph, q.graph.GetEdge(rec->order[i]));
    }
    if (ok && rec->modify) {
      const Edge& last = q.graph.GetEdge(rec->order.back());
      WireCommand del;
      del.kind = CommandKind::kDeleteEdge;
      del.u = last.u + 1;
      del.v = last.v + 1;
      ok = Step("DELETE_EDGE", del) && AddEdge(q.graph, last);
    }
    for (uint32_t r = 0; ok && r < rec->runs; ++r) ok = Run(rec);
    ok = ok && Close();
    if (!ok) conn_.Disconnect();
    return ok;
  }

  bool Append(const std::vector<std::string>& batch, uint64_t* version) {
    WireCommand cmd;
    cmd.kind = CommandKind::kAppend;
    cmd.batch_patterns = batch;
    Result<std::string> reply = Request("APPEND", cmd, &tally_->append_ms);
    if (!reply.ok()) return false;
    Result<AppendReply> parsed = ParseAppendReply(*reply);
    if (!parsed.ok()) return Fail();
    ++tally_->appends;
    *version = parsed->version;
    return true;
  }

  // One BATCH_RUN with a single member; fills the digest and the round
  // trip (ms) on success.
  bool BatchRun(const Query& q, ArrivalRecord* rec, double* rtt_ms) {
    WireCommand cmd;
    cmd.kind = CommandKind::kBatchRun;
    cmd.batch_patterns = {q.pattern};
    Result<std::string> reply = Request("BATCH_RUN", cmd, nullptr, rtt_ms);
    rec->conn = conn_no_;
    rec->wire_id = conn_.last_id();
    if (!reply.ok()) return false;
    Result<BatchRunReply> batch = ParseBatchRunReply(*reply);
    if (!batch.ok() || batch->members.size() != 1 ||
        !batch->members[0].ok() || batch->members[0]->truncated) {
      return Fail();
    }
    const RunReply& run = *batch->members[0];
    tally_->outside_engine_us.push_back((*rtt_ms - run.srt_ms) * 1000);
    rec->digest = AnswerDigest(run.similarity, run.exact, run.similar);
    rec->answered = true;
    return true;
  }

 private:
  bool Fail() {
    ++tally_->failed;
    return false;
  }

  Result<std::string> Request(const char* name, const WireCommand& cmd,
                              std::vector<double>* samples_ms,
                              double* rtt_ms = nullptr) {
    ++tally_->attempted;
    const int64_t start = NowNs();
    Result<std::string> reply = conn_.Call(cmd);
    const int64_t end = NowNs();
    if (spans_ != nullptr) {
      spans_->Record({spans_->NewId(), session_span_, name, "client", start,
                      end, conn_no_, conn_.last_id()});
    }
    if (!reply.ok()) {
      ++tally_->failed;
      return reply;
    }
    const double ms = MsBetween(start, end);
    if (samples_ms != nullptr) samples_ms->push_back(ms);
    if (rtt_ms != nullptr) *rtt_ms = ms;
    return reply;
  }

  bool Step(const char* name, const WireCommand& cmd) {
    Result<std::string> reply = Request(name, cmd, &tally_->step_ms);
    if (!reply.ok()) return false;
    return ParseStepReply(*reply).ok() || Fail();
  }

  bool AddEdge(const Graph& q, const Edge& e) {
    WireCommand cmd;
    cmd.kind = CommandKind::kAddEdge;
    cmd.u = e.u + 1;  // node handles are client-chosen and nonzero
    cmd.u_label = labels_.Name(q.NodeLabel(e.u));
    cmd.v = e.v + 1;
    cmd.v_label = labels_.Name(q.NodeLabel(e.v));
    cmd.edge_label = e.label;
    return Step("ADD_EDGE", cmd);
  }

  bool Run(SessionRecord* rec) {
    WireCommand cmd;
    cmd.kind = CommandKind::kRun;
    double rtt_ms = 0;
    Result<std::string> reply =
        Request("RUN", cmd, &tally_->run_ms, &rtt_ms);
    if (!reply.ok()) return false;
    Result<RunReply> run = ParseRunReply(*reply);
    if (!run.ok() || run->truncated) return Fail();
    ++tally_->runs;
    tally_->outside_engine_us.push_back((rtt_ms - run->srt_ms) * 1000);
    rec->digests.push_back(
        AnswerDigest(run->similarity, run->exact, run->similar));
    return true;
  }

  const uint16_t port_;
  const LabelDictionary& labels_;
  Tally* tally_;
  SpanLog* spans_;
  WireConn conn_;
  uint32_t conn_no_ = 0;
  uint64_t session_span_ = 0;
  int64_t session_start_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Passes

namespace {

SpanLog* LogFor(const PassInput& in, size_t thread) {
  return in.spans != nullptr ? (*in.spans)[thread].get() : nullptr;
}

void SleepUntilNs(int64_t when_ns) {
  const int64_t wait = when_ns - NowNs();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

// Closed loop: one client runs whole sessions back to back, with zero think
// time, until done() says stop. Its session plans come from its own seeded
// stream, so the n-th session of client c is the same on every run.
template <typename Done>
void ClosedLoopClient(Deployment& d, const PassInput& in, uint32_t client,
                      size_t log, Done done, Tally* tally,
                      std::vector<SessionRecord>* out) {
  Rng rng(in.seed * 1000003 + client + 1);
  Client c(d.port(), in.db->labels(), tally, LogFor(in, log));
  while (!done()) {
    SessionRecord rec;
    rec.client = client;
    rec.query = static_cast<uint32_t>(rng.Below(in.pool->size()));
    rec.order = RandomFormulationSequence((*in.pool)[rec.query].graph, &rng);
    rec.modify = in.spec->modify && rng.Below(4) == 0;
    rec.runs = in.spec->runs_per_session;
    if (c.Session((*in.pool)[rec.query], &rec)) ++tally->sessions;
    out->push_back(std::move(rec));
  }
}

void ClosedLoopPass(Deployment& d, const PassInput& in, PassResult* r) {
  const size_t n = in.spec->clients;
  std::vector<Tally> tallies(n);
  std::vector<std::vector<SessionRecord>> records(n);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(in.seconds * 1e9);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      ClosedLoopClient(
          d, in, c, c, [deadline] { return NowNs() >= deadline; },
          &tallies[c], &records[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  r->wall_s = static_cast<double>(NowNs() - start) / 1e9;
  for (size_t c = 0; c < n; ++c) {
    r->tally.Merge(tallies[c]);
    r->sessions.insert(r->sessions.end(), records[c].begin(),
                       records[c].end());
  }
}

// One appender issues the whole plan of APPENDs, lock-step; readers run
// containment sessions until it finishes. The append count is fixed, not
// the time: each APPEND's maintenance cost grows with |D|, so a
// time-bounded appender would measure a different mix on a faster run.
void AppendPass(Deployment& d, const PassInput& in, PassResult* r) {
  const size_t readers = in.spec->clients;
  std::vector<Tally> tallies(readers + 1);
  std::vector<std::vector<SessionRecord>> records(readers);
  std::atomic<bool> appender_done{false};
  const int64_t start = NowNs();
  std::thread appender([&] {
    Client c(d.port(), in.db->labels(), &tallies[readers], LogFor(in, 0));
    if (c.Open(nullptr)) {
      const int64_t first = NowNs();
      for (size_t b = 0; b < in.append_plan->size(); ++b) {
        uint64_t version = 0;
        // A failed APPEND may or may not have published; later versions
        // could then not be checked, so the appender stops there.
        if (!c.Append((*in.append_plan)[b], &version)) break;
        r->append_batches.push_back((*in.append_plan)[b]);
        r->append_versions.push_back(version);
      }
      r->appender_wall_s = static_cast<double>(NowNs() - first) / 1e9;
      c.Close();
    }
    appender_done.store(true);
  });
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      ClosedLoopClient(
          d, in, c, c + 1, [&appender_done] { return appender_done.load(); },
          &tallies[c], &records[c]);
    });
  }
  appender.join();
  for (std::thread& t : threads) t.join();
  r->wall_s = static_cast<double>(NowNs() - start) / 1e9;
  for (const Tally& t : tallies) r->tally.Merge(t);
  for (const auto& recs : records) {
    r->sessions.insert(r->sessions.end(), recs.begin(), recs.end());
  }
}

// Highest offered rate meeting the limit: interpolated, in log latency
// against log rate, between the last passing step and the first failing
// one, so the value moves smoothly instead of jumping a whole grid step.
double MaxQps(const std::vector<RateStep>& steps) {
  size_t fail = 0;
  while (fail < steps.size() && steps[fail].pass) ++fail;
  if (fail == steps.size()) return steps.back().rate;
  const RateStep& f = steps[fail];
  if (fail == 0) {
    return f.errors > 0 ? 0
                        : f.rate * std::min(1.0, kOneshotLimitMs / f.limit_ms);
  }
  const RateStep& p = steps[fail - 1];
  if (f.errors > 0 || f.limit_ms <= p.limit_ms) return p.rate;
  const double frac = std::clamp(std::log(kOneshotLimitMs / p.limit_ms) /
                                     std::log(f.limit_ms / p.limit_ms),
                                 0.0, 1.0);
  return p.rate * std::pow(f.rate / p.rate, frac);
}

// Open loop: seeded Poisson arrivals, each a whole query sent as a
// one-member BATCH_RUN on one of four connections (arrival i on connection
// i mod 4). A request due while its connection is busy goes out when the
// previous reply lands but is still timed from its due time. After the r0
// step, whose latencies are reported, the offered rate steps up
// geometrically from 2 r0 until a step misses the limit or the time is up.
void OneshotPass(Deployment& d, const PassInput& in, PassResult* r) {
  const size_t n = kOneshotConnections;
  std::vector<Tally> tallies(n);
  std::vector<std::unique_ptr<Client>> clients;
  for (size_t c = 0; c < n; ++c) {
    clients.push_back(std::make_unique<Client>(d.port(), in.db->labels(),
                                               &tallies[c], LogFor(in, c)));
    clients.back()->Open(nullptr);
  }
  Rng rng(in.seed * 7919 + 3);
  const int64_t pass_start = NowNs();
  for (size_t k = 0;; ++k) {
    const double rate =
        k == 0 ? in.spec->r0
               : 2 * in.spec->r0 *
                     std::pow(kOneshotStepGrowth, static_cast<double>(k - 1));
    // Every step is long enough to support a p99; the r0 step, whose
    // latencies are reported, runs longer.
    const double duration = std::max(
        k == 0 ? kOneshotFirstStepSeconds : kOneshotStepSeconds,
        1.1 * static_cast<double>(SamplesNeeded(0.99)) / rate);
    const double elapsed = static_cast<double>(NowNs() - pass_start) / 1e9;
    if (k > 0 && elapsed + duration > in.seconds) break;
    struct Due {
      int64_t at_ns;
      uint32_t query;
    };
    std::vector<Due> schedule;
    for (double t = 0;;) {
      t += -std::log(1.0 - rng.NextDouble()) / rate;
      if (t >= duration) break;
      schedule.push_back({static_cast<int64_t>(t * 1e9),
                          static_cast<uint32_t>(rng.Below(in.pool->size()))});
    }
    std::vector<ArrivalRecord> arrivals(schedule.size());
    std::vector<double> due_ms(schedule.size(), -1);
    std::vector<double> send_ms(schedule.size(), -1);
    std::vector<std::vector<double>> late(n);
    // A short lead lets every thread reach its first due time.
    const int64_t t0 = NowNs() + 2'000'000;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        int64_t previous_reply = 0;
        for (size_t i = c; i < schedule.size(); i += n) {
          const int64_t due = t0 + schedule[i].at_ns;
          SleepUntilNs(due);
          const int64_t send = NowNs();
          if (previous_reply <= due) late[c].push_back(MsBetween(due, send));
          arrivals[i].query = schedule[i].query;
          double rtt_ms = 0;
          const bool ok = clients[c]->BatchRun(
              (*in.pool)[schedule[i].query], &arrivals[i], &rtt_ms);
          previous_reply = NowNs();
          if (ok) {
            due_ms[i] = MsBetween(due, previous_reply);
            send_ms[i] = MsBetween(send, previous_reply);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();

    RateStep step;
    step.rate = rate;
    step.seconds = duration;
    for (size_t i = 0; i < schedule.size(); ++i) {
      if (!arrivals[i].answered) {
        ++step.errors;
        continue;
      }
      step.due_ms.push_back(due_ms[i]);
      step.send_ms.push_back(send_ms[i]);
    }
    const std::optional<double> at_limit =
        Percentile(step.due_ms, kOneshotLimitPercentile);
    step.limit_ms = at_limit.value_or(0);
    step.pass = at_limit.has_value() && step.errors == 0 &&
                *at_limit <= kOneshotLimitMs;
    std::fprintf(stderr,
                 "oneshot step %zu: offered %.1f/s for %.2f s, %zu answered, "
                 "from due p%.0f %.3f ms p99 %.3f ms, %llu errors, %s\n",
                 k, rate, duration, step.due_ms.size(),
                 kOneshotLimitPercentile * 100, step.limit_ms,
                 Percentile(step.due_ms, 0.99).value_or(0),
                 static_cast<unsigned long long>(step.errors),
                 step.pass ? "pass" : "fail");
    r->arrivals.insert(r->arrivals.end(), arrivals.begin(), arrivals.end());
    for (const auto& l : late) {
      r->late_ms.insert(r->late_ms.end(), l.begin(), l.end());
    }
    r->steps.push_back(std::move(step));
    if (!r->steps.back().pass) break;
  }
  for (auto& c : clients) c->Close();
  r->wall_s = static_cast<double>(NowNs() - pass_start) / 1e9;
  r->max_qps = MaxQps(r->steps);
  for (const Tally& t : tallies) r->tally.Merge(t);
}

}  // namespace

PassResult RunPass(Deployment& d, const PassInput& in) {
  PassResult r;
  r.registry_before = obs::MetricsRegistry::Global().Snapshot();
  if (d.engine() != nullptr) r.storage_before = d.engine()->Stats();
  switch (in.spec->kind) {
    case Kind::kFormulate:
    case Kind::kSimilar:
      ClosedLoopPass(d, in, &r);
      break;
    case Kind::kAppendMix:
      AppendPass(d, in, &r);
      break;
    case Kind::kOneshot:
      OneshotPass(d, in, &r);
      break;
  }
  r.registry_after = obs::MetricsRegistry::Global().Snapshot();
  if (d.engine() != nullptr) r.storage_after = d.engine()->Stats();
  return r;
}

}  // namespace prague::perfbench
