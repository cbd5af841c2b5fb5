// Wire-protocol session throughput against the event-loop reactor server.
//
// Phase 1 — session sweep: C concurrent clients each drive whole sessions
// over loopback — connect, OPEN, formulate a containment query
// edge-at-a-time, then `depth` pipelined RUNs (depth 1 = the lock-step
// protocol of the old blocking server), CLOSE — measuring sessions/sec,
// runs/sec, and the p50/p95/p99 RUN latency two ways per cell:
//   * client round trip: StartRun send to WaitRun return, i.e. engine SRT
//     plus framing, socket, queueing and pipelining overhead;
//   * server histogram: the delta of the prague_server_run_latency_us
//     histogram across the cell, i.e. the RUN body as timed on the
//     executor pool. Under the reactor this stays flat as C grows — the
//     acceptance property — while the client round trip degrades only
//     with genuine CPU contention (all C clients share these cores).
//
// Phase 2 — connection sweep: up to 10k connections each OPEN a session
// and stay connected while one probe client runs lock-step sessions
// through the crowd; reports connect/open errors (must be 0) and the
// probe's RUN percentiles. The crowd is sharded across forked child
// processes because the per-process fd limit must cover both socket ends
// when client and server share a process.
//
// Phases 3 (shard sweep), 4 (hostile-tenant sweep), and 5 (durability
// sweep: fsync on/off × group-commit concurrency against a --data-dir
// server) carry their own block comments below.
//
// Per-cell records go to BENCH_server.json (override the path with
// PRAGUE_BENCH_JSON). PRAGUE_BENCH_TIMEOUT_MS bounds every Run() over the
// wire (default 0 = unbounded, so truncated stays 0).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/session_manager.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "percentile.h"
#include "server/prague_client.h"
#include "server/prague_server.h"
#include "storage/fs_util.h"
#include "storage/storage_engine.h"
#include "util/stopwatch.h"

using namespace prague;
using namespace prague::bench;

namespace {

constexpr size_t kSessionsPerClient = 24;

// Run() budget applied to every session over the wire (0 = unbounded).
int64_t TimeoutMs() {
  static int64_t ms = [] {
    const char* env = std::getenv("PRAGUE_BENCH_TIMEOUT_MS");
    return env != nullptr ? std::strtoll(env, nullptr, 10) : 0LL;
  }();
  return ms;
}

// Formulates `spec` edge-at-a-time on an open session; aborts on error.
void FeedQuery(PragueClient& client, const Workbench& bench,
               const VisualQuerySpec& spec) {
  std::vector<uint32_t> handles(spec.graph.NodeCount(), 0);
  uint32_t next_handle = 1;
  for (EdgeId e : spec.sequence) {
    const Edge& edge = spec.graph.GetEdge(e);
    for (NodeId n : {edge.u, edge.v}) {
      if (handles[n] == 0) handles[n] = next_handle++;
    }
    Result<StepReply> step = client.AddEdge(
        handles[edge.u], bench.db.labels().Name(spec.graph.NodeLabel(edge.u)),
        handles[edge.v], bench.db.labels().Name(spec.graph.NodeLabel(edge.v)),
        edge.label);
    if (!step.ok()) std::abort();
  }
}

// One whole session over the wire: formulate, then `depth` pipelined RUNs.
// Appends one client round-trip latency (seconds) per run to *run_seconds
// and returns how many of them came back truncated.
size_t RunOneSession(uint16_t port, const Workbench& bench,
                     const VisualQuerySpec& spec, size_t depth,
                     std::vector<double>* run_seconds) {
  PragueClient client;
  if (!client.Connect("127.0.0.1", port).ok()) std::abort();
  if (!client.Open(TimeoutMs()).ok()) std::abort();
  FeedQuery(client, bench, spec);
  size_t truncated = 0;
  Stopwatch timer;
  if (depth <= 1) {
    // Lock-step, byte-identical to the pre-reactor protocol.
    Result<RunReply> run = client.Run();
    if (!run.ok()) std::abort();
    run_seconds->push_back(timer.ElapsedSeconds());
    if (run->truncated) ++truncated;
  } else {
    std::vector<uint64_t> ids(depth, 0);
    std::vector<double> issued(depth, 0);
    for (size_t i = 0; i < depth; ++i) {
      Result<uint64_t> id = client.StartRun();
      if (!id.ok()) std::abort();
      ids[i] = *id;
      issued[i] = timer.ElapsedSeconds();
    }
    for (size_t i = 0; i < depth; ++i) {
      Result<RunReply> run = client.WaitRun(ids[i]);
      if (!run.ok()) std::abort();
      run_seconds->push_back(timer.ElapsedSeconds() - issued[i]);
      if (run->truncated) ++truncated;
    }
  }
  if (!client.Close().ok()) std::abort();
  return truncated;
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

// after - before, bucket by bucket: the histogram samples recorded during
// one bench cell, free of everything the process did before it.
obs::HistogramSnapshot DiffSnapshot(const obs::HistogramSnapshot& before,
                                    const obs::HistogramSnapshot& after) {
  obs::HistogramSnapshot delta;
  for (size_t i = 0; i < delta.buckets.size(); ++i) {
    delta.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  delta.count = after.count - before.count;
  delta.sum = after.sum - before.sum;
  return delta;
}

void SessionSweep(PragueServer& server, const Workbench& bench,
                  const std::vector<VisualQuerySpec>& queries,
                  BenchJsonWriter& json) {
  TablePrinter table({"clients", "depth", "runs", "sessions/s", "runs/s",
                      "p50 RTT (ms)", "p95 RTT (ms)", "p99 RTT (ms)",
                      "srv p95 (µs)", "truncated"});
  for (size_t clients : {1u, 4u, 8u, 16u, 64u}) {
    for (size_t depth : {1u, 8u}) {
      std::vector<std::vector<double>> latencies(clients);
      std::atomic<size_t> truncated{0};
      const obs::HistogramSnapshot before =
          obs::ServerMetrics::Get().run_latency_us->Snapshot();
      Stopwatch wall;
      std::vector<std::thread> pool;
      pool.reserve(clients);
      for (size_t c = 0; c < clients; ++c) {
        pool.emplace_back([&, c] {
          for (size_t i = 0; i < kSessionsPerClient; ++i) {
            const VisualQuerySpec& spec =
                queries[(c * kSessionsPerClient + i) % queries.size()];
            truncated.fetch_add(RunOneSession(server.port(), bench, spec,
                                              depth, &latencies[c]));
          }
        });
      }
      for (std::thread& t : pool) t.join();
      const double seconds = wall.ElapsedSeconds();
      const obs::HistogramSnapshot server_hist = DiffSnapshot(
          before, obs::ServerMetrics::Get().run_latency_us->Snapshot());

      std::vector<double> all;
      for (const auto& per_client : latencies) {
        all.insert(all.end(), per_client.begin(), per_client.end());
      }
      std::sort(all.begin(), all.end());
      const size_t sessions = clients * kSessionsPerClient;
      const size_t runs = sessions * depth;
      const double session_rate = static_cast<double>(sessions) / seconds;
      const double run_rate = static_cast<double>(runs) / seconds;
      const double p50 = Percentile(all, 0.50) * 1000;
      const double p95 = Percentile(all, 0.95) * 1000;
      const double p99 = Percentile(all, 0.99) * 1000;
      table.AddRow({std::to_string(clients), std::to_string(depth),
                    std::to_string(runs), Fmt(session_rate, 1),
                    Fmt(run_rate, 1), Fmt(p50, 3), Fmt(p95, 3), Fmt(p99, 3),
                    Fmt(server_hist.Quantile(0.95), 1),
                    std::to_string(truncated.load())});
      json.Add("{\"phase\": \"sessions\", \"clients\": " +
               std::to_string(clients) +
               ", \"depth\": " + std::to_string(depth) +
               ", \"sessions\": " + std::to_string(sessions) +
               ", \"runs\": " + std::to_string(runs) +
               ", \"sessions_per_sec\": " + Fmt(session_rate, 2) +
               ", \"runs_per_sec\": " + Fmt(run_rate, 2) +
               ", \"run_p50_ms\": " + Fmt(p50, 4) +
               ", \"run_p95_ms\": " + Fmt(p95, 4) +
               ", \"run_p99_ms\": " + Fmt(p99, 4) +
               // The executor-pool view of the same runs, from the
               // prague_server_run_latency_us delta across this cell.
               ", \"server_p50_us\": " + Fmt(server_hist.Quantile(0.50), 2) +
               ", \"server_p95_us\": " + Fmt(server_hist.Quantile(0.95), 2) +
               ", \"server_p99_us\": " + Fmt(server_hist.Quantile(0.99), 2) +
               ", \"timeout_ms\": " + std::to_string(TimeoutMs()) +
               ", \"truncated\": " + std::to_string(truncated.load()) + "}");
    }
  }
  table.Print();
}

// Phase 3 — shard sweep: the same wire sessions against servers whose
// SessionManager runs shard-parallel execution (praguedb serve --shards=N),
// crossed with client counts. Similarity queries dominate here — their
// Run() is the expensive phase the scatter/gather accelerates — and the
// speedup column is this cell's p50 against the shards=1 cell at the same
// client count. Results are bit-identical across shard counts (the
// determinism property of core/shard_exec.h), so the sweep measures pure
// latency, not answer drift. Percentiles follow the benchmark's rule
// (perfbench/percentile.h): one is reported only with ten samples beyond
// it, else "n/a" (null in the JSON) — p50 needs 20 runs, p95 200.
void ShardSweep(const Workbench& bench,
                const std::vector<VisualQuerySpec>& queries,
                BenchJsonWriter& json) {
  constexpr size_t kShardSessionsPerClient = 25;
  auto fmt = [](std::optional<double> v, int digits) {
    return v ? Fmt(*v, digits) : std::string("n/a");
  };
  auto json_num = [](std::optional<double> v, int digits) {
    return v ? Fmt(*v, digits) : std::string("null");
  };
  TablePrinter table({"shards", "clients", "runs", "runs/s", "p50 RTT (ms)",
                      "p95 RTT (ms)", "speedup p50"});
  // clients → shards=1 p50
  std::vector<std::pair<size_t, std::optional<double>>> baseline_p50;
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    PragueConfig config;
    config.shards = shards;
    SessionManager manager(bench.snapshot, config);
    PragueServerOptions options;
    options.port = 0;
    PragueServer server(&manager, options);
    if (Status st = server.Start(); !st.ok()) {
      std::fprintf(stderr, "shard sweep: %s\n", st.ToString().c_str());
      return;
    }
    for (size_t clients : {1u, 8u}) {
      std::vector<std::vector<double>> latencies(clients);
      std::atomic<size_t> truncated{0};
      Stopwatch wall;
      std::vector<std::thread> pool;
      pool.reserve(clients);
      for (size_t c = 0; c < clients; ++c) {
        pool.emplace_back([&, c] {
          for (size_t i = 0; i < kShardSessionsPerClient; ++i) {
            const VisualQuerySpec& spec =
                queries[(c * kShardSessionsPerClient + i) % queries.size()];
            truncated.fetch_add(RunOneSession(server.port(), bench, spec,
                                              /*depth=*/1, &latencies[c]));
          }
        });
      }
      for (std::thread& t : pool) t.join();
      const double seconds = wall.ElapsedSeconds();
      std::vector<double> all;
      for (const auto& per_client : latencies) {
        all.insert(all.end(), per_client.begin(), per_client.end());
      }
      const size_t runs = all.size();
      const double run_rate = static_cast<double>(runs) / seconds;
      auto ms = [&](double p) -> std::optional<double> {
        std::optional<double> s = prague::perfbench::Percentile(all, p);
        if (s) *s *= 1000;
        return s;
      };
      const std::optional<double> p50 = ms(0.50);
      const std::optional<double> p95 = ms(0.95);
      std::optional<double> speedup;
      if (shards == 1) {
        baseline_p50.emplace_back(clients, p50);
        if (p50) speedup = 1.0;
      } else {
        for (const auto& [base_clients, base_p50] : baseline_p50) {
          if (base_clients == clients && base_p50 && p50 && *p50 > 0) {
            speedup = *base_p50 / *p50;
          }
        }
      }
      table.AddRow({std::to_string(shards), std::to_string(clients),
                    std::to_string(runs), Fmt(run_rate, 1), fmt(p50, 3),
                    fmt(p95, 3), fmt(speedup, 2)});
      json.Add("{\"phase\": \"shards\", \"shards\": " +
               std::to_string(shards) +
               ", \"clients\": " + std::to_string(clients) +
               ", \"runs\": " + std::to_string(runs) +
               ", \"runs_per_sec\": " + Fmt(run_rate, 2) +
               ", \"run_p50_ms\": " + json_num(p50, 4) +
               ", \"run_p95_ms\": " + json_num(p95, 4) +
               ", \"speedup_p50\": " + json_num(speedup, 3) +
               ", \"truncated\": " + std::to_string(truncated.load()) + "}");
    }
    server.Stop();
  }
  table.Print();
}

// One crowd child: holds `count` open sessions until told to let go. The
// fd limit is per process, so sharding the crowd across forked children
// lets the sweep reach 10k connections even though this process may not
// hold 2×10k descriptors itself (server end + client end). Reports a
// uint32 connect/open error count on `status_fd` once ramped, waits for
// one byte on `go_fd`, closes everything, then reports a uint32 close
// error count and exits.
void CrowdChild(uint16_t port, size_t count, int status_fd, int go_fd) {
  std::vector<std::unique_ptr<PragueClient>> crowd;
  crowd.reserve(count);
  uint32_t errors = 0;
  for (size_t i = 0; i < count; ++i) {
    auto client = std::make_unique<PragueClient>();
    if (!client->Connect("127.0.0.1", port).ok() ||
        !client->Open(TimeoutMs()).ok()) {
      ++errors;
      continue;
    }
    crowd.push_back(std::move(client));
  }
  if (::write(status_fd, &errors, sizeof(errors)) != sizeof(errors)) _exit(2);
  char go = 0;
  if (::read(go_fd, &go, 1) != 1) _exit(2);
  errors = 0;
  for (auto& client : crowd) {
    if (!client->Close().ok()) ++errors;
  }
  if (::write(status_fd, &errors, sizeof(errors)) != sizeof(errors)) _exit(2);
  _exit(0);
}

void ConnectionSweep(PragueServer& server, const Workbench& bench,
                     const std::vector<VisualQuerySpec>& queries,
                     BenchJsonWriter& json) {
  constexpr size_t kPerChild = 2500;
  TablePrinter table({"connections", "errors", "open (s)", "probe p50 (ms)",
                      "probe p95 (ms)"});
  for (size_t n : {1000u, 10000u}) {
    const size_t children = (n + kPerChild - 1) / kPerChild;
    std::vector<pid_t> pids;
    std::vector<int> status_fds, go_fds;
    size_t errors = 0;
    bool fork_failed = false;
    Stopwatch ramp;
    for (size_t k = 0; k < children && !fork_failed; ++k) {
      const size_t count = std::min(kPerChild, n - k * kPerChild);
      int status_pipe[2], go_pipe[2];
      if (::pipe(status_pipe) != 0 || ::pipe(go_pipe) != 0) {
        fork_failed = true;
        break;
      }
      pid_t pid = ::fork();
      if (pid < 0) {
        fork_failed = true;
        break;
      }
      if (pid == 0) {
        ::close(status_pipe[0]);
        ::close(go_pipe[1]);
        CrowdChild(server.port(), count, status_pipe[1], go_pipe[0]);
      }
      ::close(status_pipe[1]);
      ::close(go_pipe[0]);
      pids.push_back(pid);
      status_fds.push_back(status_pipe[0]);
      go_fds.push_back(go_pipe[1]);
    }
    if (fork_failed) {
      std::fprintf(stderr, "connection sweep: fork failed, skipping\n");
      for (int fd : status_fds) ::close(fd);
      for (int fd : go_fds) ::close(fd);
      for (pid_t pid : pids) ::waitpid(pid, nullptr, 0);
      return;
    }
    for (int fd : status_fds) {
      uint32_t child_errors = ~0u;
      if (::read(fd, &child_errors, sizeof(child_errors)) !=
          sizeof(child_errors)) {
        child_errors = 1;
      }
      errors += child_errors;
    }
    const double ramp_seconds = ramp.ElapsedSeconds();

    // One probe client runs lock-step sessions through the crowd.
    constexpr size_t kProbeSessions = 50;
    std::vector<double> probe;
    probe.reserve(kProbeSessions);
    for (size_t i = 0; i < kProbeSessions; ++i) {
      RunOneSession(server.port(), bench, queries[i % queries.size()], 1,
                    &probe);
    }
    std::sort(probe.begin(), probe.end());
    const double p50 = Percentile(probe, 0.50) * 1000;
    const double p95 = Percentile(probe, 0.95) * 1000;

    for (size_t k = 0; k < pids.size(); ++k) {
      char go = 1;
      if (::write(go_fds[k], &go, 1) != 1) ++errors;
      uint32_t child_errors = 0;
      if (::read(status_fds[k], &child_errors, sizeof(child_errors)) !=
          sizeof(child_errors)) {
        child_errors = 1;
      }
      errors += child_errors;
      int status = 0;
      ::waitpid(pids[k], &status, 0);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++errors;
      ::close(status_fds[k]);
      ::close(go_fds[k]);
    }
    table.AddRow({std::to_string(n), std::to_string(errors),
                  Fmt(ramp_seconds, 2), Fmt(p50, 3), Fmt(p95, 3)});
    json.Add("{\"phase\": \"connections\", \"connections\": " +
             std::to_string(n) + ", \"errors\": " + std::to_string(errors) +
             ", \"ramp_seconds\": " + Fmt(ramp_seconds, 3) +
             ", \"probe_p50_ms\": " + Fmt(p50, 4) +
             ", \"probe_p95_ms\": " + Fmt(p95, 4) + "}");
  }
  table.Print();
}

// Phase 4 — hostile-tenant sweep: one well-behaved probe tenant runs
// lock-step containment sessions while four flooder threads on a shared
// "hostile" tenant hammer heavy similarity RUNs. Three cells on a
// 4-worker server: the probe alone (baseline), the flood with admission
// control off (the probe queues behind hostile bodies on the executor
// pool), and the flood against `--tenant-rate 2` (the hostile bucket
// drains after its burst and nearly every flood RUN is shed BUSY, so the
// probe's percentiles return to the baseline). The flooder deliberately
// ignores the advertised retry-after and retries every 1 ms — bounded
// only so the flood threads do not monopolise the cores the probe is
// measured on.
void HostileSweep(const Workbench& bench,
                  const std::vector<VisualQuerySpec>& probe_queries,
                  const std::vector<VisualQuerySpec>& hostile_queries,
                  BenchJsonWriter& json) {
  constexpr size_t kVictimSessions = 40;
  constexpr size_t kHostileThreads = 4;
  struct Cell {
    const char* name;
    bool flood;
    bool admission;
  };
  const Cell cells[] = {{"alone", false, false},
                        {"flood, admission off", true, false},
                        {"flood, admission on", true, true}};
  TablePrinter table({"cell", "probe p50 (ms)", "probe p95 (ms)",
                      "hostile runs", "hostile BUSY"});
  for (const Cell& cell : cells) {
    SessionManager manager(bench.snapshot);
    PragueServerOptions options;
    options.port = 0;
    options.worker_threads = 4;
    if (cell.admission) {
      options.tenant_rate = 2.0;  // burst 4, then 2 admits/s per tenant
      options.max_runs_per_conn = 8;
      options.max_queued_bytes = 1 << 20;
    }
    PragueServer server(&manager, options);
    if (Status st = server.Start(); !st.ok()) {
      std::fprintf(stderr, "hostile sweep: %s\n", st.ToString().c_str());
      return;
    }
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> hostile_runs{0};
    std::atomic<uint64_t> hostile_busy{0};
    std::vector<std::thread> flood;
    if (cell.flood) {
      flood.reserve(kHostileThreads);
      for (size_t h = 0; h < kHostileThreads; ++h) {
        flood.emplace_back([&, h] {
          PragueClient client;
          if (!client.Connect("127.0.0.1", server.port()).ok()) return;
          if (!client.Open(TimeoutMs(), "hostile").ok()) return;
          FeedQuery(client, bench,
                    hostile_queries[h % hostile_queries.size()]);
          while (!stop.load(std::memory_order_relaxed)) {
            Result<RunReply> run = client.Run();
            if (run.ok()) {
              hostile_runs.fetch_add(1, std::memory_order_relaxed);
            } else if (IsBusy(run.status())) {
              hostile_busy.fetch_add(1, std::memory_order_relaxed);
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            } else {
              return;  // dropped by the server; the cell carries on
            }
          }
          client.Close();
        });
      }
      // Let the flood ramp (and, with admission on, burn its burst)
      // before the probe starts measuring.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    // The probe stays anonymous: each session is its own tenant with a
    // fresh default bucket, the well-behaved-client shape the admission
    // defaults are sized for.
    std::vector<double> victim;
    victim.reserve(kVictimSessions);
    for (size_t i = 0; i < kVictimSessions; ++i) {
      RunOneSession(server.port(), bench,
                    probe_queries[i % probe_queries.size()], /*depth=*/1,
                    &victim);
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : flood) t.join();
    server.Stop();
    std::sort(victim.begin(), victim.end());
    const double p50 = Percentile(victim, 0.50) * 1000;
    const double p95 = Percentile(victim, 0.95) * 1000;
    table.AddRow({cell.name, Fmt(p50, 3), Fmt(p95, 3),
                  std::to_string(hostile_runs.load()),
                  std::to_string(hostile_busy.load())});
    json.Add(std::string("{\"phase\": \"hostile\", \"cell\": \"") +
             cell.name + "\", \"flood\": " + (cell.flood ? "true" : "false") +
             ", \"admission\": " + (cell.admission ? "true" : "false") +
             ", \"tenant_rate\": " + Fmt(cell.admission ? 2.0 : 0.0, 1) +
             ", \"probe_sessions\": " + std::to_string(kVictimSessions) +
             ", \"probe_p50_ms\": " + Fmt(p50, 4) +
             ", \"probe_p95_ms\": " + Fmt(p95, 4) +
             ", \"hostile_threads\": " +
             std::to_string(cell.flood ? kHostileThreads : 0) +
             ", \"hostile_runs\": " + std::to_string(hostile_runs.load()) +
             ", \"hostile_busy\": " + std::to_string(hostile_busy.load()) +
             "}");
  }
  table.Print();
}

// Phase 5 — durability sweep: APPEND throughput and latency against a
// --data-dir server, fsync on/off crossed with concurrent appender
// clients. Every APPEND is acknowledged only after its WAL record is
// durable (log-then-publish), so with fsync on the cell price is the
// fsync — and the appends/fsync column shows group commit amortizing it
// as concurrency grows (concurrent appenders share one leader fsync).
// With fsync off the WAL is buffered writes only: the latency floor, at
// the cost of the newest appends on crash. Each cell ends with the two
// restart numbers the storage engine exists for: reopen with the cell's
// WAL tail (replay is O(tail)) and reopen after a checkpoint (O(1) mmap,
// no replay). σ-crossing repair is pinned off (reclassify=0) so cells
// measure durability overhead, not index maintenance variance.
void DurabilitySweep(const Workbench& bench, BenchJsonWriter& json) {
  constexpr size_t kAppendsPerClient = 8;
  const char* kPatterns[] = {
      "(a:C)-(b:C), (b)-(c:O)",
      "(a:C)-(b:N), (b)-(c:C)",
      "(a:C)-(b:S)",
      "(a:O)-(b:C), (b)-(c:C), (c)-(a)",
  };
  const std::string dir = "/tmp/prague_bench_durability_" +
                          std::to_string(static_cast<unsigned long>(getpid()));
  TablePrinter table({"fsync", "clients", "appends", "appends/s",
                      "p50 (ms)", "p95 (ms)", "appends/fsync",
                      "replay open (ms)", "ckpt open (ms)"});
  for (bool sync : {true, false}) {
    for (size_t clients : {1u, 4u, 16u}) {
      // A fresh data directory per cell: sweep leftovers, re-bootstrap.
      if (Result<std::vector<std::string>> files = storage::ListDir(dir);
          files.ok()) {
        for (const std::string& f : *files) {
          (void)storage::RemoveFile(storage::JoinPath(dir, f));
        }
      }
      storage::StorageOptions sopts;
      sopts.sync = sync;
      Result<std::unique_ptr<storage::StorageEngine>> boot =
          storage::StorageEngine::Bootstrap(dir, *bench.snapshot, bench.alpha,
                                            sopts);
      if (!boot.ok()) {
        std::fprintf(stderr, "durability sweep: %s\n",
                     boot.status().ToString().c_str());
        return;
      }
      std::shared_ptr<storage::StorageEngine> engine = std::move(*boot);
      SessionManager manager(engine->recovered().snapshot);
      manager.AttachStorage(engine);
      PragueServerOptions options;
      options.port = 0;
      PragueServer server(&manager, options);
      if (Status st = server.Start(); !st.ok()) {
        std::fprintf(stderr, "durability sweep: %s\n", st.ToString().c_str());
        return;
      }

      const storage::StorageStats before = engine->Stats();
      std::vector<std::vector<double>> latencies(clients);
      Stopwatch wall;
      std::vector<std::thread> pool;
      pool.reserve(clients);
      for (size_t c = 0; c < clients; ++c) {
        pool.emplace_back([&, c] {
          PragueClient client;
          if (!client.Connect("127.0.0.1", server.port()).ok()) std::abort();
          if (!client.Open(TimeoutMs()).ok()) std::abort();
          for (size_t i = 0; i < kAppendsPerClient; ++i) {
            const size_t which = (c * kAppendsPerClient + i) %
                                 (sizeof(kPatterns) / sizeof(kPatterns[0]));
            Stopwatch one;
            Result<AppendReply> reply =
                client.Append({kPatterns[which]}, /*alpha=*/-1,
                              /*reclassify=*/0);
            if (!reply.ok()) std::abort();
            latencies[c].push_back(one.ElapsedSeconds());
          }
          if (!client.Close().ok()) std::abort();
        });
      }
      for (std::thread& t : pool) t.join();
      const double seconds = wall.ElapsedSeconds();
      const storage::StorageStats after = engine->Stats();
      server.Stop();

      std::vector<double> all;
      for (const auto& per_client : latencies) {
        all.insert(all.end(), per_client.begin(), per_client.end());
      }
      std::sort(all.begin(), all.end());
      const size_t appends = clients * kAppendsPerClient;
      const double rate = static_cast<double>(appends) / seconds;
      const double p50 = Percentile(all, 0.50) * 1000;
      const double p95 = Percentile(all, 0.95) * 1000;
      const uint64_t syncs = after.wal_syncs - before.wal_syncs;
      const double per_fsync =
          syncs > 0 ? static_cast<double>(appends) / static_cast<double>(syncs)
                    : 0.0;

      // Restart with the cell's WAL tail: replay is O(appends logged).
      engine.reset();  // release the directory before reopening
      Stopwatch replay_open;
      Result<std::unique_ptr<storage::StorageEngine>> reopened =
          storage::StorageEngine::Open(dir, sopts);
      const double replay_ms = replay_open.ElapsedSeconds() * 1000;
      if (!reopened.ok()) {
        std::fprintf(stderr, "durability sweep reopen: %s\n",
                     reopened.status().ToString().c_str());
        return;
      }
      const uint64_t replayed = (*reopened)->Stats().recovery_replayed_records;

      // Checkpoint, then restart again: the O(1) mmap path, zero replay.
      Status ckpt = (*reopened)->Checkpoint(*(*reopened)->recovered().snapshot,
                                            bench.alpha);
      if (!ckpt.ok()) {
        std::fprintf(stderr, "durability sweep checkpoint: %s\n",
                     ckpt.ToString().c_str());
        return;
      }
      reopened->reset();
      Stopwatch ckpt_open;
      Result<std::unique_ptr<storage::StorageEngine>> fast =
          storage::StorageEngine::Open(dir, sopts);
      const double ckpt_ms = ckpt_open.ElapsedSeconds() * 1000;
      if (!fast.ok() || (*fast)->Stats().recovery_replayed_records != 0) {
        std::fprintf(stderr, "durability sweep: checkpointed open replayed\n");
        return;
      }

      table.AddRow({sync ? "on" : "off", std::to_string(clients),
                    std::to_string(appends), Fmt(rate, 1), Fmt(p50, 3),
                    Fmt(p95, 3), Fmt(per_fsync, 1), Fmt(replay_ms, 2),
                    Fmt(ckpt_ms, 2)});
      json.Add(std::string("{\"phase\": \"durability\", \"fsync\": ") +
               (sync ? "true" : "false") +
               ", \"clients\": " + std::to_string(clients) +
               ", \"appends\": " + std::to_string(appends) +
               ", \"appends_per_sec\": " + Fmt(rate, 2) +
               ", \"append_p50_ms\": " + Fmt(p50, 4) +
               ", \"append_p95_ms\": " + Fmt(p95, 4) +
               ", \"wal_appends\": " +
               std::to_string(after.wal_appends - before.wal_appends) +
               ", \"wal_syncs\": " + std::to_string(syncs) +
               ", \"appends_per_fsync\": " + Fmt(per_fsync, 2) +
               ", \"wal_bytes\": " + std::to_string(after.wal_bytes) +
               ", \"replay_open_ms\": " + Fmt(replay_ms, 3) +
               ", \"replayed_records\": " + std::to_string(replayed) +
               ", \"checkpoint_open_ms\": " + Fmt(ckpt_ms, 3) + "}");
    }
  }
  // Leave no bench litter behind.
  if (Result<std::vector<std::string>> files = storage::ListDir(dir);
      files.ok()) {
    for (const std::string& f : *files) {
      (void)storage::RemoveFile(storage::JoinPath(dir, f));
    }
  }
  table.Print();

  // Raw WAL group commit: the server path above serializes appends on the
  // SessionManager writer lock (one fsync each), so the leader/follower
  // fsync sharing only shows where it lives — concurrent WalWriter::Append
  // calls. N threads race records into one log; the records/fsync column
  // is the amortization factor pipelined mutations would enjoy.
  constexpr size_t kRecordsPerThread = 64;
  const std::string payload(4096, 'x');
  TablePrinter wal_table({"threads", "records", "records/s", "p50 (ms)",
                          "records/fsync"});
  for (size_t threads : {1u, 4u, 16u}) {
    const std::string wal_path = dir + ".wal";
    (void)storage::RemoveFile(wal_path);
    storage::WalWriterOptions wopts;
    wopts.sync = true;
    Result<std::unique_ptr<storage::WalWriter>> writer =
        storage::WalWriter::Open(wal_path, 0, wopts);
    if (!writer.ok()) {
      std::fprintf(stderr, "wal sweep: %s\n",
                   writer.status().ToString().c_str());
      return;
    }
    std::vector<std::vector<double>> latencies(threads);
    Stopwatch wall;
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (size_t i = 0; i < kRecordsPerThread; ++i) {
          Stopwatch one;
          if (!(*writer)
                   ->Append(storage::WalRecordType::kAppendGraphs, payload)
                   .ok()) {
            std::abort();
          }
          latencies[t].push_back(one.ElapsedSeconds());
        }
      });
    }
    for (std::thread& t : pool) t.join();
    const double seconds = wall.ElapsedSeconds();
    const size_t records = threads * kRecordsPerThread;
    const double rate = static_cast<double>(records) / seconds;
    std::vector<double> all;
    for (const auto& per_thread : latencies) {
      all.insert(all.end(), per_thread.begin(), per_thread.end());
    }
    std::sort(all.begin(), all.end());
    const double p50 = Percentile(all, 0.50) * 1000;
    const uint64_t syncs = (*writer)->syncs();
    const double per_fsync =
        syncs > 0 ? static_cast<double>(records) / static_cast<double>(syncs)
                  : 0.0;
    wal_table.AddRow({std::to_string(threads), std::to_string(records),
                      Fmt(rate, 1), Fmt(p50, 3), Fmt(per_fsync, 1)});
    json.Add("{\"phase\": \"wal_group_commit\", \"threads\": " +
             std::to_string(threads) +
             ", \"records\": " + std::to_string(records) +
             ", \"payload_bytes\": " + std::to_string(payload.size()) +
             ", \"records_per_sec\": " + Fmt(rate, 2) +
             ", \"append_p50_ms\": " + Fmt(p50, 4) +
             ", \"wal_syncs\": " + std::to_string(syncs) +
             ", \"records_per_fsync\": " + Fmt(per_fsync, 2) + "}");
    writer->reset();
    (void)storage::RemoveFile(wal_path);
  }
  wal_table.Print();
}

// Phase 6 — observability overhead: the identical RUN workload against a
// server with the operator plane off, then on (watchdog + HTTP exporter
// with a 10 Hz scraper hammering GET /metrics for the whole cell, i.e. a
// Prometheus hitting the default scrape interval ×1000). The acceptance
// property is that the scraped column's RUN percentiles match the quiet
// column: rendering happens from a registry snapshot on the exporter
// thread, so the query path never pays for a scrape.
void ObservabilitySweep(const Workbench& bench,
                        const std::vector<VisualQuerySpec>& queries,
                        BenchJsonWriter& json) {
  constexpr size_t kClients = 8;
  constexpr size_t kDepth = 8;
  // Enough sessions that each cell runs for a couple of seconds — the
  // 10 Hz scraper must land tens of scrapes inside the measured window.
  constexpr size_t kObsSessionsPerClient = 8 * kSessionsPerClient;
  TablePrinter table({"scraper", "runs", "runs/s", "p50 RTT (ms)",
                      "p95 RTT (ms)", "scrapes", "render p95 (µs)"});
  for (bool scraped : {false, true}) {
    SessionManager manager(bench.snapshot);
    obs::Watchdog watchdog;
    watchdog.set_trace_ring(&manager.mutable_traces());
    PragueServerOptions options;
    options.port = 0;
    options.watchdog = &watchdog;
    PragueServer server(&manager, options);
    if (!server.Start().ok()) std::abort();
    watchdog.Start();

    std::unique_ptr<obs::HttpExporter> exporter;
    std::atomic<bool> stop_scraper{false};
    std::atomic<size_t> scrapes{0};
    std::thread scraper;
    const obs::HistogramSnapshot render_before =
        obs::MetricsRegistry::Global()
            .GetHistogram("prague_http_scrape_render_us")
            ->Snapshot();
    if (scraped) {
      exporter = std::make_unique<obs::HttpExporter>();
      if (!exporter->Start().ok()) std::abort();
      scraper = std::thread([&] {
        while (!stop_scraper.load()) {
          // A raw scrape exactly like the lifecycle tests do it.
          int fd = ::socket(AF_INET, SOCK_STREAM, 0);
          if (fd >= 0) {
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(exporter->port());
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr)) == 0) {
              const char request[] =
                  "GET /metrics HTTP/1.1\r\nHost: b\r\nConnection: "
                  "close\r\n\r\n";
              (void)!::send(fd, request, sizeof(request) - 1, MSG_NOSIGNAL);
              char buf[16384];
              while (::recv(fd, buf, sizeof(buf), 0) > 0) {
              }
              scrapes.fetch_add(1);
            }
            ::close(fd);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
      });
    }

    std::vector<std::vector<double>> latencies(kClients);
    std::atomic<size_t> truncated{0};
    Stopwatch wall;
    std::vector<std::thread> pool;
    pool.reserve(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      pool.emplace_back([&, c] {
        for (size_t i = 0; i < kObsSessionsPerClient; ++i) {
          const VisualQuerySpec& spec =
              queries[(c * kObsSessionsPerClient + i) % queries.size()];
          truncated.fetch_add(RunOneSession(server.port(), bench, spec,
                                            kDepth, &latencies[c]));
        }
      });
    }
    for (std::thread& t : pool) t.join();
    const double seconds = wall.ElapsedSeconds();

    stop_scraper.store(true);
    if (scraper.joinable()) scraper.join();
    const obs::HistogramSnapshot render = DiffSnapshot(
        render_before, obs::MetricsRegistry::Global()
                           .GetHistogram("prague_http_scrape_render_us")
                           ->Snapshot());
    if (exporter) exporter->Stop();
    server.Stop();
    watchdog.Stop();

    std::vector<double> all;
    for (const auto& per_client : latencies) {
      all.insert(all.end(), per_client.begin(), per_client.end());
    }
    std::sort(all.begin(), all.end());
    const size_t runs = kClients * kObsSessionsPerClient * kDepth;
    const double run_rate = static_cast<double>(runs) / seconds;
    const double p50 = Percentile(all, 0.50) * 1000;
    const double p95 = Percentile(all, 0.95) * 1000;
    table.AddRow({scraped ? "10 Hz" : "off", std::to_string(runs),
                  Fmt(run_rate, 1), Fmt(p50, 3), Fmt(p95, 3),
                  std::to_string(scrapes.load()),
                  Fmt(render.Quantile(0.95), 1)});
    json.Add(std::string("{\"phase\": \"observability\", \"scraper\": ") +
             (scraped ? "true" : "false") +
             ", \"clients\": " + std::to_string(kClients) +
             ", \"depth\": " + std::to_string(kDepth) +
             ", \"runs\": " + std::to_string(runs) +
             ", \"runs_per_sec\": " + Fmt(run_rate, 2) +
             ", \"run_p50_ms\": " + Fmt(p50, 4) +
             ", \"run_p95_ms\": " + Fmt(p95, 4) +
             ", \"scrapes\": " + std::to_string(scrapes.load()) +
             ", \"scrape_render_p50_us\": " + Fmt(render.Quantile(0.50), 2) +
             ", \"scrape_render_p95_us\": " + Fmt(render.Quantile(0.95), 2) +
             ", \"truncated\": " + std::to_string(truncated.load()) + "}");
  }
  table.Print();
}

}  // namespace

int main() {
  const size_t graphs = AidsGraphCount() / 4;
  Banner("server", "wire-protocol sessions over loopback, |D| = " +
                       std::to_string(graphs));
  Workbench bench = BuildAidsWorkbench(graphs);
  std::vector<VisualQuerySpec> queries = ContainmentQueries(bench);
  if (queries.empty()) {
    std::fprintf(stderr, "no queries; aborting\n");
    return 1;
  }

  SessionManager manager(bench.snapshot);
  PragueServerOptions options;
  options.port = 0;  // ephemeral; thread counts default to the hardware
  PragueServer server(&manager, options);
  if (Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "server: %s\n", st.ToString().c_str());
    return 1;
  }

  BenchJsonWriter json("BENCH_server.json");
  SessionSweep(server, bench, queries, json);
  ConnectionSweep(server, bench, queries, json);
  server.Stop();

  // Shard sweep runs its own servers (one per shard count) over the heavy
  // similarity workload, where the scattered Run() phases dominate.
  std::vector<VisualQuerySpec> similarity = AidsQueries(bench);
  if (!similarity.empty()) {
    ShardSweep(bench, similarity, json);
  }

  // Hostile-tenant sweep (own servers): probe latency alone, under a
  // hostile flood, and under the same flood with admission control on.
  HostileSweep(bench, queries, similarity.empty() ? queries : similarity,
               json);

  // Durability sweep (own --data-dir servers): APPEND latency with fsync
  // on/off, group-commit amortization, and the two restart paths.
  DurabilitySweep(bench, json);

  // Observability sweep (own servers): the same RUN workload with the
  // operator plane off vs scraped at 10 Hz.
  ObservabilitySweep(bench, queries, json);
  std::printf("wrote %s\n", json.path().c_str());
  return 0;
}
