// The network service layer, end to end over real loopback sockets:
// framing and command grammar, error mapping, and the acceptance property
// — many concurrent wire clients formulating edge-at-a-time (including
// DELETE_EDGE and a mid-RUN CANCEL) against one server while a background
// thread publishes COW appends, with every RUN reply bit-identical to an
// in-process PragueSession replay on the same pinned snapshot, and
// deadline-cut runs reporting truncation plus the cut phase.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <limits>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <sstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/session_manager.h"
#include "datasets/query_workload.h"
#include "obs/metrics.h"
#include "server/prague_client.h"
#include "server/prague_server.h"
#include "server/wire.h"
#include "test_fixtures.h"

namespace prague {
namespace {

using testing::kC;
using testing::kN;
using testing::kO;
using testing::kS;

SnapshotPtr FreshTinySnapshot() {
  const auto& fixture = testing::TinyFixture::Get();
  return DatabaseSnapshot::Make(fixture.db, fixture.indexes, 0);
}

// ---------------------------------------------------------------------------
// Framing over a socketpair.

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    for (int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
};

TEST(WireFrameTest, RoundTripsBothTypesAndEmptyPayload) {
  SocketPair pair;
  ASSERT_TRUE(SendFrame(pair.fds[0], FrameType::kRequest, "RUN 5").ok());
  ASSERT_TRUE(SendFrame(pair.fds[0], FrameType::kResponse, "").ok());
  Result<WireFrame> first = RecvFrame(pair.fds[1]);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->type, FrameType::kRequest);
  EXPECT_EQ(first->payload, "RUN 5");
  Result<WireFrame> second = RecvFrame(pair.fds[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->type, FrameType::kResponse);
  EXPECT_TRUE(second->payload.empty());
}

TEST(WireFrameTest, CleanCloseIsDistinguishedFromMidFrameClose) {
  {
    SocketPair pair;
    ::close(pair.fds[0]);
    pair.fds[0] = -1;
    Result<WireFrame> r = RecvFrame(pair.fds[1]);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(IsConnectionClosed(r.status()));
  }
  {
    SocketPair pair;
    // Three header bytes, then EOF: a shorn frame, not a clean close.
    const uint8_t partial[3] = {9, 0, 0};
    ASSERT_EQ(::send(pair.fds[0], partial, sizeof(partial), 0), 3);
    ::close(pair.fds[0]);
    pair.fds[0] = -1;
    Result<WireFrame> r = RecvFrame(pair.fds[1]);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
    EXPECT_FALSE(IsConnectionClosed(r.status()));
  }
}

TEST(WireFrameTest, UnknownTypeByteAndOversizedLengthAreCorruption) {
  {
    SocketPair pair;
    uint8_t header[kFrameHeaderBytes];
    EncodeFrameHeader({3, 0x7A}, header);  // 'z' is not a frame type
    ASSERT_EQ(::send(pair.fds[0], header, sizeof(header), 0),
              static_cast<ssize_t>(sizeof(header)));
    Result<WireFrame> r = RecvFrame(pair.fds[1]);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
  }
  {
    SocketPair pair;
    uint8_t header[kFrameHeaderBytes];
    EncodeU32LE(kMaxFramePayload + 1, header);
    header[4] = static_cast<uint8_t>(FrameType::kRequest);
    ASSERT_EQ(::send(pair.fds[0], header, sizeof(header), 0),
              static_cast<ssize_t>(sizeof(header)));
    Result<WireFrame> r = RecvFrame(pair.fds[1]);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
  }
}

// ---------------------------------------------------------------------------
// Command grammar.

TEST(WireCommandTest, ParsesEveryVerb) {
  Result<WireCommand> open = ParseCommand("OPEN 250");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open->kind, CommandKind::kOpen);
  EXPECT_EQ(open->timeout_ms, 250);
  EXPECT_EQ(ParseCommand("OPEN")->timeout_ms, -1);

  Result<WireCommand> add = ParseCommand("ADD_EDGE 1 C 2 S 7");
  ASSERT_TRUE(add.ok());
  EXPECT_EQ(add->kind, CommandKind::kAddEdge);
  EXPECT_EQ(add->u, 1u);
  EXPECT_EQ(add->u_label, "C");
  EXPECT_EQ(add->v, 2u);
  EXPECT_EQ(add->v_label, "S");
  EXPECT_EQ(add->edge_label, 7u);
  EXPECT_EQ(ParseCommand("ADD_EDGE 1 C 2 S")->edge_label, 0u);

  Result<WireCommand> del = ParseCommand("DELETE_EDGE 3 1");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->kind, CommandKind::kDeleteEdge);
  EXPECT_EQ(del->u, 3u);
  EXPECT_EQ(del->v, 1u);

  EXPECT_EQ(ParseCommand("RUN")->limit, 0u);
  EXPECT_EQ(ParseCommand("RUN 10")->limit, 10u);
  EXPECT_EQ(ParseCommand("CANCEL")->kind, CommandKind::kCancel);
  EXPECT_EQ(ParseCommand("STATS")->kind, CommandKind::kStats);
  EXPECT_EQ(ParseCommand("METRICS")->kind, CommandKind::kMetrics);
  EXPECT_EQ(ParseCommand("CLOSE")->kind, CommandKind::kClose);
}

TEST(WireCommandTest, TypedParseErrors) {
  for (const char* bad :
       {"", "FLY", "OPEN x", "OPEN -5", "OPEN 1 2", "ADD_EDGE 1 C 2",
        "ADD_EDGE u C v S", "ADD_EDGE 1 C 2 S 3 4", "DELETE_EDGE 1",
        "DELETE_EDGE 1 2 3", "RUN k", "CANCEL now", "STATS 1",
        "METRICS 1"}) {
    Result<WireCommand> r = ParseCommand(bad);
    ASSERT_FALSE(r.ok()) << "accepted '" << bad << "'";
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument) << bad;
  }
}

TEST(WireCommandTest, FormatAndParseAreInverse) {
  WireCommand add;
  add.kind = CommandKind::kAddEdge;
  add.u = 4;
  add.u_label = "C";
  add.v = 9;
  add.v_label = "N";
  add.edge_label = 2;
  Result<WireCommand> back = ParseCommand(FormatCommand(add));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->u, add.u);
  EXPECT_EQ(back->v_label, add.v_label);
  EXPECT_EQ(back->edge_label, add.edge_label);
}

TEST(WireCommandTest, RequestIdPrefixParses) {
  Result<WireCommand> run = ParseCommand("#7 RUN 10");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->kind, CommandKind::kRun);
  EXPECT_EQ(run->request_id, 7u);
  EXPECT_EQ(run->limit, 10u);
  EXPECT_EQ(ParseCommand("RUN")->request_id, 0u);

  Result<WireCommand> cancel = ParseCommand("CANCEL 12");
  ASSERT_TRUE(cancel.ok());
  EXPECT_EQ(cancel->kind, CommandKind::kCancel);
  EXPECT_EQ(cancel->cancel_id, 12u);
  EXPECT_EQ(ParseCommand("CANCEL")->cancel_id, 0u);

  // Format/parse inverse with the id prefix on.
  WireCommand tagged;
  tagged.kind = CommandKind::kRun;
  tagged.request_id = 41;
  tagged.limit = 3;
  Result<WireCommand> back = ParseCommand(FormatCommand(tagged));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->request_id, 41u);
  EXPECT_EQ(back->limit, 3u);
}

TEST(WireCommandTest, MalformedRequestIdsAreTypedErrors) {
  // Ids must be positive decimal integers; 0 is the reserved "no id".
  for (const char* bad : {"#", "# RUN", "#0 RUN", "#12x RUN", "#-3 RUN",
                          "#99999999999999999999999 RUN"}) {
    Result<WireCommand> r = ParseCommand(bad);
    ASSERT_FALSE(r.ok()) << "accepted '" << bad << "'";
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument) << bad;
  }
  EXPECT_EQ(ParseCommand("CANCEL 0").status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(ParseCommand("CANCEL 1 2").status().code(),
            Status::Code::kInvalidArgument);
}

TEST(WireCommandTest, BatchRunParsesPatternsAndLimits) {
  Result<WireCommand> batch =
      ParseCommand("#3 BATCH_RUN 2 5\n(a:C)-(b:S)\n(a:C)-(b:S), (b)-(c:C)");
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->kind, CommandKind::kBatchRun);
  EXPECT_EQ(batch->request_id, 3u);
  EXPECT_EQ(batch->limit, 5u);
  ASSERT_EQ(batch->batch_patterns.size(), 2u);
  EXPECT_EQ(batch->batch_patterns[0], "(a:C)-(b:S)");
  EXPECT_EQ(batch->batch_patterns[1], "(a:C)-(b:S), (b)-(c:C)");

  // Member-count mismatch, zero members, over the cap, an empty member
  // line, and a stray newline on a single-line verb.
  for (const char* bad :
       {"BATCH_RUN 2\n(a:C)-(b:S)", "BATCH_RUN 0", "BATCH_RUN 10000",
        "BATCH_RUN 2\n(a:C)-(b:S)\n", "RUN\n(a:C)-(b:S)"}) {
    Result<WireCommand> r = ParseCommand(bad);
    ASSERT_FALSE(r.ok()) << "accepted '" << bad << "'";
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument) << bad;
  }

  // Format/parse inverse, id prefix included.
  WireCommand cmd;
  cmd.kind = CommandKind::kBatchRun;
  cmd.request_id = 9;
  cmd.batch_patterns = {"(a:C)-(b:S)", "(x:O)-(y:N)"};
  Result<WireCommand> back = ParseCommand(FormatCommand(cmd));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->request_id, 9u);
  EXPECT_EQ(back->batch_patterns, cmd.batch_patterns);
}

// ---------------------------------------------------------------------------
// Reply codecs.

TEST(WireReplyTest, ErrorReplyRoundTripsStatus) {
  Status original = Status::NotFound("label 'X' is not in the dictionary");
  Status decoded = DecodeReplyStatus(EncodeErrorReply(original));
  EXPECT_EQ(decoded, original);
  EXPECT_TRUE(DecodeReplyStatus("OK bye").ok());
  EXPECT_EQ(DecodeReplyStatus("gibberish").code(), Status::Code::kCorruption);
}

TEST(WireReplyTest, StepReplyRoundTrips) {
  StepReport report;
  report.edge = 3;
  report.status = FragmentStatus::kNoExactMatch;
  report.similarity_mode = true;
  report.exact_candidates = 0;
  report.free_candidates = 17;
  report.ver_candidates = 5;
  Result<StepReply> reply = ParseStepReply(FormatStepReply(report));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->edge, 3);
  EXPECT_EQ(reply->status, FragmentStatus::kNoExactMatch);
  EXPECT_TRUE(reply->similarity_mode);
  EXPECT_EQ(reply->free_candidates, 17u);
  EXPECT_EQ(reply->ver_candidates, 5u);
}

TEST(WireReplyTest, RunReplyRoundTripsExactAndSimilar) {
  QueryResults exact;
  exact.exact = {2, 5, 9};
  RunStats stats;
  stats.srt_seconds = 0.004;
  Result<RunReply> r = ParseRunReply(FormatRunReply(exact, stats, 0));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->similarity);
  EXPECT_EQ(r->total_matches, 3u);
  EXPECT_EQ(r->exact, (std::vector<GraphId>{2, 5, 9}));
  EXPECT_FALSE(r->truncated);
  EXPECT_EQ(r->deadline_phase, "none");
  EXPECT_NEAR(r->srt_ms, 4.0, 1e-9);

  QueryResults similar;
  similar.similarity = true;
  similar.truncated = true;
  similar.similar = {{4, 1, false}, {7, 2, true}, {1, 3, true}};
  RunStats cut;
  cut.deadline_phase = RunPhase::kSimilarGeneration;
  // limit=2 caps the listed matches; n stays the full count.
  Result<RunReply> s = ParseRunReply(FormatRunReply(similar, cut, 2));
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->similarity);
  EXPECT_TRUE(s->truncated);
  EXPECT_EQ(s->deadline_phase, "similar-generation");
  EXPECT_EQ(s->total_matches, 3u);
  ASSERT_EQ(s->similar.size(), 2u);
  EXPECT_EQ(s->similar[0].gid, 4u);
  EXPECT_EQ(s->similar[0].distance, 1);
  EXPECT_EQ(s->similar[1].gid, 7u);
}

TEST(WireReplyTest, EmptyResultListsUseDashPlaceholder) {
  QueryResults empty;
  RunStats stats;
  std::string payload = FormatRunReply(empty, stats, 0);
  EXPECT_NE(payload.find("ids=-"), std::string::npos);
  Result<RunReply> r = ParseRunReply(payload);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->exact.empty());
}

TEST(WireReplyTest, StatsReplyRoundTripsOpenSessions) {
  SessionManagerStats stats;
  stats.current_version = 12;
  stats.open_sessions = 2;
  stats.sessions_opened = 40;
  stats.snapshots_published = 12;
  stats.runs_served = 321;
  stats.runs_truncated = 9;
  stats.open_session_infos = {{17, 3}, {39, 12}};
  Result<StatsReply> reply = ParseStatsReply(FormatStatsReply(stats));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->current_version, 12u);
  EXPECT_EQ(reply->open_sessions, 2u);
  EXPECT_EQ(reply->sessions_opened, 40u);
  EXPECT_EQ(reply->snapshots_published, 12u);
  EXPECT_EQ(reply->runs_served, 321u);
  EXPECT_EQ(reply->runs_truncated, 9u);
  ASSERT_EQ(reply->sessions.size(), 2u);
  EXPECT_EQ(reply->sessions[0], (std::pair<uint64_t, uint64_t>{17, 3}));
  EXPECT_EQ(reply->sessions[1], (std::pair<uint64_t, uint64_t>{39, 12}));
}

TEST(WireReplyTest, MetricsReplyRoundTripsPrometheusText) {
  const std::string text =
      "# TYPE prague_server_frames_total counter\n"
      "prague_server_frames_total 42\n";
  Result<std::string> back = ParseMetricsReply(FormatMetricsReply(text));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, text);

  // An empty exposition is legal (no metrics registered yet).
  Result<std::string> empty = ParseMetricsReply(FormatMetricsReply(""));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  EXPECT_FALSE(ParseMetricsReply("OK metricsgarbage").ok());
  EXPECT_EQ(ParseMetricsReply("ERR NOT_FOUND boom").status().code(),
            Status::Code::kNotFound);
}

TEST(WireReplyTest, BatchRunReplyRoundTripsMixedMembers) {
  QueryResults exact;
  exact.exact = {1, 4};
  RunStats stats;
  std::vector<std::string> members = {
      FormatRunReply(exact, stats, 0),
      EncodeErrorReply(Status::InvalidArgument("bad pattern")),
  };
  Result<BatchRunReply> reply =
      ParseBatchRunReply(FormatBatchRunReply(members));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->members.size(), 2u);
  ASSERT_TRUE(reply->members[0].ok());
  EXPECT_EQ(reply->members[0]->exact, (std::vector<GraphId>{1, 4}));
  ASSERT_FALSE(reply->members[1].ok());
  EXPECT_EQ(reply->members[1].status().code(),
            Status::Code::kInvalidArgument);

  // A member-count mismatch is Corruption; a whole-batch error decodes to
  // its own status.
  EXPECT_EQ(ParseBatchRunReply("OK batch n=2\n" + members[0]).status().code(),
            Status::Code::kCorruption);
  EXPECT_EQ(ParseBatchRunReply("ERR FAILED_PRECONDITION no session")
                .status()
                .code(),
            Status::Code::kFailedPrecondition);
}

TEST(WireReplyTest, ProtocolErrorTokenRoundTrips) {
  Status original = Status::ProtocolError("request id 3 already in flight");
  std::string payload = EncodeErrorReply(original);
  EXPECT_NE(payload.find("PROTOCOL_ERROR"), std::string::npos);
  EXPECT_EQ(DecodeReplyStatus(payload), original);
}

// ---------------------------------------------------------------------------
// A live server on loopback.

class ServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    manager_ = std::make_unique<SessionManager>(FreshTinySnapshot());
    PragueServerOptions options;
    options.port = 0;  // ephemeral
    options.worker_threads = 12;
    server_ = std::make_unique<PragueServer>(manager_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override { server_->Stop(); }

  Status ConnectClient(PragueClient* client) {
    return client->Connect("127.0.0.1", server_->port());
  }

  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<PragueServer> server_;
};

// Raw-frame loopback connection, for tests that need to speak frames the
// PragueClient would never emit (explicit ids, duplicates, malformed ids).
struct RawConn {
  int fd = -1;
  // rcvbuf > 0 pins SO_RCVBUF before connect (disabling receive-buffer
  // autotuning), so a deliberately-slow reader cannot have megabytes of
  // replies absorbed by the kernel on its behalf.
  explicit RawConn(uint16_t port, int rcvbuf = 0) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    if (rcvbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  Status SendPayload(const std::string& payload) {
    return SendFrame(fd, FrameType::kRequest, payload);
  }
  Result<std::string> Recv() {
    PRAGUE_ASSIGN_OR_RETURN(WireFrame frame, RecvFrame(fd));
    return std::move(frame.payload);
  }
  Result<std::string> RoundTrip(const std::string& payload) {
    PRAGUE_RETURN_NOT_OK(SendPayload(payload));
    return Recv();
  }
};

TEST_F(ServerFixture, OpenFormulateRunClose) {
  PragueClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  Result<OpenReply> open = client.Open();
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_EQ(open->version, 0u);
  EXPECT_GT(open->session_id, 0u);

  // The C-S-C path of test_session_manager, over the wire.
  Result<StepReply> e1 = client.AddEdge(1, "C", 2, "S");
  ASSERT_TRUE(e1.ok()) << e1.status().ToString();
  Result<StepReply> e2 = client.AddEdge(2, "S", 3, "C");
  ASSERT_TRUE(e2.ok());

  Result<RunReply> run = client.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->truncated);

  // The same formulation in process on the same pinned snapshot.
  PragueSession replay(manager_->current());
  NodeId a = replay.AddNode(kC);
  NodeId b = replay.AddNode(kS);
  NodeId c = replay.AddNode(kC);
  ASSERT_TRUE(replay.AddEdge(a, b).ok());
  ASSERT_TRUE(replay.AddEdge(b, c).ok());
  Result<QueryResults> expected = replay.Run(nullptr);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(run->similarity, expected->similarity);
  EXPECT_EQ(run->exact, expected->exact);

  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerFixture, ProtocolErrorsAreTyped) {
  PragueClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());

  // Formulating before OPEN.
  Result<StepReply> early = client.AddEdge(1, "C", 2, "S");
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), Status::Code::kFailedPrecondition);
  Result<RunReply> early_run = client.Run();
  ASSERT_FALSE(early_run.ok());
  EXPECT_EQ(early_run.status().code(), Status::Code::kFailedPrecondition);

  ASSERT_TRUE(client.Open().ok());
  // Double OPEN.
  Result<OpenReply> again = client.Open();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), Status::Code::kFailedPrecondition);

  // A label outside the dictionary.
  Result<StepReply> bad_label = client.AddEdge(1, "C", 2, "Xe");
  ASSERT_FALSE(bad_label.ok());
  EXPECT_EQ(bad_label.status().code(), Status::Code::kNotFound);

  // Relabeling an existing handle.
  ASSERT_TRUE(client.AddEdge(1, "C", 2, "S").ok());
  Result<StepReply> relabel = client.AddEdge(1, "O", 3, "C");
  ASSERT_FALSE(relabel.ok());
  EXPECT_EQ(relabel.status().code(), Status::Code::kInvalidArgument);

  // Deleting an edge that was never added.
  Result<StepReply> missing = client.DeleteEdge(1, 9);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), Status::Code::kNotFound);

  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerFixture, StatsListsOpenSessionsWithPinnedVersions) {
  PragueClient first, second;
  ASSERT_TRUE(ConnectClient(&first).ok());
  ASSERT_TRUE(ConnectClient(&second).ok());
  ASSERT_TRUE(first.Open().ok());

  // Publish an append between the two opens: the sessions pin different
  // versions and STATS must show exactly that.
  ASSERT_TRUE(
      manager_
          ->Append({testing::MakeGraph({kC, kS, kO}, {{0, 1}, {1, 2}})}, 0.34)
          .ok());
  ASSERT_TRUE(second.Open().ok());

  Result<StatsReply> stats = second.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->current_version, 1u);
  EXPECT_EQ(stats->open_sessions, 2u);
  ASSERT_EQ(stats->sessions.size(), 2u);
  EXPECT_EQ(stats->sessions[0],
            (std::pair<uint64_t, uint64_t>{first.session_id(), 0}));
  EXPECT_EQ(stats->sessions[1],
            (std::pair<uint64_t, uint64_t>{second.session_id(), 1}));

  EXPECT_TRUE(first.Close().ok());
  EXPECT_TRUE(second.Close().ok());
}

// Value of the sample named exactly \p name in a Prometheus text block;
// -1 when absent.
double PrometheusSample(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > name.size() &&
        line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
    }
  }
  return -1.0;
}

TEST_F(ServerFixture, MetricsCountRunFramesExactly) {
  PragueClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());

  // METRICS needs no open session. The registry is process-wide and other
  // tests in this binary also serve RUNs, so assert on the delta.
  Result<std::string> before_text = client.Metrics();
  ASSERT_TRUE(before_text.ok()) << before_text.status().ToString();
  double before =
      PrometheusSample(*before_text, "prague_server_run_latency_us_count");
  ASSERT_GE(before, 0.0) << "RUN latency histogram not in exposition:\n"
                         << *before_text;

  ASSERT_TRUE(client.Open().ok());
  ASSERT_TRUE(client.AddEdge(1, "C", 2, "S").ok());
  constexpr int kRuns = 5;
  for (int i = 0; i < kRuns; ++i) {
    ASSERT_TRUE(client.Run().ok());
  }

  Result<std::string> after_text = client.Metrics();
  ASSERT_TRUE(after_text.ok()) << after_text.status().ToString();
  double after =
      PrometheusSample(*after_text, "prague_server_run_latency_us_count");
  // The acceptance property: one histogram sample per RUN frame issued.
  EXPECT_EQ(after - before, kRuns);
  EXPECT_GE(PrometheusSample(*after_text, "prague_server_cmd_run_total"),
            static_cast<double>(kRuns));
  EXPECT_GT(PrometheusSample(*after_text, "prague_server_frames_total"), 0.0);
  EXPECT_GE(PrometheusSample(*after_text, "prague_engine_runs_total"),
            static_cast<double>(kRuns));

  // STATS carries the cumulative run tally for this server's manager.
  Result<StatsReply> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->runs_served, static_cast<uint64_t>(kRuns));
  EXPECT_EQ(stats->runs_truncated, 0u);

  EXPECT_TRUE(client.Close().ok());
}

// ---------------------------------------------------------------------------
// Request ids, pipelining and BATCH_RUN against a live server.

TEST_F(ServerFixture, RequestIdsAreEchoedOnOkAndErrReplies) {
  RawConn conn(server_->port());
  ASSERT_GE(conn.fd, 0);

  Result<std::string> open = conn.RoundTrip("#5 OPEN");
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  Result<std::pair<uint64_t, std::string_view>> open_split =
      SplitFrameId(*open);
  ASSERT_TRUE(open_split.ok());
  EXPECT_EQ(open_split->first, 5u);
  EXPECT_TRUE(ParseOpenReply(open_split->second).ok()) << *open;

  // Errors echo the id too, so a pipelining client can pair them.
  Result<std::string> err = conn.RoundTrip("#6 RUN extra junk");
  ASSERT_TRUE(err.ok());
  Result<std::pair<uint64_t, std::string_view>> err_split =
      SplitFrameId(*err);
  ASSERT_TRUE(err_split.ok());
  EXPECT_EQ(err_split->first, 6u);
  EXPECT_EQ(DecodeReplyStatus(err_split->second).code(),
            Status::Code::kInvalidArgument);

  // A malformed id cannot be echoed: the reply is id-less and typed, and
  // the connection survives.
  for (const char* bad : {"#0 RUN", "#12x RUN"}) {
    Result<std::string> reply = conn.RoundTrip(bad);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_NE(reply->front(), '#') << *reply;
    EXPECT_EQ(DecodeReplyStatus(*reply).code(),
              Status::Code::kInvalidArgument)
        << *reply;
  }

  // Id-less requests still get byte-identical id-less replies.
  Result<std::string> bye = conn.RoundTrip("CLOSE");
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(*bye, "OK bye");
}

TEST_F(ServerFixture, RawPipelinedRunRepliesCarryTheirIds) {
  RawConn conn(server_->port());
  ASSERT_GE(conn.fd, 0);
  Result<std::string> opened = conn.RoundTrip("OPEN");
  ASSERT_TRUE(opened.ok() && DecodeReplyStatus(*opened).ok());
  Result<std::string> added = conn.RoundTrip("ADD_EDGE 1 C 2 S");
  ASSERT_TRUE(added.ok() && DecodeReplyStatus(*added).ok());

  // Two id-tagged RUNs in flight back to back; both replies must parse
  // and carry their request ids.
  ASSERT_TRUE(conn.SendPayload("#1 RUN").ok());
  ASSERT_TRUE(conn.SendPayload("#2 RUN 1").ok());
  std::set<uint64_t> seen;
  for (int i = 0; i < 2; ++i) {
    Result<std::string> reply = conn.Recv();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    Result<std::pair<uint64_t, std::string_view>> split =
        SplitFrameId(*reply);
    ASSERT_TRUE(split.ok());
    seen.insert(split->first);
    EXPECT_TRUE(ParseRunReply(split->second).ok()) << *reply;
  }
  EXPECT_EQ(seen, (std::set<uint64_t>{1, 2}));
}

TEST_F(ServerFixture, PipelinedRunsAwaitedOutOfOrder) {
  PragueClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  ASSERT_TRUE(client.Open().ok());
  ASSERT_TRUE(client.AddEdge(1, "C", 2, "S").ok());
  Result<RunReply> expected = client.Run();
  ASSERT_TRUE(expected.ok());

  Result<uint64_t> id1 = client.StartRun();
  Result<uint64_t> id2 = client.StartRun();
  Result<uint64_t> id3 = client.StartRun();
  ASSERT_TRUE(id1.ok() && id2.ok() && id3.ok());
  Result<RunReply> r3 = client.WaitRun(*id3);
  Result<RunReply> r1 = client.WaitRun(*id1);
  Result<RunReply> r2 = client.WaitRun(*id2);
  for (Result<RunReply>* r : {&r1, &r2, &r3}) {
    ASSERT_TRUE(r->ok()) << r->status().ToString();
    EXPECT_EQ((*r)->exact, expected->exact);
    EXPECT_FALSE((*r)->truncated);
  }
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerFixture, BatchRunMixesExactSimilarAndFailedMembers) {
  PragueClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());

  // BATCH_RUN needs an open session; without one it is refused whole.
  std::vector<std::string> patterns = {
      "(a:C)-(b:S), (b)-(c:C)",          // exact C-S-C path
      "(a:C)-(b:S), (b)-(c:C), (c)-(d:N)",  // pendant N -> similarity
      "(a:C)-(b:",                       // does not parse
  };
  Result<BatchRunReply> refused = client.BatchRun(patterns);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), Status::Code::kFailedPrecondition);

  ASSERT_TRUE(client.Open().ok());
  Result<BatchRunReply> reply = client.BatchRun(patterns);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->members.size(), 3u);

  ASSERT_TRUE(reply->members[0].ok())
      << reply->members[0].status().ToString();
  EXPECT_FALSE(reply->members[0]->similarity);
  ASSERT_TRUE(reply->members[1].ok())
      << reply->members[1].status().ToString();
  EXPECT_TRUE(reply->members[1]->similarity);
  ASSERT_FALSE(reply->members[2].ok());

  // The exact member matches the same formulation replayed in process on
  // the session's pinned snapshot.
  PragueSession replay(manager_->current());
  NodeId a = replay.AddNode(kC);
  NodeId b = replay.AddNode(kS);
  NodeId c = replay.AddNode(kC);
  ASSERT_TRUE(replay.AddEdge(a, b).ok());
  ASSERT_TRUE(replay.AddEdge(b, c).ok());
  Result<QueryResults> expected = replay.Run(nullptr);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(reply->members[0]->exact, expected->exact);

  // The batch counters moved.
  Result<std::string> metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_GT(PrometheusSample(*metrics, "prague_server_cmd_batch_run_total"),
            0.0);
  EXPECT_GT(PrometheusSample(*metrics, "prague_server_batch_size_count"),
            0.0);
  EXPECT_GT(
      PrometheusSample(*metrics, "prague_server_batch_latency_us_count"),
      0.0);

  EXPECT_TRUE(client.Close().ok());
}

TEST(PragueClientTest, UnmatchedReplyIdIsProtocolError) {
  // An impostor server that answers the first request with a reply tagged
  // by a request id the client never issued.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  std::thread impostor([&] {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    Result<WireFrame> request = RecvFrame(fd);
    if (request.ok()) {
      Status ignored =
          SendFrame(fd, FrameType::kResponse, "#42 OK session=1 version=0");
      (void)ignored;
    }
    ::close(fd);
  });

  PragueClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", ntohs(addr.sin_port)).ok());
  Result<OpenReply> open = client.Open();
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.status().code(), Status::Code::kProtocolError);
  // The violation poisons the connection: later calls fail the same way.
  Result<StatsReply> stats = client.Stats();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), Status::Code::kProtocolError);
  impostor.join();
  ::close(listener);
}

TEST_F(ServerFixture, HundredsOfConcurrentConnectionsServeLockstep) {
  // Several hundred sockets held open simultaneously, each running a full
  // OPEN -> ADD_EDGE -> RUN -> CLOSE conversation while all the others
  // stay connected. The CI reactor-stress job raises the count via the
  // environment.
  size_t conns = 300;
  if (const char* env = std::getenv("PRAGUE_STRESS_CONNECTIONS")) {
    conns = static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
  std::vector<PragueClient> clients(conns);
  for (size_t i = 0; i < conns; ++i) {
    ASSERT_TRUE(ConnectClient(&clients[i]).ok()) << "connect " << i;
    Result<OpenReply> open = clients[i].Open();
    ASSERT_TRUE(open.ok()) << i << ": " << open.status().ToString();
  }
  Result<StatsReply> stats = clients[0].Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->open_sessions, conns);

  // The connections gauge tracks the live count.
  Result<std::string> metrics = clients[0].Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(PrometheusSample(*metrics, "prague_server_connections_open"),
            static_cast<double>(conns));

  for (size_t i = 0; i < conns; ++i) {
    ASSERT_TRUE(clients[i].AddEdge(1, "C", 2, "S").ok()) << i;
    Result<RunReply> run = clients[i].Run();
    ASSERT_TRUE(run.ok()) << i << ": " << run.status().ToString();
    EXPECT_FALSE(run->truncated) << i;
  }
  for (size_t i = 0; i < conns; ++i) {
    EXPECT_TRUE(clients[i].Close().ok()) << i;
  }
  EXPECT_GE(server_->connections_accepted(), conns);
}

// ---------------------------------------------------------------------------
// The acceptance test: concurrent wire clients vs in-process replay.

// One scripted formulation step.
struct WireOp {
  bool del = false;
  uint32_t u = 0;
  const char* u_label = "";
  uint32_t v = 0;
  const char* v_label = "";
};

// Per-client scripts: all share the C-S-C core; variants add similarity
// pressure (pendant N has no exact match anywhere) and Modify actions.
std::vector<WireOp> ScriptFor(int client) {
  std::vector<WireOp> ops = {
      {false, 1, "C", 2, "S"},
      {false, 2, "S", 3, "C"},
  };
  switch (client % 4) {
    case 0:
      break;  // plain exact path
    case 1:  // add then delete a pendant O (Modify action)
      ops.push_back({false, 1, "C", 4, "O"});
      ops.push_back({true, 1, "", 4, ""});
      break;
    case 2:  // pendant N: no exact match -> similarity mode
      ops.push_back({false, 3, "C", 5, "N"});
      break;
    case 3:  // triangle then delete one leg
      ops.push_back({false, 1, "C", 3, "C"});
      ops.push_back({true, 1, "", 2, ""});
      break;
  }
  return ops;
}

// Replays a script on an in-process session, mirroring the server's
// handle bookkeeping (first appearance creates the node, edges tracked by
// unordered handle pair).
Result<QueryResults> ReplayScript(const SnapshotPtr& snapshot,
                                  const std::vector<WireOp>& ops) {
  PragueSession session(snapshot);
  std::map<uint32_t, NodeId> nodes;
  std::map<std::pair<uint32_t, uint32_t>, FormulationId> edges;
  auto key = [](uint32_t u, uint32_t v) {
    return std::make_pair(std::min(u, v), std::max(u, v));
  };
  for (const WireOp& op : ops) {
    if (op.del) {
      Result<StepReport> step = session.DeleteEdge(edges.at(key(op.u, op.v)));
      if (!step.ok()) return step.status();
      edges.erase(key(op.u, op.v));
    } else {
      for (auto [handle, label] :
           {std::pair<uint32_t, const char*>{op.u, op.u_label},
            std::pair<uint32_t, const char*>{op.v, op.v_label}}) {
        if (nodes.count(handle)) continue;
        Result<NodeId> id = session.AddNodeByName(label);
        if (!id.ok()) return id.status();
        nodes[handle] = *id;
      }
      Result<StepReport> step = session.AddEdge(nodes[op.u], nodes[op.v]);
      if (!step.ok()) return step.status();
      edges[key(op.u, op.v)] = step->edge;
    }
  }
  return session.Run(nullptr);
}

TEST_F(ServerFixture, ConcurrentClientsMatchReplayWhileAppenderPublishes) {
  constexpr int kClients = 8;
  constexpr int kAppends = 10;

  // Every published snapshot, by version, so each client's RUN can be
  // replayed on exactly the version its session pinned.
  std::mutex snapshots_mu;
  std::map<uint64_t, SnapshotPtr> snapshots;
  {
    std::lock_guard<std::mutex> lock(snapshots_mu);
    snapshots[manager_->current()->version()] = manager_->current();
  }

  std::atomic<bool> failed{false};
  std::vector<uint64_t> pinned(kClients, 0);
  std::vector<RunReply> replies(kClients);
  std::vector<std::string> errors(kClients);

  std::vector<std::thread> threads;
  threads.reserve(kClients + 1);
  threads.emplace_back([&] {
    for (int i = 0; i < kAppends; ++i) {
      auto report = manager_->Append(
          {testing::MakeGraph({kC, kS, kO}, {{0, 1}, {1, 2}})}, 0.34);
      if (!report.ok()) {
        failed.store(true);
        return;
      }
      std::lock_guard<std::mutex> lock(snapshots_mu);
      snapshots[manager_->current()->version()] = manager_->current();
    }
  });
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto fail = [&](const Status& st) {
        errors[i] = st.ToString();
        failed.store(true);
      };
      PragueClient client;
      if (Status st = ConnectClient(&client); !st.ok()) return fail(st);
      Result<OpenReply> open = client.Open();
      if (!open.ok()) return fail(open.status());
      pinned[i] = open->version;
      for (const WireOp& op : ScriptFor(i)) {
        if (op.del) {
          Result<StepReply> step = client.DeleteEdge(op.u, op.v);
          if (!step.ok()) return fail(step.status());
        } else {
          Result<StepReply> step =
              client.AddEdge(op.u, op.u_label, op.v, op.v_label);
          if (!step.ok()) return fail(step.status());
        }
      }
      Result<RunReply> run = client.Run();
      if (!run.ok()) return fail(run.status());
      replies[i] = std::move(*run);
      if (Status st = client.Close(); !st.ok()) return fail(st);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(errors[i].empty()) << "client " << i << ": " << errors[i];
  }
  ASSERT_FALSE(failed.load());

  for (int i = 0; i < kClients; ++i) {
    SCOPED_TRACE("client " + std::to_string(i) + " pinned version " +
                 std::to_string(pinned[i]));
    SnapshotPtr snapshot;
    {
      std::lock_guard<std::mutex> lock(snapshots_mu);
      auto it = snapshots.find(pinned[i]);
      ASSERT_NE(it, snapshots.end());
      snapshot = it->second;
    }
    Result<QueryResults> expected = ReplayScript(snapshot, ScriptFor(i));
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_FALSE(replies[i].truncated);
    EXPECT_EQ(replies[i].similarity, expected->similarity);
    EXPECT_EQ(replies[i].exact, expected->exact);
    ASSERT_EQ(replies[i].similar.size(), expected->similar.size());
    for (size_t m = 0; m < expected->similar.size(); ++m) {
      EXPECT_EQ(replies[i].similar[m].gid, expected->similar[m].gid);
      EXPECT_EQ(replies[i].similar[m].distance, expected->similar[m].distance);
    }
    // Matches stay within the pinned |D|: no appended graph leaks in.
    for (GraphId gid : replies[i].exact) {
      EXPECT_LT(gid, snapshot->db().size());
    }
  }

  EXPECT_EQ(manager_->Stats().current_version,
            static_cast<uint64_t>(kAppends));
}

// ---------------------------------------------------------------------------
// Cancellation and deadlines over the wire, on a database heavy enough
// that RUN takes visible wall time (same construction as
// test_cancellation's HeavyAidsQuery).

// A database built to make RUN genuinely slow: many graphs behind an
// index mined so shallow (3-edge fragments at 40% support) that it prunes
// almost nothing, forcing the similarity path to MCCS-verify a huge
// candidate set. test_cancellation's AidsFixture query finishes in under
// a millisecond here, which cannot exercise deadlines over the wire.
// Sessions run at σ = kHeavySigma: behind the edge-label signature test
// the query's RUN takes ~3 ms at the default σ = 3, too close to the
// tests' 2 ms cancel gap; σ = 5 widens the level range and brings it back
// to tens of milliseconds.
struct HeavyWireFixture {
  GraphDatabase db;
  MiningResult mined;
  ActionAwareIndexes indexes;
  VisualQuerySpec query;
  /// Version-0 snapshot over db/indexes, borrowed once at fixture build
  /// time (immortal static) — tests share it instead of re-borrowing.
  SnapshotPtr snapshot;

  static const HeavyWireFixture& Get() {
    static HeavyWireFixture* fixture = [] {
      auto* f = new HeavyWireFixture();
      AidsGeneratorConfig config;
      config.graph_count = 12000;
      config.seed = 23;
      f->db = GenerateAidsLikeDatabase(config);
      MiningConfig mining;
      mining.min_support_ratio = 0.4;
      mining.max_fragment_edges = 3;
      Result<MiningResult> mined = MineFragments(f->db, mining);
      if (!mined.ok()) std::abort();
      f->mined = std::move(*mined);
      A2fConfig a2f;
      a2f.beta = 2;
      f->indexes = BuildActionAwareIndexes(f->mined, a2f);
      f->snapshot = DatabaseSnapshot::Borrow(&f->db, &f->indexes);
      WorkloadGenerator workload(&f->db, 47);
      for (auto [edges, mutations] : {std::pair<size_t, int>{12, 3},
                                      {10, 3},
                                      {8, 3},
                                      {8, 2},
                                      {8, 1}}) {
        Result<VisualQuerySpec> s =
            workload.SimilarityQuery(edges, mutations, "heavy");
        if (s.ok()) {
          f->query = std::move(*s);
          return f;
        }
      }
      std::abort();
    }();
    return *fixture;
  }
};

const VisualQuerySpec& HeavyAidsQuery() { return HeavyWireFixture::Get().query; }

constexpr int kHeavySigma = 5;

class HeavyServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto& fixture = HeavyWireFixture::Get();
    PragueConfig config;
    config.sigma = kHeavySigma;
    manager_ = std::make_unique<SessionManager>(fixture.snapshot, config);
    server_ = std::make_unique<PragueServer>(manager_.get(),
                                             PragueServerOptions{});
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override { server_->Stop(); }

  // Feeds the heavy similarity query over the wire.
  static Status FeedHeavy(PragueClient* client) {
    const VisualQuerySpec& spec = HeavyAidsQuery();
    const auto& labels = HeavyWireFixture::Get().db.labels();
    std::map<NodeId, uint32_t> handle_of;
    uint32_t next_handle = 1;
    for (EdgeId e : spec.sequence) {
      const Edge& edge = spec.graph.GetEdge(e);
      for (NodeId n : {edge.u, edge.v}) {
        if (!handle_of.count(n)) handle_of[n] = next_handle++;
      }
      Result<StepReply> step = client->AddEdge(
          handle_of[edge.u], labels.Name(spec.graph.NodeLabel(edge.u)),
          handle_of[edge.v], labels.Name(spec.graph.NodeLabel(edge.v)),
          edge.label);
      PRAGUE_RETURN_NOT_OK(step.status());
    }
    return Status::OK();
  }

  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<PragueServer> server_;
};

TEST_F(HeavyServerFixture, CancelTruncatesRunInFlight) {
  PragueClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Open().ok());  // unbounded budget
  ASSERT_TRUE(FeedHeavy(&client).ok());

  Result<RunReply> run = Status::IOError("never ran");
  std::atomic<bool> run_sent{false};
  std::thread runner([&] {
    run_sent.store(true);
    run = client.Run();
  });
  // Wait until the runner is at the send, give the RUN frame a moment to
  // reach the server, then cancel from this thread through the same
  // connection — the wire image of ManagedSession::Cancel. The handler
  // marks the run in flight before it reads the next frame, so once the
  // RUN frame is ahead of the CANCEL frame the cancel cannot be dropped,
  // and the unbounded run takes orders of magnitude longer than the gap.
  while (!run_sent.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(client.Cancel().ok());
  runner.join();

  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->truncated);
  EXPECT_NE(run->deadline_phase, "none");

  // The session survives the cancellation: a fresh RUN (re-armed token)
  // completes normally and matches an in-process replay.
  Result<RunReply> again = client.Run();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(again->truncated);
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(HeavyServerFixture, PerSessionDeadlineReportsTruncationAndPhase) {
  PragueClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Open(1).ok());  // 1 ms Run() budget
  ASSERT_TRUE(FeedHeavy(&client).ok());

  Result<RunReply> run = client.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->truncated);
  EXPECT_NE(run->deadline_phase, "none");
  EXPECT_TRUE(client.Close().ok());
}

// The PragueClient is lock-step by design, so the only way to race a
// second command against an in-flight RUN on the same connection is to
// speak raw frames.
TEST_F(HeavyServerFixture, CommandsDuringRunAreRejectedExceptCancel) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // The test queues RUN, STATS and CANCEL back to back; Nagle would park
  // the latter two behind the unacknowledged RUN segment.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  auto round_trip = [&](const WireCommand& cmd) -> Result<std::string> {
    PRAGUE_RETURN_NOT_OK(SendFrame(fd, FrameType::kRequest, FormatCommand(cmd)));
    PRAGUE_ASSIGN_OR_RETURN(WireFrame frame, RecvFrame(fd));
    return std::move(frame.payload);
  };

  WireCommand open;
  open.kind = CommandKind::kOpen;
  Result<std::string> opened = round_trip(open);
  ASSERT_TRUE(opened.ok() && DecodeReplyStatus(*opened).ok());

  const VisualQuerySpec& spec = HeavyAidsQuery();
  const auto& labels = HeavyWireFixture::Get().db.labels();
  std::map<NodeId, uint32_t> handle_of;
  uint32_t next_handle = 1;
  for (EdgeId e : spec.sequence) {
    const Edge& edge = spec.graph.GetEdge(e);
    for (NodeId n : {edge.u, edge.v}) {
      if (!handle_of.count(n)) handle_of[n] = next_handle++;
    }
    WireCommand add;
    add.kind = CommandKind::kAddEdge;
    add.u = handle_of[edge.u];
    add.u_label = labels.Name(spec.graph.NodeLabel(edge.u));
    add.v = handle_of[edge.v];
    add.v_label = labels.Name(spec.graph.NodeLabel(edge.v));
    add.edge_label = edge.label;
    Result<std::string> step = round_trip(add);
    ASSERT_TRUE(step.ok() && DecodeReplyStatus(*step).ok());
  }

  // RUN without reading its reply, then STATS while the run is in flight,
  // then CANCEL to end the run. Replies are ordered per connection, so we
  // must see the STATS rejection first and the (truncated) RUN reply next.
  WireCommand run;
  run.kind = CommandKind::kRun;
  ASSERT_TRUE(SendFrame(fd, FrameType::kRequest, FormatCommand(run)).ok());
  // No sleep needed: the handler marks the run in flight before reading
  // the next frame, so a STATS queued right behind RUN is always rejected.
  WireCommand stats;
  stats.kind = CommandKind::kStats;
  ASSERT_TRUE(SendFrame(fd, FrameType::kRequest, FormatCommand(stats)).ok());
  WireCommand cancel;
  cancel.kind = CommandKind::kCancel;
  ASSERT_TRUE(SendFrame(fd, FrameType::kRequest, FormatCommand(cancel)).ok());

  Result<WireFrame> first = RecvFrame(fd);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Status rejection = DecodeReplyStatus(first->payload);
  ASSERT_FALSE(rejection.ok()) << first->payload;
  EXPECT_EQ(rejection.code(), Status::Code::kFailedPrecondition);

  Result<WireFrame> second = RecvFrame(fd);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  Result<RunReply> reply = ParseRunReply(second->payload);
  ASSERT_TRUE(reply.ok()) << second->payload;
  EXPECT_TRUE(reply->truncated);

  WireCommand close;
  close.kind = CommandKind::kClose;
  Result<std::string> bye = round_trip(close);
  EXPECT_TRUE(bye.ok() && DecodeReplyStatus(*bye).ok());
  ::close(fd);
}

// The ISSUE acceptance property: CANCEL of one specific pipelined RUN by
// request id lands mid-run — that run comes back truncated while the run
// pipelined behind it completes untouched.
TEST_F(HeavyServerFixture, CancelByIdTruncatesOnlyThatPipelinedRun) {
  PragueClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Open().ok());  // unbounded budget
  ASSERT_TRUE(FeedHeavy(&client).ok());

  Result<uint64_t> first = client.StartRun();
  Result<uint64_t> second = client.StartRun();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // Frames are ordered per connection, so by the time the CANCEL frame is
  // dispatched the first RUN is in flight (active or queued); the
  // unbounded heavy run takes orders of magnitude longer than this gap.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(client.CancelRun(*first).ok());

  Result<RunReply> r1 = client.WaitRun(*first);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(r1->truncated);
  EXPECT_NE(r1->deadline_phase, "none");

  // The run behind it re-arms the token and completes normally.
  Result<RunReply> r2 = client.WaitRun(*second);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_FALSE(r2->truncated);
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(HeavyServerFixture, DuplicateInFlightRequestIdIsProtocolError) {
  RawConn conn(server_->port());
  ASSERT_GE(conn.fd, 0);
  Result<std::string> opened = conn.RoundTrip("OPEN");
  ASSERT_TRUE(opened.ok() && DecodeReplyStatus(*opened).ok());

  const VisualQuerySpec& spec = HeavyAidsQuery();
  const auto& labels = HeavyWireFixture::Get().db.labels();
  std::map<NodeId, uint32_t> handle_of;
  uint32_t next_handle = 1;
  for (EdgeId e : spec.sequence) {
    const Edge& edge = spec.graph.GetEdge(e);
    for (NodeId n : {edge.u, edge.v}) {
      if (!handle_of.count(n)) handle_of[n] = next_handle++;
    }
    WireCommand add;
    add.kind = CommandKind::kAddEdge;
    add.u = handle_of[edge.u];
    add.u_label = labels.Name(spec.graph.NodeLabel(edge.u));
    add.v = handle_of[edge.v];
    add.v_label = labels.Name(spec.graph.NodeLabel(edge.v));
    add.edge_label = edge.label;
    Result<std::string> step = conn.RoundTrip(FormatCommand(add));
    ASSERT_TRUE(step.ok() && DecodeReplyStatus(*step).ok());
  }

  // Same id twice while the first is still running, then CANCEL it by id
  // to end the test quickly. The duplicate is rejected immediately with a
  // typed PROTOCOL_ERROR carrying the id; the real run replies after.
  ASSERT_TRUE(conn.SendPayload("#4 RUN").ok());
  ASSERT_TRUE(conn.SendPayload("#4 RUN").ok());
  ASSERT_TRUE(conn.SendPayload("CANCEL 4").ok());

  Result<std::string> rejection = conn.Recv();
  ASSERT_TRUE(rejection.ok()) << rejection.status().ToString();
  Result<std::pair<uint64_t, std::string_view>> rej_split =
      SplitFrameId(*rejection);
  ASSERT_TRUE(rej_split.ok());
  EXPECT_EQ(rej_split->first, 4u);
  EXPECT_EQ(DecodeReplyStatus(rej_split->second).code(),
            Status::Code::kProtocolError)
      << *rejection;

  Result<std::string> reply = conn.Recv();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  Result<std::pair<uint64_t, std::string_view>> run_split =
      SplitFrameId(*reply);
  ASSERT_TRUE(run_split.ok());
  EXPECT_EQ(run_split->first, 4u);
  Result<RunReply> run = ParseRunReply(run_split->second);
  ASSERT_TRUE(run.ok()) << *reply;
  EXPECT_TRUE(run->truncated);

  Result<std::string> bye = conn.RoundTrip("CLOSE");
  ASSERT_TRUE(bye.ok());
  EXPECT_TRUE(DecodeReplyStatus(*bye).ok());
}

TEST_F(HeavyServerFixture, BatchRunMembersHonorTheSessionBudget) {
  PragueClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Open(1).ok());  // 1 ms Run() budget per member

  // Render the heavy query in pattern syntax, in formulation order, with
  // each node labeled exactly once.
  const VisualQuerySpec& spec = HeavyAidsQuery();
  const auto& labels = HeavyWireFixture::Get().db.labels();
  std::set<NodeId> declared;
  auto node_ref = [&](NodeId n) {
    std::string out = "(n" + std::to_string(n);
    if (declared.insert(n).second) {
      out += ':';
      out += labels.Name(spec.graph.NodeLabel(n));
    }
    out += ')';
    return out;
  };
  std::string heavy_pattern;
  for (EdgeId e : spec.sequence) {
    const Edge& edge = spec.graph.GetEdge(e);
    if (!heavy_pattern.empty()) heavy_pattern += ", ";
    heavy_pattern += node_ref(edge.u);
    heavy_pattern += edge.label != 0
                         ? "-[" + std::to_string(edge.label) + "]-"
                         : "-";
    heavy_pattern += node_ref(edge.v);
  }

  std::vector<std::string> patterns = {heavy_pattern, "(a:NoSuchLabel)-(b:C)"};
  Result<BatchRunReply> reply = client.BatchRun(patterns);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->members.size(), 2u);
  ASSERT_TRUE(reply->members[0].ok())
      << reply->members[0].status().ToString();
  // The 1 ms session budget cuts the heavy member.
  EXPECT_TRUE(reply->members[0]->truncated);
  // The unknown label fails only its member, not the batch.
  EXPECT_FALSE(reply->members[1].ok());
  EXPECT_TRUE(client.Close().ok());
}

// ---------------------------------------------------------------------------
// Admission control & load shedding: wire grammar, the BUSY codec, and the
// quotas end to end over loopback.

TEST(WireCommandTest, OpenTenantParses) {
  Result<WireCommand> open = ParseCommand("OPEN tenant=alpha");
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_EQ(open->kind, CommandKind::kOpen);
  EXPECT_EQ(open->timeout_ms, -1);
  EXPECT_EQ(open->tenant, "alpha");

  Result<WireCommand> both = ParseCommand("OPEN 250 tenant=team-7");
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  EXPECT_EQ(both->timeout_ms, 250);
  EXPECT_EQ(both->tenant, "team-7");

  // Token order does not matter.
  Result<WireCommand> swapped = ParseCommand("OPEN tenant=team-7 250");
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(swapped->timeout_ms, 250);
  EXPECT_EQ(swapped->tenant, "team-7");

  // Format/parse inverse with both fields on.
  WireCommand cmd;
  cmd.kind = CommandKind::kOpen;
  cmd.timeout_ms = 30;
  cmd.tenant = "blue";
  Result<WireCommand> back = ParseCommand(FormatCommand(cmd));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->timeout_ms, 30);
  EXPECT_EQ(back->tenant, "blue");
}

TEST(WireCommandTest, OpenTenantTypedParseErrors) {
  for (const char* bad :
       {"OPEN tenant=", "OPEN tenant=a tenant=b", "OPEN 1 2",
        "OPEN 1 tenant=a 2", "OPEN -7 tenant=a"}) {
    Result<WireCommand> r = ParseCommand(bad);
    ASSERT_FALSE(r.ok()) << "accepted '" << bad << "'";
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument) << bad;
  }
}

TEST(WireReplyTest, BusyReplyDecodesToTypedStatus) {
  const std::string payload = FormatBusyReply(150);
  EXPECT_EQ(payload, "BUSY 150");
  Status shed = DecodeReplyStatus(payload);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(IsBusy(shed)) << shed.ToString();
  EXPECT_EQ(BusyRetryAfterMillis(shed), 150);

  // Id-tagged BUSY replies split like any other reply.
  const std::string tagged = "#9 " + FormatBusyReply(20);
  Result<std::pair<uint64_t, std::string_view>> split = SplitFrameId(tagged);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_EQ(split->first, 9u);
  EXPECT_TRUE(IsBusy(DecodeReplyStatus(split->second)));

  // A bare BUSY decodes Busy with no usable hint.
  Status bare = DecodeReplyStatus("BUSY");
  EXPECT_TRUE(IsBusy(bare));
  EXPECT_EQ(BusyRetryAfterMillis(bare), -1);
  EXPECT_FALSE(IsBusy(Status::OK()));
  EXPECT_EQ(BusyRetryAfterMillis(Status::Busy("no hint")), -1);
  // BUSY must be a whole token, not a prefix.
  EXPECT_EQ(DecodeReplyStatus("BUSYX").code(), Status::Code::kCorruption);
}

TEST(WireReplyTest, InternalAndBusyErrorTokensRoundTrip) {
  const Status internal = Status::Internal("invariant violated");
  const std::string internal_payload = EncodeErrorReply(internal);
  EXPECT_NE(internal_payload.find("INTERNAL"), std::string::npos);
  EXPECT_EQ(DecodeReplyStatus(internal_payload), internal);

  const Status busy = Status::Busy("bucket empty; retry_after_ms=40");
  const Status decoded = DecodeReplyStatus(EncodeErrorReply(busy));
  EXPECT_TRUE(IsBusy(decoded)) << decoded.ToString();
  EXPECT_EQ(BusyRetryAfterMillis(decoded), 40);
}

TEST(WireReplyTest, StatsReplyCarriesShedAndTenants) {
  SessionManagerStats stats;
  stats.current_version = 2;
  stats.runs_shed = 7;
  stats.tenants = 3;
  Result<StatsReply> reply = ParseStatsReply(FormatStatsReply(stats));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->runs_shed, 7u);
  EXPECT_EQ(reply->tenants, 3u);

  // A payload from a pre-admission server (no shed=/tenants= tokens)
  // still parses; the fields default to zero.
  std::string legacy = FormatStatsReply(stats);
  for (const std::string key : {" shed=7", " tenants=3"}) {
    const size_t at = legacy.find(key);
    ASSERT_NE(at, std::string::npos) << legacy;
    legacy.erase(at, key.size());
  }
  Result<StatsReply> old = ParseStatsReply(legacy);
  ASSERT_TRUE(old.ok()) << old.status().ToString();
  EXPECT_EQ(old->runs_shed, 0u);
  EXPECT_EQ(old->tenants, 0u);
}

// Server fixture with caller-chosen options (the stock ServerFixture runs
// with admission off, as production defaults do).
class AdmissionFixture : public ::testing::Test {
 protected:
  void StartServer(PragueServerOptions options) {
    manager_ = std::make_unique<SessionManager>(FreshTinySnapshot());
    options.port = 0;  // ephemeral
    if (options.worker_threads == 0) options.worker_threads = 4;
    server_ = std::make_unique<PragueServer>(manager_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override {
    if (server_) server_->Stop();
  }
  Status ConnectClient(PragueClient* client) {
    return client->Connect("127.0.0.1", server_->port());
  }

  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<PragueServer> server_;
};

TEST_F(AdmissionFixture, TenantRateLimitShedsRunsWithRetryAfter) {
  PragueServerOptions options;
  // Derived burst max(2 * rate, 4) = 4, then one token per 1000 seconds:
  // no refill can land inside the test.
  options.tenant_rate = 0.001;
  StartServer(options);

  PragueClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  ASSERT_TRUE(client.Open(-1, "hog").ok());
  ASSERT_TRUE(client.AddEdge(1, "C", 2, "S").ok());
  for (int i = 0; i < 4; ++i) {
    Result<RunReply> r = client.Run();
    ASSERT_TRUE(r.ok()) << i << ": " << r.status().ToString();
  }
  Result<RunReply> shed = client.Run();
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(IsBusy(shed.status())) << shed.status().ToString();
  EXPECT_GE(BusyRetryAfterMillis(shed.status()), 1);

  // Shedding is flow control, not an error: the connection and its session
  // survive, and STATS reports the shed and the tracked tenant.
  Result<StatsReply> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->runs_shed, 1u);
  EXPECT_GE(stats->tenants, 1u);
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(AdmissionFixture, SessionQuotaShedsSecondConnection) {
  PragueServerOptions options;
  options.max_sessions_per_tenant = 1;
  StartServer(options);

  PragueClient first;
  ASSERT_TRUE(ConnectClient(&first).ok());
  ASSERT_TRUE(first.Open(-1, "team").ok());

  PragueClient second;
  ASSERT_TRUE(ConnectClient(&second).ok());
  Result<OpenReply> refused = second.Open(-1, "team");
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(IsBusy(refused.status())) << refused.status().ToString();
  EXPECT_GE(BusyRetryAfterMillis(refused.status()), 1);

  // The shed connection is still usable: a different tenant fits.
  Result<OpenReply> other = second.Open(-1, "other");
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_TRUE(second.Close().ok());

  // Closing the first session frees the slot. The release happens on the
  // server's connection teardown, which the CLOSE reply slightly precedes,
  // so honor the BUSY contract and retry briefly.
  EXPECT_TRUE(first.Close().ok());
  PragueClient third;
  ASSERT_TRUE(ConnectClient(&third).ok());
  Result<OpenReply> reopened = third.Open(-1, "team");
  for (int attempt = 0; attempt < 200 && !reopened.ok(); ++attempt) {
    ASSERT_TRUE(IsBusy(reopened.status())) << reopened.status().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    reopened = third.Open(-1, "team");
  }
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(third.Close().ok());
}

TEST_F(AdmissionFixture, HostileTenantDoesNotStarveWellBehavedTenant) {
  PragueServerOptions options;
  options.tenant_rate = 0.001;  // burst of 4 per tenant
  StartServer(options);

  // The hostile tenant floods runs; only its burst is admitted.
  PragueClient hostile;
  ASSERT_TRUE(ConnectClient(&hostile).ok());
  ASSERT_TRUE(hostile.Open(-1, "flood").ok());
  ASSERT_TRUE(hostile.AddEdge(1, "C", 2, "S").ok());
  int admitted = 0;
  int shed = 0;
  for (int i = 0; i < 12; ++i) {
    Result<RunReply> r = hostile.Run();
    if (r.ok()) {
      ++admitted;
    } else {
      ASSERT_TRUE(IsBusy(r.status())) << r.status().ToString();
      ++shed;
    }
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(shed, 8);

  // The well-behaved tenant runs as if the flood never happened: its own
  // bucket, its own quota.
  PragueClient victim;
  ASSERT_TRUE(ConnectClient(&victim).ok());
  ASSERT_TRUE(victim.Open(-1, "victim").ok());
  ASSERT_TRUE(victim.AddEdge(1, "C", 2, "S").ok());
  for (int i = 0; i < 3; ++i) {
    Result<RunReply> r = victim.Run();
    EXPECT_TRUE(r.ok()) << i << ": " << r.status().ToString();
  }
  EXPECT_TRUE(hostile.Close().ok());
  EXPECT_TRUE(victim.Close().ok());
}

TEST_F(AdmissionFixture, AnonymousConnectionsGetTheirOwnTenants) {
  PragueServerOptions options;
  options.tenant_rate = 0.001;
  StartServer(options);

  PragueClient a;
  PragueClient b;
  ASSERT_TRUE(ConnectClient(&a).ok());
  ASSERT_TRUE(ConnectClient(&b).ok());
  ASSERT_TRUE(a.Open().ok());
  ASSERT_TRUE(b.Open().ok());
  ASSERT_TRUE(a.AddEdge(1, "C", 2, "S").ok());
  ASSERT_TRUE(b.AddEdge(1, "C", 2, "S").ok());

  // Draining a's bucket leaves b untouched: every unnamed connection is
  // its own tenant.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(a.Run().ok()) << i;
  Result<RunReply> shed = a.Run();
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(IsBusy(shed.status())) << shed.status().ToString();
  EXPECT_TRUE(b.Run().ok());
  EXPECT_TRUE(a.Close().ok());
  EXPECT_TRUE(b.Close().ok());
}

TEST_F(AdmissionFixture, PipelinedShedEchoesRequestId) {
  PragueServerOptions options;
  options.tenant_rate = 0.001;
  StartServer(options);

  PragueClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  ASSERT_TRUE(client.Open(-1, "pipeline").ok());
  ASSERT_TRUE(client.AddEdge(1, "C", 2, "S").ok());
  std::vector<uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    Result<uint64_t> id = client.StartRun();
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  // The first four fit the burst; the fifth is shed at enqueue, and its
  // BUSY reply carries that request id, so the demultiplexer pairs it
  // correctly while the admitted runs complete unharmed.
  for (int i = 0; i < 4; ++i) {
    Result<RunReply> r = client.WaitRun(ids[i]);
    EXPECT_TRUE(r.ok()) << i << ": " << r.status().ToString();
  }
  Result<RunReply> shed = client.WaitRun(ids[4]);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(IsBusy(shed.status())) << shed.status().ToString();
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(AdmissionFixture, AcceptShedsCleanlyOnFdExhaustion) {
  StartServer(PragueServerOptions{});
  PragueClient before;
  ASSERT_TRUE(ConnectClient(&before).ok());
  ASSERT_TRUE(before.Open().ok());

  obs::Counter* sheds = obs::ServerMetrics::Get().accepts_shed_total;
  const uint64_t sheds_before = sheds->Value();

  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old_limit), 0);
  rlimit tight = old_limit;
  tight.rlim_cur = std::min<rlim_t>(512, old_limit.rlim_max);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);

  // Hoard every free descriptor slot below the lowered limit...
  std::vector<int> hoard;
  for (;;) {
    int fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0) {
      ASSERT_EQ(errno, EMFILE);
      break;
    }
    hoard.push_back(fd);
  }
  ASSERT_FALSE(hoard.empty());
  // ...then free exactly one for the victim's client-side socket. The TCP
  // handshake completes in the kernel regardless, but the server-side
  // accept(2) has no descriptor left and hits EMFILE.
  ::close(hoard.back());
  hoard.pop_back();

  int victim = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(victim, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::connect(victim, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // The spare-descriptor path drains the pending connection and closes it
  // instead of busy-spinning the accept loop: the victim sees a clean EOF
  // (a timeout here would mean the connection was left parked in the
  // backlog forever).
  timeval timeout{10, 0};
  ::setsockopt(victim, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  char byte = 0;
  EXPECT_EQ(::recv(victim, &byte, 1, 0), 0);
  ::close(victim);

  for (int fd : hoard) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old_limit), 0);

  EXPECT_GT(sheds->Value(), sheds_before);
  // The crunch harmed nobody already connected...
  EXPECT_TRUE(before.Stats().ok());
  // ...and new connections are accepted again once descriptors return.
  PragueClient after;
  ASSERT_TRUE(ConnectClient(&after).ok());
  EXPECT_TRUE(after.Open().ok());
  EXPECT_TRUE(after.Close().ok());
  EXPECT_TRUE(before.Close().ok());
}

TEST_F(AdmissionFixture, SlowReaderOutboundQueueCapClosesConnection) {
  PragueServerOptions options;
  options.max_outbound_bytes = 64 * 1024;
  StartServer(options);

  obs::Counter* drops = obs::ServerMetrics::Get().write_queue_drops_total;
  const uint64_t drops_before = drops->Value();

  // Pin a tiny receive buffer: with autotuning the kernel would grow the
  // client's window to tens of megabytes and absorb the whole backlog.
  RawConn conn(server_->port(), /*rcvbuf=*/16 * 1024);
  ASSERT_GE(conn.fd, 0);
  timeval timeout{30, 0};
  ::setsockopt(conn.fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  Result<std::string> opened = conn.RoundTrip("OPEN");
  ASSERT_TRUE(opened.ok() && DecodeReplyStatus(*opened).ok());

  // Request far more reply bytes than the cap plus the server-side kernel
  // send buffer, without reading any of it. Each METRICS reply is the full
  // Prometheus exposition (kilobytes).
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(conn.SendPayload("METRICS").ok()) << i;
  }

  // Stay slow: do not read until the server has given up on us. The reply
  // volume exceeds the kernel's absorption many times over, so the
  // overflow is guaranteed once the server works through the requests.
  for (int i = 0; i < 1000 && drops->Value() == drops_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(drops->Value(), drops_before);

  // Drain: some OK replies that were in flight, then the typed error the
  // server queued when it gave up on us, then EOF.
  bool saw_typed_error = false;
  for (;;) {
    Result<WireFrame> frame = RecvFrame(conn.fd);
    if (!frame.ok()) {
      EXPECT_TRUE(IsConnectionClosed(frame.status()))
          << frame.status().ToString();
      break;
    }
    const Status status = DecodeReplyStatus(frame->payload);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), Status::Code::kFailedPrecondition)
          << frame->payload;
      saw_typed_error = true;
    }
  }
  EXPECT_TRUE(saw_typed_error);
  EXPECT_GT(drops->Value(), drops_before);
}

TEST_F(ServerFixture, HugeOpenTimeoutIsEffectivelyUnbounded) {
  PragueClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  Result<OpenReply> open = client.Open(std::numeric_limits<int64_t>::max());
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  ASSERT_TRUE(client.AddEdge(1, "C", 2, "S").ok());
  Result<RunReply> run = client.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // The budget saturates to the far future instead of wrapping negative
  // (which used to make every run "already expired", hence truncated).
  EXPECT_FALSE(run->truncated);
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerFixture, NegativeOpenTimeoutIsATypedWireError) {
  RawConn conn(server_->port());
  ASSERT_GE(conn.fd, 0);
  Result<std::string> reply = conn.RoundTrip("OPEN -5");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const Status status = DecodeReplyStatus(*reply);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  // The rejection did not open a session: a well-formed OPEN still works.
  Result<std::string> good = conn.RoundTrip("OPEN");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(DecodeReplyStatus(*good).ok());
}

}  // namespace
}  // namespace prague
