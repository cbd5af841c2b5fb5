// The benchmark's wire client and span log.
//
// WireConn is a lock-step connection that tags every request with a fresh
// `#<id>` (server/wire.h allows the prefix on any request), so each
// request of a traced run can be named by (connection, wire id) in the
// span file. It uses only the public frame and command codec; the
// benchmark times each call itself.
//
// SpanLog keeps one thread's spans in memory; WriteSpans writes all logs
// as JSON lines when the benchmark ends.

#ifndef PRAGUE_PERFBENCH_WIRE_CONN_H_
#define PRAGUE_PERFBENCH_WIRE_CONN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "server/wire.h"
#include "util/result.h"
#include "util/status.h"

namespace prague::perfbench {

/// \brief One timed interval: a client request, a session, or a layer call
/// of the in-process replay.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  const char* name = "";
  const char* source = "client";  ///< "client" or "replay"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t conn = 0;     ///< connection number (0 = none)
  uint64_t wire_id = 0;  ///< request's `#id` on that connection (0 = none)
};

/// \brief One thread's spans. Not thread-safe: each thread owns its log.
/// Keeps the first kMaxSpans spans (the earliest sessions, which are also
/// the ones replayed) so a trace file stays tens of megabytes.
class SpanLog {
 public:
  static constexpr size_t kMaxSpans = 40000;

  /// Ids are unique across logs built with distinct \p thread numbers.
  explicit SpanLog(uint32_t thread) : next_id_(uint64_t{thread} << 40) {}

  uint64_t NewId() { return ++next_id_; }
  void Record(const Span& span) {
    if (spans_.size() < kMaxSpans) spans_.push_back(span);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// \brief Appends every span of \p logs to \p path, one JSON object per
/// line, times in microseconds.
Status WriteSpans(const std::string& path,
                  const std::vector<const SpanLog*>& logs);

/// \brief Lock-step loopback connection with a request id on every frame.
class WireConn {
 public:
  WireConn() = default;
  ~WireConn() { Disconnect(); }
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  /// \brief Connects to 127.0.0.1:\p port with TCP_NODELAY.
  Status Connect(uint16_t port);
  void Disconnect();

  /// \brief Sends \p cmd tagged with the next request id and waits for its
  /// reply. Returns the reply payload without its id; ERR and BUSY
  /// replies come back as their decoded Status.
  Result<std::string> Call(WireCommand cmd);

  /// \brief The id the last Call() carried.
  uint64_t last_id() const { return next_id_; }

 private:
  int fd_ = -1;
  uint64_t next_id_ = 0;
};

}  // namespace prague::perfbench

#endif  // PRAGUE_PERFBENCH_WIRE_CONN_H_
