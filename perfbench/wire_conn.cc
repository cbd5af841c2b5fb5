#include "wire_conn.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace prague::perfbench {

Status WriteSpans(const std::string& path,
                  const std::vector<const SpanLog*>& logs) {
  std::FILE* out = std::fopen(path.c_str(), "a");
  if (out == nullptr) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(out,
                   "{\"span\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                   "\"source\": \"%s\", \"start_us\": %.3f, "
                   "\"end_us\": %.3f, \"conn\": %u, \"wire_id\": %llu}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name,
                   s.source, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns) / 1e3, s.conn,
                   static_cast<unsigned long long>(s.wire_id));
    }
  }
  if (std::fclose(out) != 0) {
    return Status::IOError("cannot write " + path);
  }
  return Status::OK();
}

Status WireConn::Connect(uint16_t port) {
  Disconnect();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status st = Status::IOError(std::string("connect: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  next_id_ = 0;
  return Status::OK();
}

void WireConn::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::string> WireConn::Call(WireCommand cmd) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  cmd.request_id = ++next_id_;
  PRAGUE_RETURN_NOT_OK(
      SendFrame(fd_, FrameType::kRequest, FormatCommand(cmd)));
  PRAGUE_ASSIGN_OR_RETURN(WireFrame frame, RecvFrame(fd_));
  if (frame.type != FrameType::kResponse) {
    return Status::Corruption("expected a response frame");
  }
  PRAGUE_ASSIGN_OR_RETURN(auto split, SplitFrameId(frame.payload));
  if (split.first != cmd.request_id) {
    return Status::ProtocolError("reply id " + std::to_string(split.first) +
                                 " for request " +
                                 std::to_string(cmd.request_id));
  }
  PRAGUE_RETURN_NOT_OK(DecodeReplyStatus(split.second));
  return std::string(split.second);
}

}  // namespace prague::perfbench
