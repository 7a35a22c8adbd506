#include "net/socket.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "util/wire.h"

namespace mmdb::net {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Resolves host:port to IPv4/IPv6 socket addresses.
Result<int> OpenAndDo(const std::string& host, int port, bool listen_mode,
                      int backlog) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (listen_mode) hints.ai_flags = AI_PASSIVE;
  addrinfo* found = nullptr;
  const std::string port_text = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               port_text.c_str(), &hints, &found);
  if (rc != 0) {
    return Status::IoError("getaddrinfo(" + host + "): " +
                           ::gai_strerror(rc));
  }
  Status last = Status::IoError("no addresses resolved for " + host);
  int fd = -1;
  for (addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::IoError(Errno("socket"));
      continue;
    }
    if (listen_mode) {
      int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
          ::listen(fd, backlog) == 0) {
        break;
      }
      last = Status::IoError(Errno("bind/listen"));
    } else {
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
      last = Status::IoError(Errno("connect to " + host + ":" + port_text));
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(found);
  if (fd < 0) return last;
  return fd;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<Socket> Socket::ConnectTcp(const std::string& host, int port) {
  MMDB_ASSIGN_OR_RETURN(int fd, OpenAndDo(host, port, false, 0));
  // RPCs are small request/response exchanges; Nagle only adds latency.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

Status Socket::SendAll(const void* data, size_t n) {
  if (!valid()) return Status::IoError("send on closed socket");
  const char* p = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a peer that went away must surface as EPIPE, not
    // kill the process with SIGPIPE.
    const ssize_t rc = ::send(fd_, p + sent, n - sent, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(Errno("send"));
    }
    sent += static_cast<size_t>(rc);
  }
  return Status::OK();
}

Status Socket::RecvAll(void* data, size_t n, bool* clean_close) {
  if (clean_close != nullptr) *clean_close = false;
  if (!valid()) return Status::IoError("recv on closed socket");
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::recv(fd_, p + got, n - got, 0);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("receive timed out");
      }
      return Status::IoError(Errno("recv"));
    }
    if (rc == 0) {
      if (got == 0 && clean_close != nullptr) {
        *clean_close = true;
        return Status::OK();
      }
      return Status::IoError("connection closed mid-message");
    }
    got += static_cast<size_t>(rc);
  }
  return Status::OK();
}

Status Socket::SetRecvTimeout(double seconds) {
  if (!valid()) return Status::IoError("setsockopt on closed socket");
  timeval tv{};
  if (seconds > 0) {
    tv.tv_sec = static_cast<time_t>(seconds);
    long usec =
        std::lround((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    // lround can land exactly on one second (e.g. 6.9999999 rounds to
    // 1000000 µs), which SO_RCVTIMEO rejects with EDOM — carry it.
    if (usec >= 1000000) {
      tv.tv_sec += 1;
      usec = 0;
    }
    tv.tv_usec = static_cast<suseconds_t>(usec);
  }
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Status::IoError(Errno("setsockopt(SO_RCVTIMEO)"));
  }
  return Status::OK();
}

void Socket::ShutdownBoth() {
  if (valid()) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

ListenSocket::ListenSocket(ListenSocket&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

ListenSocket& ListenSocket::operator=(ListenSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

Result<ListenSocket> ListenSocket::Listen(const std::string& host, int port,
                                          int backlog) {
  MMDB_ASSIGN_OR_RETURN(int fd, OpenAndDo(host, port, true, backlog));
  ListenSocket listener;
  listener.fd_ = fd;
  // Recover the kernel-chosen port for the ephemeral (port 0) case.
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    if (addr.ss_family == AF_INET) {
      listener.port_ =
          ntohs(reinterpret_cast<sockaddr_in*>(&addr)->sin_port);
    } else if (addr.ss_family == AF_INET6) {
      listener.port_ =
          ntohs(reinterpret_cast<sockaddr_in6*>(&addr)->sin6_port);
    }
  }
  if (listener.port_ == 0) listener.port_ = port;
  return listener;
}

Result<Socket> ListenSocket::AcceptWithTimeout(double timeout_seconds,
                                               bool* timed_out) {
  *timed_out = false;
  if (!valid()) return Status::IoError("accept on closed listener");
  pollfd pfd{fd_, POLLIN, 0};
  const int rc =
      ::poll(&pfd, 1, static_cast<int>(std::lround(timeout_seconds * 1e3)));
  if (rc < 0) {
    if (errno == EINTR) {
      *timed_out = true;
      return Status::IoError("accept interrupted");
    }
    return Status::IoError(Errno("poll(listen)"));
  }
  if (rc == 0) {
    *timed_out = true;
    return Status::IoError("accept timed out");
  }
  const int conn = ::accept(fd_, nullptr, nullptr);
  if (conn < 0) {
    if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
        errno == EWOULDBLOCK) {
      *timed_out = true;
      return Status::IoError("accept raced a dropped connection");
    }
    return Status::IoError(Errno("accept"));
  }
  int one = 1;
  ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(conn);
}

void ListenSocket::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

static_assert(kLengthPrefixBytes == sizeof(uint32_t),
              "the frame length prefix is one u32");

Status WriteFrame(Socket& socket, std::string_view payload) {
  WireWriter prefix;
  prefix.PutU32(static_cast<uint32_t>(payload.size()));
  MMDB_RETURN_IF_ERROR(
      socket.SendAll(prefix.data().data(), prefix.data().size()));
  return socket.SendAll(payload.data(), payload.size());
}

Status ReadFrame(Socket& socket, size_t max_frame_bytes,
                 std::string* payload, bool* closed) {
  if (closed != nullptr) *closed = false;
  char prefix[kLengthPrefixBytes];
  MMDB_RETURN_IF_ERROR(socket.RecvAll(prefix, sizeof(prefix), closed));
  if (closed != nullptr && *closed) return Status::OK();
  uint32_t length = 0;
  WireReader(std::string_view(prefix, sizeof(prefix))).GetU32(&length);
  if (length == 0) {
    return Status::InvalidArgument("zero-length frame");
  }
  if (length > max_frame_bytes) {
    return Status::InvalidArgument(
        "frame of " + std::to_string(length) +
        " bytes exceeds the limit of " + std::to_string(max_frame_bytes));
  }
  payload->resize(length);
  return socket.RecvAll(payload->data(), length, nullptr);
}

}  // namespace mmdb::net
