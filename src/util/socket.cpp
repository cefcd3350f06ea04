#include "util/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/error.hpp"
#include "util/inject.hpp"

namespace hlts::util::net {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno), ErrorKind::Transient);
}

void chaos_sleep(std::int64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// The net-family fault to inject into operation `op` of a connection that
/// opted into chaos, if any.
std::optional<inject::Injected> net_fault(bool chaos, inject::net::Site op) {
  if (!chaos || !inject::armed(inject::Family::Net)) return std::nullopt;
  return inject::consult(inject::Family::Net, op);
}

void set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) sys_fail("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, want) < 0) sys_fail("fcntl(F_SETFL)");
}

}  // namespace

void Fd::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::Listener(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket");
  fd_ = Fd(fd);
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    sys_fail("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, 128) != 0) sys_fail("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    sys_fail("getsockname");
  }
  port_ = static_cast<int>(ntohs(addr.sin_port));
}

Fd Listener::accept() {
  while (true) {
    const int fd = ::accept(fd_.get(), nullptr, nullptr);
    if (fd >= 0) return Fd(fd);
    if (errno == EINTR) continue;
    // EBADF/EINVAL after close_now() is the orderly-shutdown signal; any
    // other failure on a loopback listener is equally terminal for the
    // accept loop.
    return Fd();
  }
}

void Listener::close_now() { fd_.close(); }

void Listener::shutdown_now() { shutdown_fd(fd_.get()); }

Fd connect_local(int port, int timeout_ms, bool chaos) {
  if (const auto fault = net_fault(chaos, inject::net::kConnect)) {
    if (fault->mode == inject::Mode::Stall) {
      chaos_sleep(fault->param);
    } else {
      throw Error("connect 127.0.0.1:" + std::to_string(port) +
                      ": injected connection reset",
                  ErrorKind::Transient);
    }
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket");
  Fd out(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (timeout_ms <= 0) {
    while (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
           0) {
      if (errno == EINTR) continue;
      sys_fail("connect 127.0.0.1:" + std::to_string(port));
    }
    return out;
  }
  // Bounded connect: non-blocking + poll for writability, then read the
  // final status from SO_ERROR.
  set_nonblocking(fd, true);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS && errno != EINTR) {
      sys_fail("connect 127.0.0.1:" + std::to_string(port));
    }
    pollfd pfd{fd, POLLOUT, 0};
    while (true) {
      const int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc > 0) break;
      if (rc == 0) {
        throw Error("connect 127.0.0.1:" + std::to_string(port) +
                        ": timeout after " + std::to_string(timeout_ms) + "ms",
                    ErrorKind::Transient);
      }
      if (errno != EINTR) sys_fail("poll(connect)");
    }
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      sys_fail("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      throw Error("connect 127.0.0.1:" + std::to_string(port) + ": " +
                      std::strerror(err),
                  ErrorKind::Transient);
    }
  }
  set_nonblocking(fd, false);
  return out;
}

std::pair<Fd, Fd> socket_pair() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) sys_fail("socketpair");
  return {Fd(fds[0]), Fd(fds[1])};
}

void send_fd(int sock, int fd_to_send, char payload) {
  msghdr msg{};
  iovec iov{};
  iov.iov_base = &payload;
  iov.iov_len = 1;
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  msg.msg_control = control;
  msg.msg_controllen = sizeof control;
  cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
  cmsg->cmsg_level = SOL_SOCKET;
  cmsg->cmsg_type = SCM_RIGHTS;
  cmsg->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(cmsg), &fd_to_send, sizeof(int));
  while (::sendmsg(sock, &msg, MSG_NOSIGNAL) < 0) {
    if (errno != EINTR) sys_fail("sendmsg(SCM_RIGHTS)");
  }
}

std::optional<std::pair<Fd, char>> recv_fd(int sock) {
  msghdr msg{};
  char payload = 0;
  iovec iov{};
  iov.iov_base = &payload;
  iov.iov_len = 1;
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  msg.msg_control = control;
  msg.msg_controllen = sizeof control;
  ssize_t n;
  while ((n = ::recvmsg(sock, &msg, 0)) < 0) {
    if (errno != EINTR) sys_fail("recvmsg(SCM_RIGHTS)");
  }
  if (n == 0) return std::nullopt;  // peer closed: orderly EOF
  for (cmsghdr* cmsg = CMSG_FIRSTHDR(&msg); cmsg != nullptr;
       cmsg = CMSG_NXTHDR(&msg, cmsg)) {
    if (cmsg->cmsg_level == SOL_SOCKET && cmsg->cmsg_type == SCM_RIGHTS &&
        cmsg->cmsg_len == CMSG_LEN(sizeof(int))) {
      int fd = -1;
      std::memcpy(&fd, CMSG_DATA(cmsg), sizeof(int));
      return std::make_pair(Fd(fd), payload);
    }
  }
  throw Error("recvmsg: message carried no descriptor", ErrorKind::Transient);
}

void set_send_timeout_ms(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv) != 0) {
    sys_fail("setsockopt(SO_SNDTIMEO)");
  }
}

void write_all(int fd, const std::string& data, bool chaos) {
  std::size_t limit = data.size();
  bool injected_truncate = false;
  if (const auto fault = net_fault(chaos, inject::net::kWrite)) {
    if (fault->mode == inject::Mode::Stall) {
      chaos_sleep(fault->param);
    } else if (fault->mode == inject::Mode::Reset) {
      throw Error("write: injected connection reset", ErrorKind::Transient);
    } else {  // truncate
      limit = std::min(limit, static_cast<std::size_t>(fault->param));
      injected_truncate = true;
    }
  }
  std::size_t off = 0;
  while (off < limit) {
#ifdef MSG_NOSIGNAL
    const ssize_t n =
        ::send(fd, data.data() + off, limit - off, MSG_NOSIGNAL);
#else
    const ssize_t n = ::write(fd, data.data() + off, limit - off);
#endif
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      throw Error("write: send timeout", ErrorKind::Transient);
    }
    sys_fail("write");
  }
  if (injected_truncate) {
    // The peer got a torn frame; tell it so (and the caller too).
    (void)::shutdown(fd, SHUT_WR);
    throw Error("write: injected truncation after " + std::to_string(limit) +
                    " bytes",
                ErrorKind::Transient);
  }
}

void shutdown_fd(int fd) {
  if (fd >= 0) (void)::shutdown(fd, SHUT_RDWR);
}

std::optional<std::string> LineReader::read_line() {
  while (true) {
    // Scan only bytes not examined before (scanned_ is monotone).
    const std::size_t nl = buffer_.find('\n', scanned_);
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      scanned_ = 0;
      return line;
    }
    scanned_ = buffer_.size();
    if (buffer_.size() > max_line_) {
      throw Error("wire: request line exceeds " + std::to_string(max_line_) +
                      " bytes",
                  ErrorKind::Input);
    }
    // An injected truncation earlier delivered a partial frame; the rest
    // of the stream is gone, like a peer that died mid-send.
    if (chaos_eof_) return std::nullopt;
    std::size_t keep = 4096;
    if (const auto fault = net_fault(chaos_, inject::net::kRead)) {
      if (fault->mode == inject::Mode::Stall) {
        chaos_sleep(fault->param);
      } else if (fault->mode == inject::Mode::Reset) {
        return std::nullopt;  // the peer "reset" us mid-stream
      } else {  // truncate
        keep = static_cast<std::size_t>(fault->param);
        chaos_eof_ = true;
      }
    }
    if (read_timeout_ms_ > 0) {
      pollfd pfd{fd_, POLLIN, 0};
      while (true) {
        const int rc = ::poll(&pfd, 1, read_timeout_ms_);
        if (rc > 0) break;
        if (rc == 0) {
          throw Error("read: timeout after " +
                          std::to_string(read_timeout_ms_) + "ms",
                      ErrorKind::Transient);
        }
        if (errno != EINTR) sys_fail("poll(read)");
      }
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n > 0) {
      buffer_.append(chunk, std::min(static_cast<std::size_t>(n), keep));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      throw Error("read: timeout", ErrorKind::Transient);
    }
    // EOF or reset: a half-line at EOF is discarded (torn trailing write).
    return std::nullopt;
  }
}

}  // namespace hlts::util::net
