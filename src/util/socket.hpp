// Thin POSIX TCP/socketpair wrappers for the serving layer (src/serve).
//
// Deliberately minimal and dependency-free: blocking file descriptors, RAII
// ownership, EINTR-restarting read/write loops, and a size-capped line
// reader -- everything the line-protocol server needs and nothing more.
// Failures report as hlts::Error(ErrorKind::Transient): network and peer
// hiccups are environmental, and the caller owns the retry policy.
//
// The same Fd/line primitives serve both transports: TCP sockets between
// clients and the hlts_serve supervisor, and AF_UNIX socketpairs between
// the supervisor and its forked shard workers.
//
// Two opt-in extensions added for the chaos harness:
//   - timeouts: connect_local takes a timeout, LineReader takes a read
//     timeout and write_all honors a send timeout set via
//     set_send_timeout_ms -- a stalled peer becomes a Transient error
//     instead of a forever-block;
//   - chaos: connect_local/write_all take a `chaos` flag and LineReader
//     has enable_chaos(); enabled paths consult util/inject's net family
//     (HLTS_NET_FAULTS) and can see injected resets, truncations and
//     stalls.  Chaos is strictly per call site: the supervisor<->worker
//     socketpairs in the same process never opt in, so arming the shim in
//     a test process only perturbs the client connections under test.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>

namespace hlts::util::net {

/// Owning file descriptor.  Movable, closes on destruction; -1 = empty.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { close(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  /// Releases ownership (caller closes).
  [[nodiscard]] int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void close();

 private:
  int fd_ = -1;
};

/// Listening IPv4 TCP socket bound to 127.0.0.1:`port` (0 = kernel-chosen
/// ephemeral port; `port()` reports the actual one).  SO_REUSEADDR is set so
/// test servers can rebind promptly.
class Listener {
 public:
  explicit Listener(int port);

  [[nodiscard]] int port() const { return port_; }
  /// Blocks for one connection; empty Fd when the listener was shut down
  /// (close_now from another thread) rather than on transient errors.
  [[nodiscard]] Fd accept();
  /// Closes the fd outright.  Only safe when no thread is blocked in
  /// accept() (e.g. a forked child dropping its inherited copy) -- close()
  /// does NOT wake a blocked accept() on Linux, and the fd number could be
  /// reused under the accepting thread.
  void close_now();
  /// ::shutdown()s the listening socket, waking a blocked accept() in
  /// another thread (it returns an empty Fd).  The fd itself stays open
  /// until destruction, so there is no fd-reuse race.  NOT for forked
  /// children: shutdown() acts on the shared socket object and would kill
  /// the parent's listener too.
  void shutdown_now();

 private:
  Fd fd_;
  int port_ = 0;
};

/// Connect to 127.0.0.1:`port`; throws Error(Transient) on refusal.
/// `timeout_ms` > 0 bounds the connect (non-blocking + poll; expiry throws
/// Error(Transient) mentioning "timeout"); 0 blocks indefinitely.  With
/// `chaos`, consults util/inject's net family: an injected connect reset
/// throws, a stall sleeps first.
[[nodiscard]] Fd connect_local(int port, int timeout_ms = 0,
                               bool chaos = false);

/// AF_UNIX stream socketpair (supervisor <-> forked worker transport).
[[nodiscard]] std::pair<Fd, Fd> socket_pair();

/// Sends one byte of `payload` plus the file descriptor `fd_to_send` over
/// an AF_UNIX socket (SCM_RIGHTS ancillary data).  The spawner/zygote
/// transport: a single-threaded child forks new shard workers and hands
/// the supervisor end of each worker socketpair back to the multithreaded
/// parent, which could not fork safely itself.  Throws Error(Transient)
/// when the peer is gone.
void send_fd(int sock, int fd_to_send, char payload);

/// Receives one byte + one descriptor sent by send_fd.  Returns nullopt on
/// orderly EOF; throws Error(Transient) on a malformed message (no
/// descriptor attached) or a socket error.
[[nodiscard]] std::optional<std::pair<Fd, char>> recv_fd(int sock);

/// Writes all of `data`, restarting on EINTR; throws Error(Transient) when
/// the peer is gone or a send timeout (set_send_timeout_ms) expires.
/// SIGPIPE is suppressed (MSG_NOSIGNAL / signal mask).  With `chaos`, an
/// injected write reset throws, a truncation sends a prefix and then
/// throws (the peer sees a torn frame), a stall sleeps first.
void write_all(int fd, const std::string& data, bool chaos = false);

/// Kernel-level send timeout (SO_SNDTIMEO); 0 disables.  An expired send
/// surfaces from write_all as Error(Transient) mentioning "timeout".
void set_send_timeout_ms(int fd, int timeout_ms);

/// ::shutdown(fd, SHUT_RDWR) -- unblocks a reader in another thread without
/// racing fd reuse the way close() would.  Safe on an already-shut-down fd.
void shutdown_fd(int fd);

/// Buffered, size-capped line reader: framing for the NDJSON wire protocol.
/// One LineReader per fd; lines are returned without the trailing '\n'.
class LineReader {
 public:
  explicit LineReader(int fd, std::size_t max_line_bytes)
      : fd_(fd), max_line_(max_line_bytes) {}

  /// A read blocked longer than this throws Error(Transient) mentioning
  /// "timeout"; 0 (default) waits forever.  Buffered complete lines are
  /// still returned without touching the socket.
  void set_read_timeout_ms(int timeout_ms) { read_timeout_ms_ = timeout_ms; }

  /// Routes reads through util/inject's net family (HLTS_NET_FAULTS):
  /// injected resets end the stream, truncations deliver a partial frame
  /// and then EOF, stalls sleep (slow-loris when probabilistic).
  void enable_chaos() { chaos_ = true; }

  /// Next line, or nullopt on orderly EOF / peer reset.  A line longer than
  /// the cap throws Error(Input) -- the serving layer's document-size guard:
  /// oversized requests are refused before any JSON parsing.
  [[nodiscard]] std::optional<std::string> read_line();

 private:
  int fd_;
  std::size_t max_line_;
  std::string buffer_;
  std::size_t scanned_ = 0;  ///< prefix of buffer_ known to hold no '\n'
  int read_timeout_ms_ = 0;
  bool chaos_ = false;
  bool chaos_eof_ = false;  ///< an injected truncation ended the stream
};

}  // namespace hlts::util::net
