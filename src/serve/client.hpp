// Blocking NDJSON client for hlts_serve (used by hlts_load and the serve
// test suite).
//
// One Client owns one TCP connection.  submit() is synchronous; for load
// generation the split send_submit()/read_response() pair pipelines many
// requests on one connection (responses arrive in completion order --
// correlate by FlowResultV1::name, so give every request a unique name).
//
// ClientOptions adds the robustness surface: connect/read/write timeouts
// (a stalled peer becomes Error(Transient) instead of a forever-block) and
// the chaos flag routing this connection through util/inject's net
// family.  On top of Client sits RetryClient, the idempotent wrapper: it
// stamps every request with a flow_token, and on a transport failure
// (timeout, reset, torn frame, refused connect) reconnects with bounded
// exponential backoff and resubmits the *same* token -- the supervisor
// deduplicates by token, so the retried request is answered exactly once,
// with the original bit-identical result even if the first attempt
// actually executed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "api/api.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace hlts::serve {

struct ClientOptions {
  int connect_timeout_ms = 10000;  ///< 0 = block indefinitely
  /// 0 = wait forever: synthesis jobs legitimately run long, so only
  /// latency-bounded callers (load generators, health probes) set this.
  int read_timeout_ms = 0;
  int write_timeout_ms = 10000;    ///< 0 = block indefinitely
  int retries = 0;          ///< extra attempts by RetryClient
  int backoff_ms = 50;      ///< first retry backoff; doubles per attempt
  int backoff_cap_ms = 2000;
  bool chaos = false;       ///< route through util/inject's net family
  /// Treat an explicit "rejected" result as retryable too (chaos-grid
  /// mode: a journal refusal under injected disk faults is transient).
  bool retry_rejected = false;

  /// Applies HLTS_CLIENT_CONNECT_TIMEOUT_MS / HLTS_CLIENT_READ_TIMEOUT_MS /
  /// HLTS_CLIENT_WRITE_TIMEOUT_MS / HLTS_CLIENT_RETRIES on top of `base`
  /// (malformed values throw Error(Input) via the knob registry).
  [[nodiscard]] static ClientOptions from_env(ClientOptions base);
};

class Client {
 public:
  /// Connects to 127.0.0.1:`port`; throws Error(Transient) on refusal or
  /// connect timeout.
  explicit Client(int port, std::size_t max_line_bytes = 16u << 20,
                  const ClientOptions& options = ClientOptions{});

  struct Response {
    bool ok = false;
    std::string error;                        ///< when !ok
    std::optional<api::FlowResultV1> result;  ///< submit responses
    std::optional<util::JsonValue> health;    ///< health responses
  };

  /// Fire-and-forget half of a pipelined submit.
  void send_submit(const api::FlowRequestV1& request);
  /// Next response line; nullopt on connection close.  Throws
  /// Error(Transient) on read timeout.
  [[nodiscard]] std::optional<Response> read_response();

  /// Synchronous submit (send + one response).
  [[nodiscard]] Response submit(const api::FlowRequestV1& request);
  /// Cluster health snapshot.
  [[nodiscard]] Response health();
  /// Asks the supervisor to SIGKILL shard `shard` (test/chaos hook).
  [[nodiscard]] bool kill_shard(int shard);
  /// Orderly cluster shutdown; true when the server acknowledged.
  bool shutdown();

 private:
  bool chaos_ = false;
  util::net::Fd fd_;
  util::net::LineReader reader_;
};

/// Idempotent retrying front end over Client (see file comment).  Lazily
/// (re)connects; one RetryClient is one logical client identity, not one
/// connection.
class RetryClient {
 public:
  explicit RetryClient(int port, ClientOptions options = ClientOptions{},
                       std::size_t max_line_bytes = 16u << 20);

  /// Synchronous submit with transport-level retry.  If `request` has no
  /// flow_token one is generated (unique within this process); retries
  /// reuse it, so the server answers this logical request exactly once.
  /// After the retry budget is exhausted the last failure is returned as
  /// an error Response (never thrown).
  [[nodiscard]] Client::Response submit(api::FlowRequestV1 request);

  /// Transport failures that forced a reconnect, across all submits.
  [[nodiscard]] std::int64_t reconnects() const { return reconnects_; }

 private:
  int port_;
  ClientOptions options_;
  std::size_t max_line_bytes_;
  std::optional<Client> client_;
  std::int64_t reconnects_ = 0;
};

}  // namespace hlts::serve
