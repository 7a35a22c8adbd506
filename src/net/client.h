#ifndef MMDB_NET_CLIENT_H_
#define MMDB_NET_CLIENT_H_

#include <string>

#include "core/query_service.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "util/result.h"

namespace mmdb::net {

/// Client-side knobs.
struct ClientOptions {
  /// Upper bound on one response frame.
  size_t max_frame_bytes = 16 * 1024 * 1024;
  /// Transparent reconnection on transient transport failure (connect
  /// refused, ECONNRESET, a server restart between requests): how many
  /// times `Connect` / an RPC will re-dial before giving up. 0 keeps
  /// the PR-5 behavior — one connection, fail fast. Each re-dial counts
  /// in `mmdb_net_client_reconnects_total`. Queries are read-only, so a
  /// reconnect-and-resend never double-applies anything.
  int connect_retries = 0;
  /// First re-dial delay; doubles per attempt and is jittered by ±25%
  /// (see `Client::SleepBackoff`).
  double retry_backoff_seconds = 0.02;
};

/// Out-slot for `Execute`: whether the answer covered the whole corpus,
/// plus the typed per-shard errors when it did not (the protocol v3
/// partial-result trailer a scatter-gather coordinator emits). A
/// single-store server always reports `complete == true`.
struct Completeness {
  bool complete = true;
  std::vector<WireShardError> shard_errors;
};

/// A blocking remote handle to a `QueryServer`: `Execute` takes the
/// *identical* `QueryRequest` struct the embedded `QueryService` takes
/// and returns the identical `QueryResult` — same ids, same order, same
/// stats — so call sites switch between linking the database in-process
/// and querying it over TCP by changing one object.
///
/// One `Client` is one connection and is NOT thread-safe (RPCs are
/// serialized on the socket); open one client per thread. Move-only.
/// Any transport error closes the connection (`connected()` turns
/// false); reconnect by constructing a new client.
class Client {
 public:
  Client() = default;
  Client(Client&&) noexcept = default;
  Client& operator=(Client&&) noexcept = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  static Result<Client> Connect(const std::string& host, int port,
                                ClientOptions options = {});

  bool connected() const { return socket_.valid(); }

  /// Runs one query remotely. `request.deadline` travels as remaining
  /// milliseconds and is enforced by the server exactly like an
  /// embedded deadline; `request.cancel` is local-only (closing the
  /// client cancels server-side via the disconnect watcher).
  ///
  /// `completeness` (optional) receives the v3 partial-result trailer:
  /// against a sharded coordinator a degraded answer comes back OK with
  /// `complete == false` and the failed shards itemized — never as a
  /// hung socket or a silently truncated id stream.
  Result<QueryResult> Execute(const QueryRequest& request,
                              Completeness* completeness = nullptr);

  /// Renders the server-side execution plan for `request` without
  /// running it — the same text `ExplainQuery` produces embedded.
  Result<std::string> Explain(const QueryRequest& request);

  /// The server's quantizer shape and collection size — enough for a
  /// remote caller to parse color expressions (`ParseQuery`) with the
  /// same bins the server scans.
  Result<ServerInfo> GetInfo();

  /// Round-trips a ping frame.
  Status Ping();

  /// Probes the server's serving state (protocol v3). Sharded servers
  /// also report per-shard circuit-breaker states.
  Result<HealthInfo> Health();

  void Close() { socket_.Close(); }

 private:
  /// Sends `payload` and reads the next frame into `response_buffer_`;
  /// drops the connection on transport failure.
  Result<Frame> RoundTrip(std::string_view payload);

  /// One Execute attempt on the current connection.
  Result<QueryResult> ExecuteOnce(const QueryRequest& request,
                                  Completeness* completeness);

  /// Re-dials the remembered endpoint (counted in
  /// `mmdb_net_client_reconnects_total`).
  Status Reconnect();

  /// Sleeps the jittered exponential-backoff delay before re-dial
  /// number `retry` (1-based).
  void SleepBackoff(int retry) const;

  Socket socket_;
  ClientOptions options_;
  std::string host_;
  int port_ = 0;
  std::string response_buffer_;
};

}  // namespace mmdb::net

#endif  // MMDB_NET_CLIENT_H_
