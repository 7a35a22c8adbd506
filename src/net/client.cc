#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.h"

namespace mmdb::net {

namespace {

/// Extra wait past the request's own deadline before the client gives up
/// on the socket locally: the server is expected to answer
/// DeadlineExceeded itself, and the grace covers a dead server.
constexpr double kDeadlineGraceSeconds = 2.0;

/// Re-dial backoff shape: the delay grows by this factor per attempt and
/// is jittered by ±this fraction, so a fleet of clients re-dialing a
/// restarted shard spreads out instead of stampeding.
constexpr double kRetryBackoffMultiplier = 2.0;
constexpr double kRetryJitterFraction = 0.25;

obs::Counter* ReconnectsTotal() {
  static obs::Counter* const counter = obs::Registry::Default().GetCounter(
      "mmdb_net_client_reconnects_total",
      "Re-dial attempts made by net::Client after a transient connect "
      "failure or a dropped connection (ECONNRESET, server restart).");
  return counter;
}

}  // namespace

Result<Client> Client::Connect(const std::string& host, int port,
                               ClientOptions options) {
  Client client;
  client.options_ = options;
  client.host_ = host;
  client.port_ = port;
  Result<Socket> socket = Socket::ConnectTcp(host, port);
  for (int retry = 1; !socket.ok() && retry <= options.connect_retries;
       ++retry) {
    client.SleepBackoff(retry);
    ReconnectsTotal()->Increment();
    socket = Socket::ConnectTcp(host, port);
  }
  MMDB_ASSIGN_OR_RETURN(client.socket_, std::move(socket));
  return client;
}

void Client::SleepBackoff(int retry) const {
  // The PR-4 storage retry idiom (storage/disk_manager.cc): exponential
  // growth per attempt, jittered so synchronized clients of a restarted
  // server spread out instead of re-dialing in lockstep.
  double delay = options_.retry_backoff_seconds;
  for (int i = 1; i < retry; ++i) delay *= kRetryBackoffMultiplier;
  thread_local std::mt19937_64 rng(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) ^
      0x6d6d64625f6e6574ULL);
  std::uniform_real_distribution<double> jitter(1.0 - kRetryJitterFraction,
                                                1.0 + kRetryJitterFraction);
  delay *= jitter(rng);
  if (delay > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }
}

Status Client::Reconnect() {
  Close();
  ReconnectsTotal()->Increment();
  MMDB_ASSIGN_OR_RETURN(socket_, Socket::ConnectTcp(host_, port_));
  return Status::OK();
}

Result<Frame> Client::RoundTrip(std::string_view payload) {
  if (!connected()) {
    // A previous RPC dropped the connection (or the caller closed it):
    // transparently re-dial when the options allow it, so long-lived
    // clients survive a server restart between requests.
    if (options_.connect_retries <= 0 || host_.empty()) {
      return Status::IoError("client is not connected");
    }
    Status redial = Reconnect();
    for (int retry = 1; !redial.ok() && retry <= options_.connect_retries;
         ++retry) {
      SleepBackoff(retry);
      redial = Reconnect();
    }
    MMDB_RETURN_IF_ERROR(redial);
  }
  Status sent = WriteFrame(socket_, payload);
  if (!sent.ok()) {
    Close();
    return sent;
  }
  Status read = ReadFrame(socket_, options_.max_frame_bytes,
                          &response_buffer_, nullptr);
  if (!read.ok()) {
    Close();
    return read;
  }
  Result<Frame> frame = ParseFrame(response_buffer_);
  if (!frame.ok()) Close();  // Peer is not speaking our protocol.
  return frame;
}

Result<QueryResult> Client::Execute(const QueryRequest& request,
                                    Completeness* completeness) {
  Result<QueryResult> result = ExecuteOnce(request, completeness);
  // Retry only transport-level failures — those drop the connection
  // (`connected()` turns false). A typed error frame from the server
  // leaves the stream intact and is the RPC's real answer, never
  // retried. Queries are read-only, so a resend is safe.
  for (int retry = 1;
       !result.ok() && !connected() && retry <= options_.connect_retries;
       ++retry) {
    SleepBackoff(retry);
    if (!Reconnect().ok()) continue;
    result = ExecuteOnce(request, completeness);
  }
  return result;
}

Result<QueryResult> Client::ExecuteOnce(const QueryRequest& request,
                                        Completeness* completeness) {
  if (completeness != nullptr) *completeness = Completeness{};
  if (!connected()) {
    return Status::IoError("client is not connected");
  }
  // Bound the local wait by the request deadline plus grace, so a dead
  // server cannot park the caller past the deadline it asked for.
  const bool timed = !request.deadline.IsInfinite();
  if (timed) {
    MMDB_RETURN_IF_ERROR(socket_.SetRecvTimeout(
        std::max(0.0, request.deadline.RemainingSeconds()) +
        kDeadlineGraceSeconds));
  }
  Status sent = WriteFrame(socket_, EncodeExecuteRequest(request));
  if (!sent.ok()) {
    Close();
    return sent;
  }
  QueryResult result;
  for (;;) {
    Status read = ReadFrame(socket_, options_.max_frame_bytes,
                            &response_buffer_, nullptr);
    if (!read.ok()) {
      Close();
      return read;
    }
    Result<Frame> frame = ParseFrame(response_buffer_);
    if (!frame.ok()) {
      Close();
      return frame.status();
    }
    switch (frame->type()) {
      case FrameType::kResultChunk:
        MMDB_RETURN_IF_ERROR(DecodeResultChunk(*frame, &result.ids));
        continue;
      case FrameType::kResultDone: {
        MMDB_ASSIGN_OR_RETURN(ResultDone done, DecodeResultDone(*frame));
        if (done.total_ids != result.ids.size()) {
          Close();
          return Status::Internal(
              "result stream truncated: trailer declares " +
              std::to_string(done.total_ids) + " ids, received " +
              std::to_string(result.ids.size()));
        }
        result.stats = done.stats;
        if (!done.matches.empty()) {
          if (done.matches.size() != result.ids.size()) {
            Close();
            return Status::Internal(
                "interval trailer carries " +
                std::to_string(done.matches.size()) + " entries for " +
                std::to_string(result.ids.size()) + " ids");
          }
          result.matches = std::move(done.matches);
          for (size_t i = 0; i < result.matches.size(); ++i) {
            result.matches[i].id = result.ids[i];
          }
        }
        if (completeness != nullptr) {
          completeness->complete = done.complete;
          completeness->shard_errors = std::move(done.shard_errors);
        }
        if (timed) MMDB_RETURN_IF_ERROR(socket_.SetRecvTimeout(0));
        return result;
      }
      case FrameType::kError: {
        Status error;
        MMDB_RETURN_IF_ERROR(DecodeError(*frame, &error));
        // The RPC failed but the stream is intact: the connection stays
        // usable for the next request.
        if (timed) MMDB_RETURN_IF_ERROR(socket_.SetRecvTimeout(0));
        return error;
      }
      default:
        Close();
        return Status::Internal("unexpected frame type " +
                                std::to_string(frame->raw_type) +
                                " inside a result stream");
    }
  }
}

Result<std::string> Client::Explain(const QueryRequest& request) {
  MMDB_ASSIGN_OR_RETURN(Frame frame,
                        RoundTrip(EncodeExplainRequest(request)));
  if (frame.type() == FrameType::kError) {
    Status error;
    MMDB_RETURN_IF_ERROR(DecodeError(frame, &error));
    return error;
  }
  if (frame.type() != FrameType::kExplainResponse) {
    Close();
    return Status::Internal("expected an explain response, got frame type " +
                            std::to_string(frame.raw_type));
  }
  return DecodeExplainResponse(frame);
}

Result<ServerInfo> Client::GetInfo() {
  MMDB_ASSIGN_OR_RETURN(Frame frame, RoundTrip(EncodeInfoRequest()));
  if (frame.type() == FrameType::kError) {
    Status error;
    MMDB_RETURN_IF_ERROR(DecodeError(frame, &error));
    return error;
  }
  if (frame.type() != FrameType::kInfoResponse) {
    Close();
    return Status::Internal("expected an info response, got frame type " +
                            std::to_string(frame.raw_type));
  }
  return DecodeInfoResponse(frame);
}

Status Client::Ping() {
  Result<Frame> frame = RoundTrip(EncodePing());
  if (!frame.ok()) return frame.status();
  if (frame->type() != FrameType::kPong) {
    Close();
    return Status::Internal("expected a pong, got frame type " +
                            std::to_string(frame->raw_type));
  }
  return Status::OK();
}

Result<HealthInfo> Client::Health() {
  MMDB_ASSIGN_OR_RETURN(Frame frame, RoundTrip(EncodeHealthRequest()));
  if (frame.type() == FrameType::kError) {
    Status error;
    MMDB_RETURN_IF_ERROR(DecodeError(frame, &error));
    return error;
  }
  if (frame.type() != FrameType::kHealthResponse) {
    Close();
    return Status::Internal("expected a health response, got frame type " +
                            std::to_string(frame.raw_type));
  }
  return DecodeHealthResponse(frame);
}

}  // namespace mmdb::net
