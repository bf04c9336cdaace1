// Fault-tolerant network ingest front (DESIGN.md §18): a non-blocking,
// poll-based server accepting thousands of concurrent device connections
// speaking the STNI wire protocol (net/frame.h) and feeding their fixes
// into the fleet engine — the paper's setting (fleets of moving objects
// continuously transmitting position fixes) finally arriving over a real
// link instead of in-process calls.
//
// Engineering for partial failure is the headline; the design decisions:
//
//   Sessions.  One poll loop thread owns every connection. Each session
//   is a small state machine (await-hello → streaming → closing) with a
//   handshake deadline, an idle deadline (no bytes within
//   idle_timeout_s ⇒ GOAWAY(idle_timeout) + close — the slow-loris fix
//   from the admin server, generalized), and bounded inbound/outbound
//   buffers.
//
//   Backpressure and shedding.  A per-session buffer budget (4 MiB) and
//   a global budget across sessions (64 MiB) bound memory; exceeding
//   either sheds the session — a typed GOAWAY(overloaded) frame, counted in
//   stcomp_net_sessions_shed_total, never a silent drop. Accepts beyond
//   max_sessions shed-newest the same way. Push backpressure from the
//   fleet engine (a full shard queue) blocks the poll thread, which
//   stops reading, which fills TCP windows, which slows the devices:
//   end-to-end backpressure with no unbounded queue anywhere.
//
//   Protocol-error quarantine.  A malformed frame (bad magic, CRC
//   mismatch, a payload over kNetMaxPayloadBytes, truncation) or an
//   out-of-state frame yields a typed kError frame and a close — never a
//   crash, never a resync.
//   Counted and flight-recorded per NetErrorCode.
//
//   Acked batches, exactly-once.  Batches apply only at seq ==
//   last_acked + 1, gated against the per-client high-water mark (not a
//   per-session snapshot); duplicates (a client resending after a lost
//   ack) are re-acked without applying, gaps are protocol errors. A
//   kHello fences any still-open session with the same client id
//   (GOAWAY(superseded) + close) so a zombie connection can never race
//   its replacement's seq space. The high-water mark survives the
//   session, so a device that reconnects resumes from its kHelloAck
//   without losing or duplicating a single acked fix.
//
//   Graceful drain.  Stop() processes every complete frame already
//   buffered, acks what it applied, sends GOAWAY(draining) to every
//   session, flushes within one second, then closes. Nothing acked
//   is ever dropped on the floor.
//
// Observability: stcomp_net_* counters/gauges under {server=<instance>},
// kNetAccept/kNetShed/kNetProtocolError/kNetDrain flight events, and
// RenderIngestzJson() for the admin server's /ingestz endpoint.
//
// Binds 127.0.0.1 ONLY (no auth on this surface; see socket_util.h).

#ifndef STCOMP_NET_INGEST_SERVER_H_
#define STCOMP_NET_INGEST_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "stcomp/common/status.h"
#include "stcomp/core/trajectory.h"
#include "stcomp/net/frame.h"
#include "stcomp/obs/metrics.h"

namespace stcomp::net {

struct IngestServerOptions {
  // Accepts beyond this many live sessions are shed (GOAWAY + close).
  size_t max_sessions = 4096;
  // A session that sends no bytes for this long is closed
  // (GOAWAY(idle_timeout)); devices are expected to stream continuously.
  double idle_timeout_s = 30.0;
  // The kHello must arrive this fast after accept.
  double handshake_timeout_s = 5.0;
  // Metric-instance label; empty picks a unique "ingest-<n>".
  std::string instance;
};

class IngestServer {
 public:
  // Receives every applied fix, in per-client batch order. Typically
  // ShardedFleetCompressor::Push (or FleetCompressor::Push wrapped in a
  // lambda); may block (that is the backpressure path). A non-OK return
  // fails the whole batch: the batch is not acked, the session gets a
  // typed kError(kInternal) and is closed, and the client's resend after
  // reconnect retries it — so a transiently failing sink never loses
  // acked fixes and never double-applies (the sink must tolerate replay
  // of the *unacked* tail, which per-object monotonicity checks do).
  using PushFn =
      std::function<Status(std::string_view object_id, const TimedPoint& fix)>;

  explicit IngestServer(PushFn push, IngestServerOptions options = {});
  ~IngestServer();
  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  // Binds 127.0.0.1:`port` (0 = ephemeral, read back via port()) and
  // starts the poll thread. kUnavailable on bind failure,
  // kFailedPrecondition if already running.
  Status Start(uint16_t port);

  // The bound port; 0 before Start() succeeds.
  uint16_t port() const { return port_; }

  // Graceful drain (see header comment), then joins the poll thread.
  // Idempotent; also run by the destructor.
  void Stop();

  // Lifetime counters (registry-backed; stable across Stop/Start).
  uint64_t sessions_accepted() const { return accepted_->value(); }
  uint64_t sessions_shed() const { return shed_->value(); }
  uint64_t protocol_errors() const { return protocol_errors_->value(); }
  uint64_t batches_acked() const { return batches_acked_->value(); }
  uint64_t duplicate_batches() const { return duplicate_batches_->value(); }
  uint64_t fixes_in() const { return fixes_in_->value(); }
  uint64_t idle_timeouts() const { return idle_timeouts_->value(); }
  size_t active_sessions() const;

  const std::string& instance() const { return instance_; }

  // {"server":{...counters...},"sessions":[{...}, ...]} — what the admin
  // server's /ingestz endpoint serves. Thread-safe.
  std::string RenderIngestzJson() const;

 private:
  struct Session {
    int fd = -1;
    uint64_t id = 0;
    bool hello_done = false;
    bool closing = false;  // error/GOAWAY queued; close once flushed
    std::string client_id;             // set at hello (under mu_)
    std::unique_ptr<FrameReader> reader;
    std::string outbound;              // poll thread only
    std::atomic<uint64_t> fixes{0};
    std::atomic<uint64_t> batches_acked{0};
    std::atomic<uint64_t> last_acked{0};  // /ingestz mirror of acked_[id]
    std::atomic<size_t> buffered_bytes{0};  // inbound+outbound, for /ingestz
    std::chrono::steady_clock::time_point accepted_at;
    std::chrono::steady_clock::time_point last_activity;
  };

  void Serve();
  void AcceptPending();
  // Reads everything available; returns false when the peer is gone.
  bool ReadSession(Session* session);
  // Drains complete frames out of the session's reader.
  void ProcessFrames(Session* session);
  void HandleFrame(Session* session, const NetFrame& frame);
  void HandleBatch(Session* session, const NetFrame& frame);
  // Queues a frame on the session's outbound buffer (flushed by poll).
  void QueueFrame(Session* session, const NetFrame& frame);
  // Typed error frame + mark closing; counted + flight-recorded.
  void ProtocolError(Session* session, NetErrorCode code,
                     std::string message);
  // GOAWAY + mark closing; counted + flight-recorded when shedding.
  void GoAwaySession(Session* session, GoAwayReason reason,
                     std::string message);
  // Flushes outbound (non-blocking); returns false when the peer died.
  bool FlushSession(Session* session);
  void CloseSession(uint64_t session_id);
  void EnforceDeadlines();
  void DrainAndCloseAll();
  // O(1): reads the running total, maintained by RefreshBufferGauge /
  // CloseSession (the global budget check runs per read chunk).
  size_t TotalBufferedBytes() const;
  void RefreshBufferGauge(Session* session);

  PushFn push_;
  IngestServerOptions options_;
  std::string instance_;

  std::thread thread_;
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  uint64_t next_session_id_ = 1;

  // Guards sessions_ structure + client_id strings + acked_; the numeric
  // per-session stats are atomics so /ingestz never blocks on a push.
  mutable std::mutex mu_;
  std::map<uint64_t, std::unique_ptr<Session>> sessions_;
  // Per-client ack high-water marks; survive sessions (resume-on-
  // reconnect) for the server's lifetime.
  std::map<std::string, uint64_t, std::less<>> acked_;
  // Sum of every session's buffered_bytes, kept in lockstep by
  // RefreshBufferGauge (delta on exchange) and CloseSession (subtract).
  std::atomic<size_t> total_buffered_{0};

  // Registry-owned; valid for the process lifetime.
  obs::Counter* accepted_;
  obs::Counter* shed_;
  obs::Counter* protocol_errors_;
  obs::Counter* batches_acked_;
  obs::Counter* duplicate_batches_;
  obs::Counter* fixes_in_;
  obs::Counter* frames_in_;
  obs::Counter* bytes_in_;
  obs::Counter* bytes_out_;
  obs::Counter* idle_timeouts_;
  obs::Counter* resumed_sessions_;
  obs::Gauge* active_sessions_gauge_;
  obs::Gauge* buffered_bytes_gauge_;
};

}  // namespace stcomp::net

#endif  // STCOMP_NET_INGEST_SERVER_H_
