// A device-side ingest client for the STNI wire protocol (net/frame.h):
// batches fixes, numbers the batches, and survives disconnects without
// losing or duplicating anything the server acked.
//
// The client keeps every sent-but-unacked batch (bounded by
// max_inflight_batches — that bound is the client-side backpressure).
// On any link failure — connection reset, no ack within 5 s, a kError or
// kGoAway frame from the server — it reconnects, replays the handshake,
// drops every pending batch the kHelloAck reports acked, and resends the
// rest byte-identically (same encoding, same sequence numbers). The
// server's seq gate (apply only last_acked + 1) turns that at-least-once
// resend into exactly-once application.
//
// Synchronous by design: Push() and Flush() drive the socket inline on
// the calling thread. A fleet simulator runs one client per thread; the
// chaos soak wraps the socket writes in a seeded WireFaultHook
// (socket_util.h) to prove the resume story under fire.

#ifndef STCOMP_NET_FLEET_CLIENT_H_
#define STCOMP_NET_FLEET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "stcomp/common/status.h"
#include "stcomp/core/trajectory.h"
#include "stcomp/net/frame.h"
#include "stcomp/net/socket_util.h"

namespace stcomp::net {

struct FleetClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  // Stable identity for ack-resume across reconnects. Required.
  std::string client_id;
  // Fixes per batch; a partial batch is sealed by Flush().
  size_t batch_size = 64;
  // Sent-but-unacked batches Push() tolerates before blocking on acks.
  size_t max_inflight_batches = 8;
  // Reconnect budget over the client's lifetime; exhausting it fails the
  // pending operation with kUnavailable.
  size_t max_reconnects = 100;
  // Chaos seam: every socket write goes through this hook when set
  // (injected disconnects / stalls / split writes / corrupt spans).
  WireFaultHook fault_hook;
};

class FleetClient {
 public:
  explicit FleetClient(FleetClientOptions options);
  ~FleetClient();
  FleetClient(const FleetClient&) = delete;
  FleetClient& operator=(const FleetClient&) = delete;

  // Dials and completes the hello/ack handshake. Also called lazily by
  // Push()/Flush(); explicit Connect() just surfaces errors earlier.
  Status Connect();

  // Buffers one fix; seals and sends a batch every batch_size fixes.
  // Blocks when max_inflight_batches are unacked (backpressure).
  Status Push(std::string_view object_id, const TimedPoint& fix);

  // Seals the partial batch and blocks until every batch is acked.
  Status Flush();

  // Flush + polite kBye + close. The server keeps the ack high-water
  // mark, so a later client with the same id resumes cleanly.
  Status Bye();

  uint64_t fixes_pushed() const { return fixes_pushed_; }
  uint64_t batches_acked() const { return batches_acked_; }
  uint64_t reconnects() const { return reconnects_; }

 private:
  struct PendingBatch {
    uint64_t seq = 0;
    std::string bytes;  // encoded once; resends are byte-identical
    size_t fixes = 0;
  };

  Status EnsureConnected();
  Status Dial();
  void MarkDisconnected();
  // Seals buffered fixes into a PendingBatch (no-op when empty).
  void SealBatch();
  // Sends unsent pending batches, then reads acks until `need_all`
  // (Flush) or pending < max_inflight (Push) is satisfied.
  Status Pump(bool need_all);
  Status SendUnsent();
  // Blocks up to the ack timeout for one server frame; dispatches it.
  Status ReadOneFrame();
  void HandleAck(uint64_t seq);

  FleetClientOptions options_;
  int fd_ = -1;
  bool connected_ = false;
  bool ever_dialed_ = false;
  FrameReader reader_;
  std::vector<NetFix> open_batch_;
  std::deque<PendingBatch> pending_;
  uint64_t next_seq_ = 1;
  // Batches of pending_ already written to the *current* connection;
  // reset on reconnect so the tail gets resent.
  size_t sent_upto_ = 0;
  uint64_t fixes_pushed_ = 0;
  uint64_t batches_acked_ = 0;
  uint64_t reconnects_ = 0;
};

}  // namespace stcomp::net

#endif  // STCOMP_NET_FLEET_CLIENT_H_
