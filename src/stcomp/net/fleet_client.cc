#include "stcomp/net/fleet_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "stcomp/common/strings.h"

namespace stcomp::net {
namespace {

constexpr size_t kReadChunk = 4096;

// No ack within this window declares the link dead and reconnects.
constexpr std::chrono::milliseconds kAckTimeout{5000};

}  // namespace

FleetClient::FleetClient(FleetClientOptions options)
    : options_(std::move(options)) {}

FleetClient::~FleetClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status FleetClient::Connect() { return EnsureConnected(); }

Status FleetClient::Dial() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return UnavailableError(StrFormat("socket(): %s", std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgumentError(
        StrFormat("bad host '%s'", options_.host.c_str()));
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    ::close(fd);
    return UnavailableError(StrFormat("connect(%s:%u): %s",
                                      options_.host.c_str(), options_.port,
                                      std::strerror(errno)));
  }
  fd_ = fd;
  // Fresh stream, fresh framing state: leftover bytes from the previous
  // connection must never bleed into this one.
  reader_ = FrameReader(kNetMaxPayloadBytes);

  Status sent =
      SendAllFaulty(fd_, EncodeNetFrame(NetFrame::Hello(options_.client_id)),
                    options_.fault_hook);
  if (!sent.ok()) {
    MarkDisconnected();
    return sent;
  }
  connected_ = true;  // ReadOneFrame needs the link considered live
  // The first frame on a fresh connection is the kHelloAck (the server
  // handles frames in order and answers the hello before anything else);
  // it tells us what the server already has, and everything at or below
  // its high-water mark is dropped from pending_ rather than resent.
  Status read = ReadOneFrame();
  if (!read.ok()) {
    MarkDisconnected();
    return read;
  }
  return Status::Ok();
}

void FleetClient::MarkDisconnected() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  connected_ = false;
  sent_upto_ = 0;  // everything unacked gets resent on the next link
}

Status FleetClient::EnsureConnected() {
  if (connected_) return Status::Ok();
  std::string last_error = "never dialed";
  while (true) {
    // Every attempt after the first consumes reconnect budget — whether
    // the previous link failed to dial or dialed fine and then went
    // silent. Without this a server that accepts but never acks would
    // loop forever.
    if (ever_dialed_) {
      if (reconnects_ >= options_.max_reconnects) {
        return UnavailableError(
            StrFormat("reconnect budget (%zu) exhausted; last error: %s",
                      options_.max_reconnects, last_error.c_str()));
      }
      ++reconnects_;
      // Tiny backoff: enough to let a restarting server bind, not enough
      // to matter in tests.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ever_dialed_ = true;
    Status dialed = Dial();
    if (dialed.ok()) return Status::Ok();
    last_error = std::string(dialed.message());
  }
}

Status FleetClient::Push(std::string_view object_id, const TimedPoint& fix) {
  open_batch_.push_back(NetFix{std::string(object_id), fix});
  ++fixes_pushed_;
  if (open_batch_.size() >= options_.batch_size) {
    SealBatch();
    return Pump(/*need_all=*/false);
  }
  return Status::Ok();
}

Status FleetClient::Flush() {
  SealBatch();
  return Pump(/*need_all=*/true);
}

Status FleetClient::Bye() {
  STCOMP_RETURN_IF_ERROR(Flush());
  if (connected_) {
    // Best-effort farewell; the server keeps our ack state either way.
    SendAllFaulty(fd_, EncodeNetFrame(NetFrame::Bye()), options_.fault_hook)
        .ok();
    MarkDisconnected();
  }
  return Status::Ok();
}

void FleetClient::SealBatch() {
  if (open_batch_.empty()) return;
  PendingBatch batch;
  batch.seq = next_seq_++;
  batch.fixes = open_batch_.size();
  batch.bytes =
      EncodeNetFrame(NetFrame::Batch(batch.seq, std::move(open_batch_)));
  open_batch_.clear();
  pending_.push_back(std::move(batch));
}

Status FleetClient::Pump(bool need_all) {
  auto satisfied = [&] {
    return need_all ? pending_.empty()
                    : pending_.size() < options_.max_inflight_batches;
  };
  while (!satisfied()) {
    STCOMP_RETURN_IF_ERROR(EnsureConnected());
    Status sent = SendUnsent();
    if (!sent.ok()) {
      MarkDisconnected();
      continue;  // reconnect (budgeted in EnsureConnected) and resend
    }
    Status read = ReadOneFrame();
    if (!read.ok()) {
      MarkDisconnected();
      continue;
    }
  }
  // Push work ahead even when under the inflight cap, so acks for a
  // steady stream do not all pile up behind the final Flush.
  if (connected_ && !pending_.empty()) {
    Status sent = SendUnsent();
    if (!sent.ok()) MarkDisconnected();
  }
  return Status::Ok();
}

Status FleetClient::SendUnsent() {
  while (sent_upto_ < pending_.size()) {
    STCOMP_RETURN_IF_ERROR(
        SendAllFaulty(fd_, pending_[sent_upto_].bytes, options_.fault_hook));
    ++sent_upto_;
  }
  return Status::Ok();
}

Status FleetClient::ReadOneFrame() {
  const auto deadline = std::chrono::steady_clock::now() + kAckTimeout;
  while (true) {
    NetFrame frame;
    Status error;
    FrameScan scan = reader_.Next(&frame, &error);
    if (scan == FrameScan::kError) {
      return DataLossError(StrFormat("server stream corrupt: %s",
                                     std::string(error.message()).c_str()));
    }
    if (scan == FrameScan::kFrame) {
      switch (frame.type) {
        case NetMessageType::kHelloAck: {
          // Drop everything the server already applied; the rest resends
          // byte-identically under the same sequence numbers.
          while (!pending_.empty() &&
                 pending_.front().seq <= frame.last_acked) {
            ++batches_acked_;
            pending_.pop_front();
          }
          sent_upto_ = 0;
          // A fresh process resuming an existing client id starts its
          // seq space at 1, which the server would shrug off as
          // duplicates — and silently drop. Fast-forward past the
          // server's high-water mark so new batches are genuinely new.
          if (next_seq_ <= frame.last_acked) {
            next_seq_ = frame.last_acked + 1;
          }
          return Status::Ok();
        }
        case NetMessageType::kBatchAck:
          HandleAck(frame.batch_seq);
          return Status::Ok();
        case NetMessageType::kError:
          return UnavailableError(
              StrFormat("server error %s: %s",
                        std::string(NetErrorCodeName(
                                        static_cast<NetErrorCode>(frame.code)))
                            .c_str(),
                        frame.message.c_str()));
        case NetMessageType::kGoAway:
          return UnavailableError(
              StrFormat("server goaway %s: %s",
                        std::string(GoAwayReasonName(
                                        static_cast<GoAwayReason>(frame.code)))
                            .c_str(),
                        frame.message.c_str()));
        default:
          return DataLossError("unexpected frame type from server");
      }
    }
    // kNeedMore: pull bytes off the socket, bounded by the ack deadline.
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return UnavailableError(
          StrFormat("no ack within %lld ms",
                    static_cast<long long>(kAckTimeout.count())));
    }
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count());
    struct pollfd pfd = {fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, std::max(1, std::min(wait_ms, 100)));
    if (ready < 0 && errno != EINTR) {
      return UnavailableError(StrFormat("poll(): %s", std::strerror(errno)));
    }
    if (ready <= 0) continue;
    char chunk[kReadChunk];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      reader_.Append(std::string_view(chunk, n));
      continue;
    }
    if (n == 0) return UnavailableError("server closed the connection");
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return UnavailableError(StrFormat("recv(): %s", std::strerror(errno)));
  }
}

void FleetClient::HandleAck(uint64_t seq) {
  // The server acks in order, so one ack retires every batch at or below
  // it — this also absorbs acks lost to a disconnect and re-sent as part
  // of a duplicate-batch re-ack.
  while (!pending_.empty() && pending_.front().seq <= seq) {
    ++batches_acked_;
    pending_.pop_front();
  }
  if (sent_upto_ > pending_.size()) sent_upto_ = pending_.size();
}

}  // namespace stcomp::net
