// Admin-server tests: HTTP plumbing over a real loopback socket, the six
// standard endpoints, and the PR's end-to-end acceptance path — one
// object's fixes pushed through the policed compressor into a segment
// store with tracing at period 1, its connected span tree then retrieved
// via /tracez and exported as Perfetto JSON.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "stcomp/obs/admin_server.h"
#include "stcomp/obs/exposition.h"
#include "stcomp/obs/flight_recorder.h"
#include "stcomp/obs/metrics.h"
#include "stcomp/obs/trace.h"
#include "stcomp/store/query.h"
#include "stcomp/store/segment_store.h"
#include "stcomp/store/st_index.h"
#include "stcomp/store/trajectory_store.h"
#include "stcomp/stream/fleet_compressor.h"
#include "stcomp/stream/opening_window_stream.h"
#include "stcomp/stream/policed_compressor.h"

namespace stcomp::obs {
namespace {

struct HttpResponse {
  int status = 0;
  std::string content_type;
  std::string body;
  std::string raw;
};

// One-shot HTTP/1.0 GET against the loopback server under test.
HttpResponse Get(uint16_t port, const std::string& target,
                 const std::string& method = "GET") {
  HttpResponse response;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    ADD_FAILURE() << "connect to 127.0.0.1:" << port << " failed";
    return response;
  }
  const std::string request = method + " " + target + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  // "HTTP/1.0 <status> ..." then headers, blank line, body.
  if (response.raw.size() > 12) {
    response.status = std::atoi(response.raw.c_str() + 9);
  }
  const size_t type_at = response.raw.find("Content-Type: ");
  if (type_at != std::string::npos) {
    const size_t type_end = response.raw.find("\r\n", type_at);
    response.content_type =
        response.raw.substr(type_at + 14, type_end - type_at - 14);
  }
  const size_t body_at = response.raw.find("\r\n\r\n");
  if (body_at != std::string::npos) {
    response.body = response.raw.substr(body_at + 4);
  }
  return response;
}

TEST(AdminServerTest, ServesCustomHandlerWithQueryParams) {
  AdminServer server;
  server.Handle("/echo", [](const AdminRequest& request) {
    return AdminResponse{200, "text/plain; charset=utf-8",
                         "a=" + request.QueryParam("a") +
                             " b=" + request.QueryParam("b") + "\n"};
  });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_NE(server.port(), 0);
  const HttpResponse response = Get(server.port(), "/echo?a=1&b=two");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "a=1 b=two\n");
  // Absent keys come back empty rather than failing.
  EXPECT_EQ(Get(server.port(), "/echo").body, "a= b=\n");
  server.Stop();
}

TEST(AdminServerTest, UnknownPathIs404AndNonGetIs405) {
  AdminServer server;
  RegisterStandardEndpoints(server, nullptr);
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_EQ(Get(server.port(), "/nope").status, 404);
  EXPECT_EQ(Get(server.port(), "/healthz", "POST").status, 405);
  server.Stop();
}

TEST(AdminServerTest, StartWhileRunningFailsAndStopIsIdempotent) {
  AdminServer server;
  server.Handle("/healthz", [](const AdminRequest&) {
    return AdminResponse{200, "text/plain; charset=utf-8", "ok\n"};
  });
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_EQ(server.Start(0).code(), StatusCode::kFailedPrecondition);
  server.Stop();
  EXPECT_EQ(server.port(), 0);
  server.Stop();  // second stop is a no-op
}

TEST(AdminServerTest, StandardEndpointsAllAnswer) {
  AdminServer server;
  RegisterStandardEndpoints(server, [](size_t) {
    return std::string("{\"objects\":[{\"object_id\":\"o-1\"}]}\n");
  });
  ASSERT_TRUE(server.Start(0).ok());
  const uint16_t port = server.port();

  const HttpResponse health = Get(port, "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const HttpResponse metrics = Get(port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.content_type.find("version=0.0.4"), std::string::npos);

  const HttpResponse objects = Get(port, "/objectz");
  EXPECT_EQ(objects.status, 200);
  EXPECT_NE(objects.body.find("\"object_id\":\"o-1\""), std::string::npos);

  const HttpResponse flight = Get(port, "/flightz");
  EXPECT_EQ(flight.status, 200);
  EXPECT_NE(flight.body.find("flight recorder:"), std::string::npos);
  EXPECT_NE(flight.body.find("total_recorded="), std::string::npos);
  const HttpResponse flight_json = Get(port, "/flightz?format=json");
  EXPECT_EQ(flight_json.content_type, "application/json");
  EXPECT_EQ(flight_json.body.front(), '[');

  const HttpResponse trace = Get(port, "/tracez");
  EXPECT_EQ(trace.status, 200);
  const HttpResponse trace_json = Get(port, "/tracez?format=json");
  EXPECT_EQ(trace_json.content_type, "application/json");

  // No queryz provider: the endpoint still answers with an empty document.
  const HttpResponse queries = Get(port, "/queryz");
  EXPECT_EQ(queries.status, 200);
  EXPECT_EQ(queries.content_type, "application/json");
  EXPECT_EQ(queries.body, "{\"queries\":{}}\n");
  server.Stop();
}

// /queryz wired to the real query layer: after an index-accelerated query
// runs, the document reports per-type counts and block/latency counters.
TEST(AdminServerTest, QueryzReportsQueryCounters) {
  TrajectoryStore store;
  std::vector<TimedPoint> points;
  for (int i = 0; i < 80; ++i) {
    points.emplace_back(1.0 * i, 10.0 * i, 5.0 * i);
  }
  ASSERT_TRUE(
      store.Insert("veh-1", Trajectory::FromPoints(std::move(points)).value())
          .ok());
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  QueryRequest request;
  request.type = QueryType::kRange;
  request.box = {{0.0, 0.0}, {500.0, 500.0}};
  ASSERT_TRUE(RunQuery(store, index, request).ok());

  AdminServer server;
  RegisterStandardEndpoints(server, nullptr,
                            [] { return stcomp::RenderQueryzJson(); });
  ASSERT_TRUE(server.Start(0).ok());
  const HttpResponse response = Get(server.port(), "/queryz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  EXPECT_NE(response.body.find("\"queries\""), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"range\""), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"blocks_considered\""), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"latency_seconds\""), std::string::npos)
      << response.body;
  server.Stop();
}

// Satellite regression (ISSUE 9): /objectz and /queryz share one JSON
// string-escaping helper — object ids with quotes, backslashes, control
// characters and non-ASCII bytes must come out as valid JSON, not as raw
// structure-breaking bytes.
TEST(AdminServerTest, ObjectzEscapesHostileObjectIds) {
  TrajectoryStore store;
  FleetCompressor fleet(
      [] {
        return std::make_unique<OpeningWindowStream>(
            5.0, algo::BreakPolicy::kNormal, StreamCriterion::kSynchronized);
      },
      &store, {}, "objectz-escape");
  const std::string hostile = "veh-\"x\\y\n\xc3\xa9";
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        fleet.Push(hostile, {static_cast<double>(i), {i * 10.0, 0.0}}).ok());
  }
  AdminServer server;
  RegisterStandardEndpoints(
      server, [&fleet](size_t limit) { return fleet.RenderObjectsJson(limit); });
  ASSERT_TRUE(server.Start(0).ok());
  const HttpResponse response = Get(server.port(), "/objectz");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("veh-\\\"x\\\\y\\n\xc3\xa9"),
            std::string::npos)
      << response.body;
  // The raw unescaped quote sequence must not appear inside the id.
  EXPECT_EQ(response.body.find(hostile), std::string::npos) << response.body;
  server.Stop();
  ASSERT_TRUE(fleet.FinishAll().ok());
}

// The instance name goes through the same escaping as the object ids.
TEST(AdminServerTest, ObjectzEscapesHostileInstanceName) {
  TrajectoryStore store;
  FleetCompressor fleet(
      [] {
        return std::make_unique<OpeningWindowStream>(
            5.0, algo::BreakPolicy::kNormal, StreamCriterion::kSynchronized);
      },
      &store, {}, "ob\"jz");
  ASSERT_TRUE(fleet.Push("veh-1", {0.0, {0.0, 0.0}}).ok());
  AdminServer server;
  RegisterStandardEndpoints(
      server, [&fleet](size_t limit) { return fleet.RenderObjectsJson(limit); });
  ASSERT_TRUE(server.Start(0).ok());
  const HttpResponse response = Get(server.port(), "/objectz");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"instance\":\"ob\\\"jz\""),
            std::string::npos)
      << response.body;
  EXPECT_EQ(response.body.find("ob\"jz"), std::string::npos) << response.body;
  server.Stop();
  ASSERT_TRUE(fleet.FinishAll().ok());
}

TEST(AdminServerTest, ClientDisconnectMidResponseDoesNotKillProcess) {
  AdminServer server;
  server.Handle("/big", [](const AdminRequest&) {
    return AdminResponse{200, "text/plain; charset=utf-8",
                         std::string(8 * 1024 * 1024, 'x')};
  });
  ASSERT_TRUE(server.Start(0).ok());

  // Request a multi-megabyte body, read just the head, then slam the
  // connection shut abortively (SO_LINGER 0 → RST). The server is still
  // mid-WriteAll with megabytes pending; its next send must fail with
  // EPIPE/ECONNRESET, not raise a process-killing SIGPIPE.
  for (int i = 0; i < 3; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
    const std::string request = "GET /big HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::write(fd, request.data(), request.size()),
              static_cast<ssize_t>(request.size()));
    char buf[1024];
    ASSERT_GT(::read(fd, buf, sizeof(buf)), 0);  // server is now writing
    const linger abort_on_close{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_on_close,
                 sizeof(abort_on_close));
    ::close(fd);
  }

  // The accept thread survived and still serves.
  const HttpResponse after = Get(server.port(), "/big");
  EXPECT_EQ(after.status, 200);
  EXPECT_EQ(after.body.size(), 8u * 1024 * 1024);
  server.Stop();
}

TEST(AdminServerTest, NullObjectzProviderServesEmptyList) {
  AdminServer server;
  RegisterStandardEndpoints(server, nullptr);
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_EQ(Get(server.port(), "/objectz").body, "{\"objects\":[]}\n");
  server.Stop();
}

#if STCOMP_METRICS_ENABLED
// Acceptance: one object's journey — ingest gate → compressor → WAL
// append → segment checkpoint — forms a connected span tree retrievable
// over /tracez, in tree text and as Perfetto JSON.
TEST(AdminServerTest, ObjectJourneySpanTreeRetrievableViaTracez) {
  const std::string dir = ::testing::TempDir() + "admin_tracez_e2e";
  std::filesystem::remove_all(dir);

  TraceBuffer::Global().Clear();
  const uint64_t previous_period = TraceBuffer::SetSampledRootPeriod(1);

  {
    SegmentStore store;
    ASSERT_TRUE(store.Open(dir).ok());
    PolicedCompressor policed(
        std::make_unique<OpeningWindowStream>(5.0, algo::BreakPolicy::kNormal,
                                              StreamCriterion::kSynchronized),
        IngestPolicy{}, "admin-e2e");
    std::vector<TimedPoint> committed;
    for (int i = 0; i < 40; ++i) {
      // Explicit per-fix root; the policed push, any WAL commit and the
      // store append all become its descendants.
      TraceSpan root("ingest.fix", "admin-e2e-obj");
      committed.clear();
      ASSERT_TRUE(
          policed.Push(TimedPoint(i, i * 7.0 * (i % 3), 0.5 * i), &committed)
              .ok());
      for (const TimedPoint& point : committed) {
        ASSERT_TRUE(store.Append("admin-e2e-obj", point).ok());
      }
      ASSERT_TRUE(store.Commit().ok());
    }
    {
      TraceSpan finish("ingest.finish", "admin-e2e-obj");
      committed.clear();
      policed.Finish(&committed);
      for (const TimedPoint& point : committed) {
        ASSERT_TRUE(store.Append("admin-e2e-obj", point).ok());
      }
      ASSERT_TRUE(store.Checkpoint().ok());
    }
  }
  TraceBuffer::SetSampledRootPeriod(previous_period);

  AdminServer server;
  RegisterStandardEndpoints(server, nullptr);
  ASSERT_TRUE(server.Start(0).ok());

  // Tree text: the explicit root is unindented (after the fixed columns),
  // its pipeline children one level deeper.
  const std::string tree = Get(server.port(), "/tracez").body;
  EXPECT_NE(tree.find("  ingest.fix admin-e2e-obj"), std::string::npos)
      << tree;
  EXPECT_NE(tree.find("    policed.push"), std::string::npos) << tree;
  EXPECT_NE(tree.find("    segment_store.append"), std::string::npos) << tree;
  EXPECT_NE(tree.find("    wal.commit"), std::string::npos) << tree;

  // The journey is *connected*: in the JSON view (one span per line),
  // every pipeline span below the explicit roots has a non-zero parent.
  const std::string json = Get(server.port(), "/tracez?format=json").body;
  EXPECT_NE(json.find("\"name\":\"ingest.fix\""), std::string::npos);
  size_t pipeline_spans = 0;
  size_t line_start = 0;
  while (line_start < json.size()) {
    size_t line_end = json.find('\n', line_start);
    if (line_end == std::string::npos) {
      line_end = json.size();
    }
    const std::string line = json.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.find("\"name\":\"policed.push\"") == std::string::npos &&
        line.find("\"name\":\"wal.commit\"") == std::string::npos &&
        line.find("\"name\":\"segment_store.append\"") == std::string::npos) {
      continue;
    }
    ++pipeline_spans;
    EXPECT_EQ(line.find("\"parent_id\":0,"), std::string::npos) << line;
  }
  EXPECT_GT(pipeline_spans, 0u);

  // Perfetto export is served with the chrome://tracing envelope.
  const HttpResponse perfetto =
      Get(server.port(), "/tracez?format=perfetto");
  EXPECT_EQ(perfetto.content_type, "application/json");
  EXPECT_EQ(perfetto.body.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
  EXPECT_NE(perfetto.body.find("\"name\":\"ingest.fix\""), std::string::npos);
  EXPECT_NE(perfetto.body.find("\"ph\":\"X\""), std::string::npos);

  // ?object= filters the view down to the tagged spans.
  const std::string filtered =
      Get(server.port(), "/tracez?object=admin-e2e-obj").body;
  EXPECT_NE(filtered.find("ingest.fix"), std::string::npos);
  EXPECT_EQ(filtered.find("no-such-object"), std::string::npos);

  server.Stop();
  std::filesystem::remove_all(dir);
}
#endif  // STCOMP_METRICS_ENABLED

// Satellite regression (ISSUE 8): /objectz must stay bounded on huge
// fleets — ?limit=N caps the rendered entries and flags the cut with
// "truncated", the bare endpoint defaults to kDefaultObjectzLimit, and
// garbage limits fall back to the default instead of "unlimited".
TEST(AdminServerTest, ObjectzHonorsLimitQueryParam) {
  TrajectoryStore store;
  FleetCompressor fleet(
      [] {
        return std::make_unique<OpeningWindowStream>(
            5.0, algo::BreakPolicy::kNormal, StreamCriterion::kSynchronized);
      },
      &store, {}, "objectz-limit");
  for (int object = 0; object < 5; ++object) {
    const std::string id = "veh-" + std::to_string(object);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          fleet.Push(id, {static_cast<double>(i), {i * 10.0, 0.0}}).ok());
    }
  }

  AdminServer server;
  // The fleet is idle for the rest of the test, so serving reads from the
  // server thread is safe (same contract as the streaming example).
  RegisterStandardEndpoints(
      server, [&fleet](size_t limit) { return fleet.RenderObjectsJson(limit); });
  ASSERT_TRUE(server.Start(0).ok());
  const uint16_t port = server.port();

  const auto count_entries = [](const std::string& body) {
    size_t count = 0;
    for (size_t pos = body.find("\"object_id\""); pos != std::string::npos;
         pos = body.find("\"object_id\"", pos + 1)) {
      ++count;
    }
    return count;
  };

  const HttpResponse limited = Get(port, "/objectz?limit=2");
  EXPECT_EQ(limited.status, 200);
  EXPECT_EQ(count_entries(limited.body), 2u);
  EXPECT_NE(limited.body.find("\"truncated\":true"), std::string::npos);
  EXPECT_NE(limited.body.find("\"objects_total\":5"), std::string::npos);

  // 5 objects < default limit of 1000: everything renders, no truncation.
  const HttpResponse all = Get(port, "/objectz");
  EXPECT_EQ(count_entries(all.body), 5u);
  EXPECT_NE(all.body.find("\"truncated\":false"), std::string::npos);

  // ?limit=0 is the explicit "unlimited" escape hatch.
  const HttpResponse unlimited = Get(port, "/objectz?limit=0");
  EXPECT_EQ(count_entries(unlimited.body), 5u);

  // Malformed limits keep the default instead of dropping the bound.
  const HttpResponse garbage = Get(port, "/objectz?limit=-1");
  EXPECT_EQ(count_entries(garbage.body), 5u);
  EXPECT_NE(garbage.body.find("\"truncated\":false"), std::string::npos);

  server.Stop();
  ASSERT_TRUE(fleet.FinishAll().ok());
}

}  // namespace
}  // namespace stcomp::obs
