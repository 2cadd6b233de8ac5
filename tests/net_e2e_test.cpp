// End-to-end over real sockets: net::Client -> loopback net::Server ->
// TuningService. The core contract is *parity* — for each endpoint, a call
// through the wire must return exactly what the same request returns through
// the in-process submit path (same status, same config, bit-identical
// predictions), the wire being a transparent transport, never a second
// implementation. Also covered: pipelining across a snapshot republish,
// typed backpressure (Overloaded / ShuttingDown on the wire), error frames
// for garbage bytes, and a graceful drain that answers every in-flight frame.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/online.h"
#include "core/rafiki.h"
#include "engine/params.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "tenant/fleet.h"

namespace rafiki::net {
namespace {

// One tiny trained pipeline shared by every test; training dominates the
// suite's cost and all tests only read from it.
class NetE2E : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::RafikiOptions options;
    options.workload_grid = {0.2, 0.8};
    options.n_configs = 5;
    options.collect.measure.ops = 3000;
    options.collect.measure.warmup_ops = 300;
    options.ensemble.n_nets = 3;
    options.ensemble.train.max_epochs = 30;
    options.ga.generations = 6;
    options.ga.population = 10;
    rafiki_ = new core::Rafiki(options);
    rafiki_->set_key_params(engine::key_params());
    rafiki_->train(rafiki_->collect());
    ASSERT_TRUE(rafiki_->trained());
  }

  static void TearDownTestSuite() {
    delete rafiki_;
    rafiki_ = nullptr;
  }

  static serve::Request predict_request(double read_ratio = 0.3) {
    serve::Request request;
    request.endpoint = serve::Endpoint::kPredict;
    request.read_ratio = read_ratio;
    return request;
  }

  /// A blocking loopback socket with no client library in between, so a
  /// test controls exactly which frames share one send(). Reads time out
  /// after 5 s instead of hanging on a lost answer.
  static int connect_raw(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    timeval timeout{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  /// Encodes requests[i] with request id i + 1 and sends them all in one
  /// send() call.
  static bool send_round(int fd, const std::vector<serve::Request>& requests) {
    std::vector<std::uint8_t> bytes;
    for (std::size_t i = 0; i < requests.size(); ++i) encode_request(i + 1, requests[i], bytes);
    return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// Reads until `count` response frames arrived (fewer on timeout or
  /// close); result[id] holds the frame answering request id, id 0 unused.
  static std::vector<Frame> read_answers(int fd, std::size_t count) {
    std::vector<Frame> answers(count + 1);
    std::vector<std::uint8_t> inbound;
    std::uint8_t chunk[4096];
    std::size_t got = 0;
    while (got < count) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      inbound.insert(inbound.end(), chunk, chunk + n);
      std::size_t offset = 0;
      Frame frame;
      std::size_t consumed = 0;
      while (decode_frame(inbound.data() + offset, inbound.size() - offset, kDefaultMaxPayload,
                          frame, consumed) == DecodeStatus::kOk) {
        offset += consumed;
        if (frame.type == FrameType::kResponse && frame.request_id >= 1 &&
            frame.request_id <= count) {
          answers[frame.request_id] = frame;
          ++got;
        }
      }
      inbound.erase(inbound.begin(), inbound.begin() + static_cast<std::ptrdiff_t>(offset));
    }
    return answers;
  }

  /// Polls a condition without reading any clock: bounded iteration count
  /// with a fixed sleep per probe.
  static bool spin_until(const std::function<bool()>& pred, int probes = 10000) {
    for (int i = 0; i < probes; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
  }

  static core::Rafiki* rafiki_;
};

core::Rafiki* NetE2E::rafiki_ = nullptr;

TEST_F(NetE2E, PredictParityWithInProcessSubmit) {
  serve::ServiceOptions options;
  options.workers = 1;
  serve::TuningService service(options);
  service.publish(serve::make_snapshot(*rafiki_));
  service.start();
  Server server(service);
  ASSERT_TRUE(server.start()) << server.last_error();
  ASSERT_NE(server.port(), 0);

  Client client;
  ASSERT_EQ(client.connect("127.0.0.1", server.port()), NetStatus::kOk);

  const auto config = engine::Config::defaults().with(engine::key_params()[0], 1.0);
  auto request = predict_request(0.35);
  request.config = config;

  const auto wire = client.predict(0.35, config);
  const auto direct = service.call(request);
  ASSERT_TRUE(wire.ok()) << net_status_name(wire.net);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(wire.response.status, direct.status);
  EXPECT_EQ(wire.response.model_version, direct.model_version);
  // Same snapshot, same kernel: the wire must not perturb a single bit.
  EXPECT_EQ(wire.response.mean, direct.mean);
  EXPECT_EQ(wire.response.stddev, direct.stddev);
  EXPECT_EQ(wire.response.mean, rafiki_->predict(0.35, config));

  const auto counters = service.stats().wire_counters();
  EXPECT_EQ(counters.frames_in, 1u);
  EXPECT_EQ(counters.frames_out, 1u);
  EXPECT_EQ(counters.decode_errors, 0u);
  EXPECT_GT(counters.bytes_in, 0u);
  // bytes_out is recorded by the IO loop *after* send() returns, and the
  // response can reach the client before that thread is rescheduled — poll
  // instead of snapshotting.
  EXPECT_TRUE(spin_until(
      [&] { return service.stats().wire_counters().bytes_out > 0; }));
  EXPECT_EQ(counters.connections_accepted, 1u);

  server.stop();
  service.stop();
}

TEST_F(NetE2E, OptimizeParityWithInProcessSubmit) {
  serve::ServiceOptions options;
  options.workers = 1;
  options.ga.population = 10;
  options.ga.generations = 5;
  serve::TuningService service(options);
  service.publish(serve::make_snapshot(*rafiki_));
  service.start();
  Server server(service);
  ASSERT_TRUE(server.start()) << server.last_error();

  Client client;
  ASSERT_EQ(client.connect("127.0.0.1", server.port()), NetStatus::kOk);

  const auto wire = client.optimize(0.4);
  serve::Request request;
  request.endpoint = serve::Endpoint::kOptimize;
  request.read_ratio = 0.4;
  const auto direct = service.call(request);

  ASSERT_TRUE(wire.ok()) << net_status_name(wire.net);
  ASSERT_TRUE(direct.ok());
  // The GA is seeded per call, so both routes must land on the same optimum
  // with the same fitness and the same evaluation budget.
  EXPECT_EQ(wire.response.status, direct.status);
  EXPECT_EQ(wire.response.config, direct.config);
  EXPECT_EQ(wire.response.predicted_throughput, direct.predicted_throughput);
  EXPECT_EQ(wire.response.surrogate_evaluations, direct.surrogate_evaluations);
  EXPECT_GT(wire.response.predicted_throughput, 0.0);

  server.stop();
  service.stop();
}

TEST_F(NetE2E, ObserveWindowParityThroughRetrainCycle) {
  serve::ServiceOptions options;
  options.workers = 1;
  core::OnlineTuner tuner(*rafiki_);
  serve::TuningService service(options);
  service.publish(serve::make_snapshot(*rafiki_));
  service.attach_tuner(tuner);
  service.start();
  Server server(service);
  ASSERT_TRUE(server.start()) << server.last_error();

  Client client;
  ASSERT_EQ(client.connect("127.0.0.1", server.port()), NetStatus::kOk);

  // Miss over the wire: immediate stale answer, background GA enqueued.
  const auto first = client.observe_window(0.2);
  ASSERT_TRUE(first.ok()) << net_status_name(first.net);
  EXPECT_TRUE(first.response.stale);
  EXPECT_FALSE(first.response.reconfigured);

  service.wait_retrain_idle();
  EXPECT_EQ(service.model_version(), 2u);

  // Fresh hit over the wire adopts the tuned entry...
  const auto second = client.observe_window(0.2);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.response.stale);
  EXPECT_TRUE(second.response.reconfigured);
  EXPECT_EQ(second.response.model_version, 2u);

  // ...and the in-process path agrees on the exact same tuned state.
  serve::Request request;
  request.endpoint = serve::Endpoint::kObserveWindow;
  request.read_ratio = 0.2;
  const auto direct = service.call(request);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct.status, second.response.status);
  EXPECT_EQ(direct.config, second.response.config);
  EXPECT_EQ(direct.predicted_throughput, second.response.predicted_throughput);
  EXPECT_FALSE(direct.stale);

  server.stop();
  service.stop();
}

TEST_F(NetE2E, PipelinedRequestsSurviveSnapshotRepublishMidStream) {
  constexpr std::uint64_t kPerPhase = 8;

  serve::ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 128;
  serve::TuningService service(options);
  service.publish(serve::make_snapshot(*rafiki_));
  service.start();
  ServerOptions opts;
  opts.io_threads = 2;
  Server server(service, opts);
  ASSERT_TRUE(server.start()) << server.last_error();

  Client client;
  ASSERT_EQ(client.connect("127.0.0.1", server.port()), NetStatus::kOk);

  // Phase 1 in flight, republish, phase 2 in flight — all on one pipelined
  // connection; every id must come back OK against version 1 or 2.
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < kPerPhase; ++i) {
    NetStatus status = NetStatus::kOk;
    const auto id = client.send(predict_request(0.25 + 0.01 * static_cast<double>(i)),
                                &status);
    ASSERT_NE(id, 0u) << net_status_name(status);
    ids.push_back(id);
  }
  EXPECT_EQ(service.publish(serve::make_snapshot(*rafiki_)), 2u);
  for (std::uint64_t i = 0; i < kPerPhase; ++i) {
    const auto id = client.send(predict_request(0.55 + 0.01 * static_cast<double>(i)));
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }

  std::size_t v1 = 0;
  std::size_t v2 = 0;
  for (const auto id : ids) {
    const auto result = client.wait(id);
    ASSERT_EQ(result.net, NetStatus::kOk) << net_status_name(result.net);
    ASSERT_TRUE(result.response.ok());
    ASSERT_GE(result.response.model_version, 1u);
    ASSERT_LE(result.response.model_version, 2u);
    (result.response.model_version == 1 ? v1 : v2) += 1;
  }
  EXPECT_EQ(v1 + v2, 2 * kPerPhase);
  // Requests sent after the republish returned can only see the new version.
  EXPECT_GE(v2, kPerPhase);

  const auto counters = service.stats().wire_counters();
  EXPECT_EQ(counters.frames_in, 2 * kPerPhase);
  EXPECT_EQ(counters.frames_out, 2 * kPerPhase);
  EXPECT_EQ(counters.decode_errors, 0u);

  server.stop();
  service.stop();
}

TEST_F(NetE2E, GracefulDrainAnswersEveryInFlightFrame) {
  constexpr std::uint64_t kInFlight = 16;

  serve::ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 64;
  serve::TuningService service(options);
  service.publish(serve::make_snapshot(*rafiki_));
  service.start();
  Server server(service);
  ASSERT_TRUE(server.start()) << server.last_error();
  const auto port = server.port();

  Client client;
  ASSERT_EQ(client.connect("127.0.0.1", port), NetStatus::kOk);

  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < kInFlight; ++i) {
    const auto id = client.send(predict_request(0.3 + 0.01 * static_cast<double>(i)));
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  // Wait until the server has decoded (and therefore admitted or answered)
  // every frame, then drain. "Graceful" means: none of those 16 may be lost.
  ASSERT_TRUE(spin_until([&] {
    return service.stats().wire_counters().frames_in >= kInFlight;
  }));
  server.stop();

  std::uint64_t answered_ok = 0;
  std::uint64_t answered_shutdown = 0;
  for (const auto id : ids) {
    const auto result = client.wait(id);
    ASSERT_EQ(result.net, NetStatus::kOk)
        << "request " << id << " lost in drain: " << net_status_name(result.net);
    if (result.response.status == serve::Status::kOk) {
      ++answered_ok;
    } else {
      ASSERT_EQ(result.response.status, serve::Status::kShuttingDown);
      ++answered_shutdown;
    }
  }
  EXPECT_EQ(answered_ok + answered_shutdown, kInFlight);
  const auto counters = service.stats().wire_counters();
  EXPECT_EQ(counters.frames_out, kInFlight);
  EXPECT_EQ(counters.decode_errors, 0u);
  EXPECT_EQ(counters.active(), 0u);

  // The listener is gone: nobody new gets in after a drain.
  Client late;
  EXPECT_NE(late.connect("127.0.0.1", port), NetStatus::kOk);

  service.stop();
}

// A connection whose TCP handshake completed before stop() may still be
// sitting in the accept backlog — with frames already sent — if the IO loop
// was busy. The drain must adopt it and answer those frames (kShuttingDown at
// worst) rather than let the listener close RST it. Regression test: every
// client below connects and fully sends *before* stop(), so every frame must
// come back typed, accepted or not.
TEST_F(NetE2E, DrainAdoptsConnectionsStillInTheAcceptBacklog) {
  constexpr std::size_t kClients = 8;

  serve::ServiceOptions options;
  options.workers = 1;
  serve::TuningService service(options);
  service.publish(serve::make_snapshot(*rafiki_));
  service.start();
  Server server(service);
  ASSERT_TRUE(server.start()) << server.last_error();

  std::vector<Client> fleet(kClients);
  std::vector<std::uint64_t> ids(kClients, 0);
  for (std::size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(fleet[c].connect("127.0.0.1", server.port()), NetStatus::kOk);
    ids[c] = fleet[c].send(predict_request(0.3 + 0.01 * static_cast<double>(c)));
    ASSERT_NE(ids[c], 0u);
  }
  // No wait for the server to accept or decode: the point is that some of
  // these connections are still in the backlog when the drain starts.
  server.stop();

  for (std::size_t c = 0; c < kClients; ++c) {
    const auto result = fleet[c].wait(ids[c]);
    ASSERT_EQ(result.net, NetStatus::kOk)
        << "client " << c << " lost in drain: " << net_status_name(result.net);
    EXPECT_TRUE(result.response.status == serve::Status::kOk ||
                result.response.status == serve::Status::kShuttingDown);
  }

  service.stop();
}

TEST_F(NetE2E, ServiceShutdownMapsToTypedShuttingDownResponse) {
  serve::ServiceOptions options;
  options.workers = 1;
  serve::TuningService service(options);
  service.publish(serve::make_snapshot(*rafiki_));
  service.start();
  service.stop();  // service is gone; the wire front-end is still up

  Server server(service);
  ASSERT_TRUE(server.start()) << server.last_error();
  Client client;
  ASSERT_EQ(client.connect("127.0.0.1", server.port()), NetStatus::kOk);

  const auto result = client.predict(0.3);
  // Transport-level success, service-level ShuttingDown — a typed response,
  // not a dropped connection.
  ASSERT_EQ(result.net, NetStatus::kOk) << net_status_name(result.net);
  EXPECT_EQ(result.response.status, serve::Status::kShuttingDown);
  server.stop();
}

TEST_F(NetE2E, PipelineLimitMapsToTypedOverloadedResponse) {
  serve::ServiceOptions options;
  options.workers = 0;  // nobody drains: the first request parks in flight
  serve::TuningService service(options);
  service.publish(serve::make_snapshot(*rafiki_));
  service.start();
  ServerOptions opts;
  opts.max_pipeline = 1;
  Server server(service, opts);
  ASSERT_TRUE(server.start()) << server.last_error();

  Client client;
  ASSERT_EQ(client.connect("127.0.0.1", server.port()), NetStatus::kOk);

  // An Optimize parks on the (absent) workers; a Predict would be answered
  // by the IO loop itself.
  serve::Request optimize;
  optimize.endpoint = serve::Endpoint::kOptimize;
  optimize.read_ratio = 0.3;
  const auto first = client.send(optimize);
  ASSERT_NE(first, 0u);
  const auto second = client.send(predict_request(0.4));
  ASSERT_NE(second, 0u);

  // The second answer arrives while the first still waits on a worker.
  const auto overloaded = client.wait(second);
  ASSERT_EQ(overloaded.net, NetStatus::kOk);
  EXPECT_EQ(overloaded.response.status, serve::Status::kOverloaded);

  // The parked request is never dropped: the service drain fails it with a
  // typed ShuttingDown that still travels the wire back to its id.
  service.stop();
  const auto drained = client.wait(first);
  ASSERT_EQ(drained.net, NetStatus::kOk);
  EXPECT_EQ(drained.response.status, serve::Status::kShuttingDown);

  server.stop();
}

// A Predict round is answered by the IO loop itself: with no worker at
// all, 32 Predicts sent in one send() come back Ok, each bit-equal to the
// scalar forward on the published snapshot.
TEST_F(NetE2E, PredictRoundIsAnsweredOnTheIoLoopWithoutWorkers) {
  constexpr std::size_t kRound = 32;
  serve::ServiceOptions options;
  options.workers = 0;
  serve::TuningService service(options);
  service.publish(serve::make_snapshot(*rafiki_));
  service.start();
  Server server(service);
  ASSERT_TRUE(server.start()) << server.last_error();

  std::vector<serve::Request> round;
  for (std::size_t i = 0; i < kRound; ++i) {
    auto request = predict_request(0.05 + 0.03 * static_cast<double>(i));
    request.config = engine::Config::defaults().with(engine::key_params()[i % 5],
                                                     static_cast<double>(i % 3));
    round.push_back(request);
  }
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_round(fd, round));
  const auto answers = read_answers(fd, kRound);
  ::close(fd);

  const auto snapshot = service.snapshot();
  for (std::size_t i = 0; i < kRound; ++i) {
    const Frame& frame = answers[i + 1];
    ASSERT_EQ(frame.type, FrameType::kResponse) << "request " << i + 1 << " unanswered";
    ASSERT_EQ(frame.response.status, serve::Status::kOk);
    EXPECT_EQ(frame.response.model_version, 1u);
    const auto expected = snapshot->ensemble.predict_with_uncertainty(
        snapshot->feature_row(round[i].read_ratio, round[i].config));
    EXPECT_EQ(frame.response.mean, expected.mean) << "request " << i + 1;
    EXPECT_EQ(frame.response.stddev, expected.stddev) << "request " << i + 1;
  }
  server.stop();
  service.stop();
  const auto predict = service.stats().counters(serve::Endpoint::kPredict);
  EXPECT_EQ(predict.accepted, kRound);
  EXPECT_EQ(predict.ok, kRound);
  EXPECT_EQ(service.stats().wire_counters().frames_out, kRound);
}

// The inline round keeps the typed verdicts: an expired deadline answers
// DeadlineExceeded next to a live request, and a fleet answers a tenant id
// outside it NotReady.
TEST_F(NetE2E, PredictRoundTriagesDeadlinesAndUnknownTenants) {
  {
    serve::ServiceOptions options;
    options.workers = 0;
    options.clock_fn = [] { return serve::Tick{100}; };
    serve::TuningService service(options);
    service.publish(serve::make_snapshot(*rafiki_));
    service.start();
    Server server(service);
    ASSERT_TRUE(server.start()) << server.last_error();

    auto expired = predict_request(0.3);
    expired.deadline = 50;
    auto live = predict_request(0.4);
    live.deadline = 500;
    const int fd = connect_raw(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_round(fd, {expired, live}));
    const auto answers = read_answers(fd, 2);
    ::close(fd);
    EXPECT_EQ(answers[1].response.status, serve::Status::kDeadlineExceeded);
    EXPECT_EQ(answers[2].response.status, serve::Status::kOk);
    server.stop();
    service.stop();
    EXPECT_EQ(service.stats().counters(serve::Endpoint::kPredict).rejected_deadline, 1u);
  }
  {
    tenant::FleetOptions options;
    options.tenants = 2;
    options.shard.shards = 2;
    options.shard.service.workers = 0;
    tenant::TenantFleet fleet(options);
    fleet.publish(serve::make_snapshot(*rafiki_));
    fleet.start();
    Server server(fleet);
    ASSERT_TRUE(server.start()) << server.last_error();

    auto known = predict_request(0.3);
    known.tenant = 1;
    auto unknown = predict_request(0.3);
    unknown.tenant = 7;
    const int fd = connect_raw(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_round(fd, {known, unknown}));
    const auto answers = read_answers(fd, 2);
    ::close(fd);
    EXPECT_EQ(answers[1].response.status, serve::Status::kOk);
    EXPECT_EQ(answers[1].tenant, 1u);
    EXPECT_EQ(answers[2].response.status, serve::Status::kNotReady);
    EXPECT_EQ(answers[2].tenant, 7u);
    server.stop();
    fleet.stop();
    EXPECT_EQ(fleet.fleet_counters().unknown_tenant, 1u);
  }
}

// Fleet admission runs over the whole round before any slot is released, so
// a burst past a tenant's in-flight cap that arrives in one send() is still
// refused for the excess — and every admitted slot is released afterwards.
TEST_F(NetE2E, PredictRoundHonoursTheTenantInFlightCap) {
  constexpr std::size_t kBurst = 32;
  tenant::FleetOptions options;
  options.tenants = 2;
  options.shard.shards = 2;
  options.shard.service.workers = 0;
  options.quota_for = [](serve::TenantId id) {
    tenant::QuotaOptions quota;
    if (id == 1) quota.max_in_flight = 4;
    return quota;
  };
  tenant::TenantFleet fleet(options);
  fleet.publish(serve::make_snapshot(*rafiki_));
  fleet.start();
  Server server(fleet);
  ASSERT_TRUE(server.start()) << server.last_error();

  std::vector<serve::Request> burst;
  for (std::size_t i = 0; i < kBurst; ++i) {
    auto request = predict_request(0.1 + 0.025 * static_cast<double>(i));
    request.tenant = 1;
    burst.push_back(request);
  }
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_round(fd, burst));
  const auto answers = read_answers(fd, kBurst);
  ::close(fd);

  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  for (std::size_t id = 1; id <= kBurst; ++id) {
    ASSERT_EQ(answers[id].type, FrameType::kResponse) << "request " << id << " unanswered";
    if (answers[id].response.status == serve::Status::kOk) ++ok;
    if (answers[id].response.status == serve::Status::kOverloaded) ++overloaded;
  }
  EXPECT_GE(ok, 1u);
  EXPECT_GE(overloaded, 1u);
  EXPECT_EQ(ok + overloaded, kBurst);
  const auto counters = fleet.fleet_counters();
  EXPECT_EQ(counters.inflight_rejected + counters.quota_rejected, overloaded);
  // The slots were released after the forward, before the answers went out.
  EXPECT_EQ(fleet.registry().find(1)->quota.in_flight(), 0u);

  ClientOptions client_options;
  client_options.tenant = 1;
  Client client(client_options);
  ASSERT_EQ(client.connect("127.0.0.1", server.port()), NetStatus::kOk);
  EXPECT_TRUE(client.predict(0.5).ok());

  server.stop();
  fleet.stop();
}

// Only Predicts are answered on the IO loop: an Optimize sent in the same
// send() as a Predict round still runs on a worker and answers exactly what
// the in-process path answers.
TEST_F(NetE2E, OptimizeNextToAPredictRoundStillRunsOnAWorker) {
  serve::ServiceOptions options;
  options.workers = 1;
  options.ga.population = 10;
  options.ga.generations = 5;
  serve::TuningService service(options);
  service.publish(serve::make_snapshot(*rafiki_));
  service.start();
  Server server(service);
  ASSERT_TRUE(server.start()) << server.last_error();

  serve::Request optimize;
  optimize.endpoint = serve::Endpoint::kOptimize;
  optimize.read_ratio = 0.4;
  std::vector<serve::Request> round = {predict_request(0.2), predict_request(0.3), optimize,
                                       predict_request(0.6)};
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_round(fd, round));
  const auto answers = read_answers(fd, round.size());
  ::close(fd);

  const auto direct = service.call(optimize);
  ASSERT_TRUE(direct.ok());
  const Frame& wire = answers[3];
  ASSERT_EQ(wire.type, FrameType::kResponse);
  EXPECT_EQ(wire.endpoint, serve::Endpoint::kOptimize);
  ASSERT_EQ(wire.response.status, serve::Status::kOk);
  EXPECT_EQ(wire.response.config, direct.config);
  EXPECT_EQ(wire.response.predicted_throughput, direct.predicted_throughput);
  EXPECT_EQ(wire.response.surrogate_evaluations, direct.surrogate_evaluations);
  for (const std::size_t id : {1u, 2u, 4u}) {
    EXPECT_EQ(answers[id].response.status, serve::Status::kOk) << "request " << id;
  }
  server.stop();
  service.stop();
  // Both Optimizes (wire and in-process) went through the queue.
  const auto counters = service.stats().counters(serve::Endpoint::kOptimize);
  EXPECT_EQ(counters.accepted, 2u);
  EXPECT_EQ(counters.ok, 2u);
}

TEST_F(NetE2E, GarbageBytesGetOneErrorFrameThenClose) {
  serve::ServiceOptions options;
  options.workers = 1;
  serve::TuningService service(options);
  service.publish(serve::make_snapshot(*rafiki_));
  service.start();
  Server server(service);
  ASSERT_TRUE(server.start()) << server.last_error();

  // Raw socket, no protocol: the server must answer with exactly one error
  // frame (request id 0 — no header could be believed) and hang up, instead
  // of crashing or stalling.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  const char garbage[] = "this is definitely not a frame header at all....";
  ASSERT_EQ(::send(fd, garbage, sizeof garbage, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof garbage));

  std::vector<std::uint8_t> received;
  std::uint8_t chunk[256];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;  // orderly FIN after the error frame
    received.insert(received.end(), chunk, chunk + n);
  }
  ::close(fd);

  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(received.data(), received.size(), kDefaultMaxPayload, frame,
                         consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(consumed, received.size());
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.request_id, 0u);
  EXPECT_EQ(frame.error, WireError::kBadFrame);
  EXPECT_EQ(service.stats().wire_counters().decode_errors, 1u);
  EXPECT_EQ(service.stats().wire_counters().error_frames_sent, 1u);

  // The same server keeps serving well-formed clients afterwards.
  Client client;
  ASSERT_EQ(client.connect("127.0.0.1", server.port()), NetStatus::kOk);
  EXPECT_TRUE(client.predict(0.3).ok());

  server.stop();
  service.stop();
}

TEST_F(NetE2E, ManyClientsAcrossIoThreads) {
  constexpr int kClients = 4;
  constexpr int kCallsPerClient = 10;

  serve::ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 256;
  serve::TuningService service(options);
  service.publish(serve::make_snapshot(*rafiki_));
  service.start();
  ServerOptions opts;
  opts.io_threads = 2;
  Server server(service, opts);
  ASSERT_TRUE(server.start()) << server.last_error();

  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (client.connect("127.0.0.1", server.port()) != NetStatus::kOk) {
        failures[static_cast<std::size_t>(c)] = kCallsPerClient;
        return;
      }
      for (int i = 0; i < kCallsPerClient; ++i) {
        const auto result = client.predict(0.2 + 0.01 * static_cast<double>(i));
        if (!result.ok()) ++failures[static_cast<std::size_t>(c)];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<std::size_t>(c)], 0) << "client " << c;
  }
  const auto counters = service.stats().wire_counters();
  EXPECT_EQ(counters.frames_in, static_cast<std::uint64_t>(kClients * kCallsPerClient));
  EXPECT_EQ(counters.frames_out, counters.frames_in);
  EXPECT_EQ(counters.decode_errors, 0u);
  EXPECT_EQ(counters.connections_accepted, static_cast<std::uint64_t>(kClients));

  server.stop();
  service.stop();
  // The wire table renders alongside the request table from the same sink.
  const auto text = service.stats().wire_table().render();
  EXPECT_NE(text.find("frames in"), std::string::npos);
}

// A client that floods pipelined requests but never reads responses must not
// let the server buffer without bound: once the connection's output backlog
// crosses the high-water mark the server stops *reading* it, so the client's
// own sends eventually hit EAGAIN. Meanwhile a well-behaved client on the
// same IO loop keeps making progress, and when the slow reader finally
// drains, every frame it managed to send comes back exactly once — partial
// writes resumed, nothing lost, nothing duplicated.
TEST_F(NetE2E, SlowReaderBackpressureBoundsBufferingWithoutStallingOthers) {
  constexpr std::uint64_t kRequests = 3000;

  serve::ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 256;
  serve::TuningService service(options);
  service.publish(serve::make_snapshot(*rafiki_));
  service.start();
  ServerOptions opts;
  opts.io_threads = 1;  // slow and fast client share one loop on purpose
  opts.max_output_buffer = 1 << 14;
  opts.so_sndbuf = 4096;  // pinned small so partial writes actually happen
  Server server(service, opts);
  ASSERT_TRUE(server.start()) << server.last_error();

  // Raw nonblocking socket with a tiny receive buffer (set before connect so
  // the window is negotiated small): kernel-side slack is minimal, so the
  // server's send() hits EAGAIN quickly once we stop reading.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  const int small_buf = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small_buf, sizeof small_buf), 0);
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &small_buf, sizeof small_buf), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ASSERT_EQ(errno, EINPROGRESS);
    pollfd pfd{fd, POLLOUT, 0};
    ASSERT_GT(::poll(&pfd, 1, 5000), 0);
  }

  // Each request carries a full explicit config so the flood dwarfs whatever
  // the kernel will buffer on either side of the loopback pair.
  std::vector<std::uint8_t> outbound;
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    auto request = predict_request(0.2 + 0.0001 * static_cast<double>(id));
    request.config = engine::Config::defaults();
    encode_request(id, request, outbound);
  }

  // Phase 1: push without reading until the pipe is wedged — our send blocked
  // on EAGAIN *and* the server has logged a short write of its own. That pair
  // proves the backlog is bounded on both sides of the connection.
  std::size_t pushed = 0;
  const auto pump_sends = [&]() -> bool {  // true while progress is possible
    while (pushed < outbound.size()) {
      const ssize_t n = ::send(fd, outbound.data() + pushed,
                               outbound.size() - pushed, MSG_NOSIGNAL);
      if (n > 0) {
        pushed += static_cast<std::size_t>(n);
        continue;
      }
      EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
          << "unexpected send errno " << errno;
      return false;
    }
    return true;
  };
  ASSERT_TRUE(spin_until([&] {
    return !pump_sends() &&
           service.stats().wire_counters().flush_eagain > 0;
  }));
  ASSERT_LT(pushed, outbound.size())
      << "server kept reading an unread connection; backpressure never engaged";

  // Phase 2: a polite client on the same (single) IO loop is not starved by
  // the wedged one.
  Client polite;
  ASSERT_EQ(polite.connect("127.0.0.1", server.port()), NetStatus::kOk);
  constexpr std::uint64_t kPoliteCalls = 3;
  for (std::uint64_t i = 0; i < kPoliteCalls; ++i) {
    ASSERT_TRUE(polite.predict(0.5 + 0.01 * static_cast<double>(i)).ok());
  }

  // Phase 3: start draining responses (and finish sending) — the server must
  // resume the paused read side and the parked partial write, answering every
  // request id exactly once with zero framing damage.
  std::vector<bool> seen(kRequests + 1, false);
  std::uint64_t answered = 0;
  std::vector<std::uint8_t> inbound;
  std::uint8_t chunk[4096];
  bool done_sending = false;
  for (int i = 0; i < 200000 && answered < kRequests; ++i) {
    if (!done_sending) done_sending = pump_sends();
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      inbound.insert(inbound.end(), chunk, chunk + n);
    } else if (n == 0) {
      break;  // premature FIN: the loop exit assertions will report it
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      break;
    } else {
      pollfd pfd{fd, static_cast<short>(POLLIN | (done_sending ? 0 : POLLOUT)), 0};
      ::poll(&pfd, 1, 10);
    }
    std::size_t offset = 0;
    for (;;) {
      Frame frame;
      std::size_t consumed = 0;
      if (decode_frame(inbound.data() + offset, inbound.size() - offset,
                       kDefaultMaxPayload, frame, consumed) != DecodeStatus::kOk) {
        break;
      }
      offset += consumed;
      ASSERT_EQ(frame.type, FrameType::kResponse);
      ASSERT_GE(frame.request_id, 1u);
      ASSERT_LE(frame.request_id, kRequests);
      ASSERT_FALSE(seen[frame.request_id]) << "duplicate response " << frame.request_id;
      seen[frame.request_id] = true;
      ++answered;
    }
    inbound.erase(inbound.begin(),
                  inbound.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  EXPECT_TRUE(done_sending);
  EXPECT_EQ(answered, kRequests);
  ::close(fd);

  server.stop();
  service.stop();
  const auto counters = service.stats().wire_counters();
  EXPECT_EQ(counters.frames_in, kRequests + kPoliteCalls);
  EXPECT_EQ(counters.frames_out, kRequests + kPoliteCalls);
  EXPECT_EQ(counters.decode_errors, 0u);
  EXPECT_GT(counters.flush_eagain, 0u);
}

// Satellite: every raw syscall in the server retries (or re-evaluates) on
// EINTR. A no-SA_RESTART handler plus a process-wide signal storm makes
// accept/recv/send/poll fail with EINTR constantly; pipelined load
// must still come back complete with zero framing damage.
TEST_F(NetE2E, SignalStormDuringPipelinedLoadDropsNoFrames) {
  struct sigaction action {};
  action.sa_handler = +[](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART: syscalls must cope
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  serve::ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 256;
  serve::TuningService service(options);
  service.publish(serve::make_snapshot(*rafiki_));
  service.start();
  ServerOptions opts;
  opts.io_threads = 2;
  Server server(service, opts);
  ASSERT_TRUE(server.start()) << server.last_error();

  std::atomic<bool> storm{true};
  std::thread bomber([&storm] {
    while (storm.load(std::memory_order_acquire)) {
      ::kill(::getpid(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  constexpr int kClients = 2;
  constexpr std::uint64_t kBurst = 32;
  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (client.connect("127.0.0.1", server.port()) != NetStatus::kOk) {
        failures[static_cast<std::size_t>(c)] = 1;
        return;
      }
      std::vector<std::uint64_t> ids;
      for (std::uint64_t i = 0; i < kBurst; ++i) {
        const auto id = client.send(predict_request(0.2 + 0.01 * static_cast<double>(i)));
        if (id == 0) {
          ++failures[static_cast<std::size_t>(c)];
          continue;
        }
        ids.push_back(id);
      }
      for (const auto id : ids) {
        const auto result = client.wait(id);
        if (result.net != NetStatus::kOk || !result.response.ok()) {
          ++failures[static_cast<std::size_t>(c)];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  storm.store(false, std::memory_order_release);
  bomber.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &previous, nullptr), 0);

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<std::size_t>(c)], 0) << "client " << c;
  }
  const auto counters = service.stats().wire_counters();
  EXPECT_EQ(counters.frames_in, static_cast<std::uint64_t>(kClients) * kBurst);
  EXPECT_EQ(counters.frames_out, counters.frames_in);
  EXPECT_EQ(counters.decode_errors, 0u);

  server.stop();
  service.stop();
}

}  // namespace
}  // namespace rafiki::net
