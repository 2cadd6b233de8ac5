#include "phases.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "net/client.h"
#include "net/wire.h"
#include "serve/service.h"
#include "tenant/fleet.h"
#include "util/rng.h"

namespace perfbench {

using namespace rafiki;

namespace {

constexpr double kWarmupShare = 0.1;  // of a phase, unmeasured
constexpr std::size_t kMinSlices = 10;
constexpr double kMaxSliceSeconds = 0.25;

}  // namespace

std::unique_ptr<Stack> start_stack(const Model& model, StackKind kind) {
  auto stack = std::make_unique<Stack>();
  serve::ServiceOptions service_options;
  service_options.workers = 2;
  if (kind == StackKind::kService) {
    stack->tuner = std::make_unique<core::OnlineTuner>(*model.rafiki);
    auto service = std::make_unique<serve::TuningService>(service_options);
    service->attach_tuner(*stack->tuner);
    stack->backend = std::move(service);
  } else {
    tenant::FleetOptions fleet_options;
    fleet_options.tenants = 4;
    fleet_options.shard.shards = 2;
    fleet_options.shard.service = service_options;
    auto fleet = std::make_unique<tenant::TenantFleet>(fleet_options);
    fleet->attach_rafiki(*model.rafiki);
    stack->backend = std::move(fleet);
    stack->tenants = 4;
  }
  stack->backend->publish(model.snapshot);
  stack->backend->start();
  net::ServerOptions server_options;
  server_options.io_threads = 2;
  stack->server = std::make_unique<net::Server>(*stack->backend, server_options);
  if (!stack->server->start()) {
    throw std::runtime_error("server start failed: " + stack->server->last_error());
  }
  return stack;
}

void stop_stack(Stack& stack) {
  stack.server->stop();
  stack.backend->stop();
}

namespace {

// Slices a measured interval and reports server CPU per verified answer in
// each slice, so a burst of host steal moves one slice, not the median.
class SliceMeter {
 public:
  explicit SliceMeter(double phase_s)
      : slice_(std::min(kMaxSliceSeconds, phase_s * (1.0 - kWarmupShare) / kMinSlices)),
        next_(phase_s * kWarmupShare + slice_) {}
  void tick(double elapsed_s, std::uint64_t ok, const ServerCpu& cpu,
            std::vector<double>& out) {
    if (!started_) {
      if (elapsed_s < next_ - slice_) return;
      started_ = true;
      cpu0_ = cpu.seconds();
      ok0_ = ok;
      next_ = elapsed_s + slice_;
      return;
    }
    if (elapsed_s < next_) return;
    const double c = cpu.seconds();
    if (ok > ok0_) out.push_back((c - cpu0_) * 1e6 / static_cast<double>(ok - ok0_));
    cpu0_ = c;
    ok0_ = ok;
    next_ = elapsed_s + slice_;
  }

 private:
  double slice_;
  double next_;
  bool started_ = false;
  double cpu0_ = 0.0;
  std::uint64_t ok0_ = 0;
};

void corrupt_answer(serve::Response& response) {
  response.mean = std::bit_cast<double>(std::bit_cast<std::uint64_t>(response.mean) ^ 1u);
}

PredictResult run_lone(Stack& stack, const std::vector<PredictCase>& cases,
                       const PredictOptions& options, SpanRecorder& spans) {
  PredictResult result;
  net::Client client;
  if (client.connect("127.0.0.1", stack.server->port()) != net::NetStatus::kOk) {
    throw std::runtime_error("connect failed");
  }
  const StealMeter steal;
  const ServerCpu cpu;
  SliceMeter slices(options.seconds);
  const auto start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    const double elapsed = seconds_since(start);
    slices.tick(elapsed, result.tally.ok, cpu, result.cpu_us_slices);
    if (elapsed >= options.seconds) break;
    const PredictCase& c = cases[i % cases.size()];
    const double t0 = spans.now_us();
    auto reply = client.predict(c.read_ratio, c.config);
    const double t1 = spans.now_us();
    ++result.tally.attempted;
    if (options.corrupt && i == 0) corrupt_answer(reply.response);
    if (reply.net == net::NetStatus::kOk && predict_matches(c, reply.response)) {
      ++result.tally.ok;
    }
    result.rtt_us.add(t1 - t0);
    spans.add(i, "wire.predict", "", t0, t1);
  }
  result.seconds = seconds_since(start);
  result.steal = steal.fraction();
  result.qps_wall = static_cast<double>(result.tally.attempted) / result.seconds;
  return result;
}

int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

// Writes the whole buffer, waiting for writability on EAGAIN.
bool send_all(int fd, const std::vector<std::uint8_t>& buf) {
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 100);
    } else {
      return false;
    }
  }
  return true;
}

struct RawConn {
  int fd = -1;
  serve::TenantId tenant = 0;
  std::uint64_t seq = 0;
  std::size_t in_flight = 0;
  bool dead = false;
  std::vector<std::uint8_t> rbuf;
  std::size_t rpos = 0;
  std::vector<std::uint8_t> wbuf;
  /// Send time per in-flight id, indexed by seq modulo the ring size.
  std::vector<double> sent_us;
};

constexpr std::size_t kRing = 1024;
constexpr std::size_t kMaxConns = 4;
constexpr std::size_t kSpanStride = 8;  // saturating runs trace every 8th request

PredictResult run_pipelined(Stack& stack, const std::vector<PredictCase>& cases,
                            const PredictOptions& options, SpanRecorder& spans) {
  if (options.connections > kMaxConns || options.depth >= kRing) {
    throw std::invalid_argument("pipelined generator: too many connections or too deep");
  }
  PredictResult result;
  std::vector<RawConn> conns(options.connections);
  for (std::size_t c = 0; c < conns.size(); ++c) {
    conns[c].fd = connect_raw(stack.server->port());
    conns[c].tenant = static_cast<serve::TenantId>(c % stack.tenants);
    conns[c].sent_us.assign(kRing, 0.0);
  }
  auto fill = [&](RawConn& conn, std::size_t count) {
    conn.wbuf.clear();
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint64_t id = (conn.seq << 2) | static_cast<std::uint64_t>(&conn - conns.data());
      net::encode_request(id, predict_request(cases[id % cases.size()], conn.tenant), conn.wbuf);
      conn.sent_us[conn.seq % kRing] = spans.now_us();
      ++conn.seq;
    }
    conn.in_flight += count;
    result.tally.attempted += count;
    if (!send_all(conn.fd, conn.wbuf)) conn.dead = true;
  };

  const StealMeter steal;
  const ServerCpu cpu;
  SliceMeter slices(options.seconds);
  const auto start = Clock::now();
  for (auto& conn : conns) fill(conn, options.depth);
  std::uint64_t answered = 0;
  bool stopping = false;
  std::vector<pollfd> pfds(conns.size());
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const double elapsed = seconds_since(start);
    slices.tick(elapsed, result.tally.ok, cpu, result.cpu_us_slices);
    if (!stopping && elapsed >= options.seconds) {
      stopping = true;
      result.seconds = elapsed;
    }
    std::size_t in_flight = 0;
    for (const auto& conn : conns) in_flight += conn.dead ? 0 : conn.in_flight;
    if (stopping && (in_flight == 0 || elapsed >= options.seconds + 5.0)) break;
    for (std::size_t c = 0; c < conns.size(); ++c) pfds[c] = {conns[c].fd, POLLIN, 0};
    if (::poll(pfds.data(), pfds.size(), 50) <= 0) continue;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      RawConn& conn = conns[c];
      if (conn.dead || pfds[c].revents == 0) continue;
      for (;;) {
        const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
        if (n > 0) {
          conn.rbuf.insert(conn.rbuf.end(), chunk, chunk + n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        conn.dead = true;  // closed or failed: its in-flight requests count as failed
        break;
      }
      std::size_t done = 0;
      const double now_us = spans.now_us();
      for (;;) {
        net::Frame frame;
        std::size_t consumed = 0;
        const auto status = net::decode_frame(conn.rbuf.data() + conn.rpos,
                                              conn.rbuf.size() - conn.rpos,
                                              net::kDefaultMaxPayload, frame, consumed);
        if (status == net::DecodeStatus::kNeedMore) break;
        if (status != net::DecodeStatus::kOk) {
          conn.dead = true;
          break;
        }
        conn.rpos += consumed;
        ++done;
        const std::uint64_t id = frame.request_id;
        if (options.corrupt && answered == 0) corrupt_answer(frame.response);
        ++answered;
        if (frame.type == net::FrameType::kResponse &&
            predict_matches(cases[id % cases.size()], frame.response)) {
          ++result.tally.ok;
        }
        const double sent = conn.sent_us[(id >> 2) % kRing];
        result.rtt_us.add(now_us - sent);
        if (answered % kSpanStride == 0) spans.add(id, "wire.predict", "", sent, now_us);
      }
      if (conn.rpos == conn.rbuf.size()) {
        conn.rbuf.clear();
        conn.rpos = 0;
      }
      conn.in_flight -= std::min(done, conn.in_flight);
      if (!stopping && !conn.dead && done > 0) fill(conn, done);
    }
  }
  if (!stopping) result.seconds = seconds_since(start);
  result.steal = steal.fraction();
  result.qps_wall = static_cast<double>(result.tally.ok) / result.seconds;
  for (auto& conn : conns) ::close(conn.fd);
  return result;
}

}  // namespace

PredictResult run_predict(Stack& stack, const std::vector<PredictCase>& cases,
                          const PredictOptions& options, SpanRecorder& spans) {
  if (options.connections == 1 && options.depth == 1) {
    return run_lone(stack, cases, options, spans);
  }
  return run_pipelined(stack, cases, options, spans);
}

Script make_script(std::uint64_t seed, std::size_t tenants, std::size_t optimize_every) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 3);
  const auto& rr = regimes();
  Script script(tenants);
  std::size_t optimizes = 0;
  for (auto& walk : script) {
    std::vector<std::size_t> order;
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<std::size_t> perm(rr.size());
      for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
      for (std::size_t i = perm.size() - 1; i > 0; --i) {
        std::swap(perm[i], perm[static_cast<std::size_t>(
                               rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
      }
      if (!order.empty() && order.back() == perm.front()) std::swap(perm[0], perm[1]);
      order.insert(order.end(), perm.begin(), perm.end());
    }
    for (std::size_t w = 0; w < order.size(); ++w) {
      Window window;
      window.read_ratio = rr[order[w]];
      if (w % optimize_every == optimize_every - 1) {
        window.optimize_rr = rr[optimizes++ % rr.size()];
      }
      walk.push_back(window);
    }
  }
  return script;
}

namespace {

constexpr std::size_t kPredictsPerWindow = 8;

// A reply that arrived but is not the answer: refused, transport error, or
// wrong endpoint — failed in every case.
bool reply_ok(const net::CallResult& reply) {
  return reply.net == net::NetStatus::kOk && reply.response.status == serve::Status::kOk;
}

}  // namespace

TuneResult run_tune(const Model& model, StackKind kind, const Script& script,
                    const std::vector<PredictCase>& regime_cases, double seconds,
                    SpanRecorder& spans) {
  TuneResult result;
  const std::size_t per_regime = regime_cases.size() / regimes().size();
  const StealMeter steal;
  const auto start = Clock::now();
  std::uint64_t request = 0;
  while (result.rounds == 0 || seconds_since(start) < seconds) {
    auto stack = start_stack(model, kind);
    const std::size_t tenants = std::min(stack->tenants, script.size());
    std::vector<std::unique_ptr<net::Client>> clients;
    for (std::size_t t = 0; t < tenants; ++t) {
      net::ClientOptions client_options;
      client_options.tenant = static_cast<serve::TenantId>(t);
      clients.push_back(std::make_unique<net::Client>(client_options));
      if (clients.back()->connect("127.0.0.1", stack->server->port()) != net::NetStatus::kOk) {
        throw std::runtime_error("connect failed");
      }
    }
    std::size_t windows = 0;
    std::vector<std::pair<std::size_t, double>> pending;  // (tenant, Optimize read ratio)
    const ServerCpu cpu;
    for (std::size_t w = 0; w < script[0].size(); ++w) {
      for (std::size_t t = 0; t < tenants; ++t) {
        net::Client& client = *clients[t];
        const Window& window = script[t][w];
        const std::size_t regime = static_cast<std::size_t>(
            std::find(regimes().begin(), regimes().end(), window.read_ratio) - regimes().begin());
        ++windows;

        const double w0 = spans.now_us();
        const auto observed = client.observe_window(window.read_ratio);
        const double w1 = spans.now_us();
        spans.add(request++, "wire.observe", "", w0, w1);
        ++result.tally.attempted;
        if (reply_ok(observed)) add_answer(result.observed, window.read_ratio, observed.response);

        std::uint64_t ids[kPredictsPerWindow];
        const PredictCase* expect[kPredictsPerWindow];
        const double p0 = spans.now_us();
        for (std::size_t k = 0; k < kPredictsPerWindow; ++k) {
          const std::size_t index =
              (result.rounds * 31 + w * kPredictsPerWindow + k) % per_regime;
          expect[k] = &regime_cases[regime * per_regime + index];
          ids[k] = client.send(predict_request(*expect[k], static_cast<serve::TenantId>(t)));
        }
        for (std::size_t k = 0; k < kPredictsPerWindow; ++k) {
          ++result.tally.attempted;
          if (ids[k] == 0) continue;
          const auto reply = client.wait(ids[k]);
          if (reply.net == net::NetStatus::kOk && predict_matches(*expect[k], reply.response)) {
            ++result.tally.ok;
          }
        }
        spans.add(request++, "wire.predict_x8", "", p0, spans.now_us());

        if (window.optimize_rr >= 0.0) pending.push_back({t, window.optimize_rr});
      }
    }
    // The script's Optimizes run once the background retrains are idle, so
    // each one is timed alone on the stack.
    stack->backend->wait_retrain_idle();
    const ServerCpu optimize_cpu;
    for (const auto& [t, rr] : pending) {
      const double o0 = spans.now_us();
      const auto optimized = clients[t]->optimize(rr);
      const double o1 = spans.now_us();
      spans.add(request++, "wire.optimize", "", o0, o1);
      ++result.tally.attempted;
      result.optimize_ms.add((o1 - o0) / 1e3);
      if (reply_ok(optimized)) add_answer(result.optimized, rr, optimized.response);
    }
    if (!pending.empty()) {
      result.optimize_cpu_ms.push_back(optimize_cpu.seconds() * 1e3 /
                                       static_cast<double>(pending.size()));
    }
    result.cpu_ms_per_window.push_back(cpu.seconds() * 1e3 / static_cast<double>(windows));
    for (std::size_t t = 0; t < tenants; ++t) {
      result.versions += stack->backend->tenant_model_version(static_cast<serve::TenantId>(t)) - 1;
    }
    clients.clear();
    stop_stack(*stack);
    ++result.rounds;
  }
  result.seconds = seconds_since(start);
  result.steal = steal.fraction();
  return result;
}

void add_answer(std::vector<ObservedAnswer>& answers, double read_ratio,
                const serve::Response& response) {
  for (auto& a : answers) {
    if (a.read_ratio == read_ratio && a.response.config == response.config &&
        a.response.reconfigured == response.reconfigured &&
        same_bits(a.response.predicted_throughput, response.predicted_throughput) &&
        a.response.surrogate_evaluations == response.surrogate_evaluations) {
      ++a.count;
      return;
    }
  }
  answers.push_back({read_ratio, response, 1});
}

std::uint64_t check_tune_answers(const TuneResult& result, const TuneReference& ref) {
  std::uint64_t ok = 0;
  for (const auto& a : result.optimized) {
    const auto it = ref.optimize.find(a.read_ratio);
    if (it != ref.optimize.end() && a.response.config == it->second.config &&
        same_bits(a.response.predicted_throughput, it->second.predicted_throughput) &&
        a.response.surrogate_evaluations == it->second.surrogate_evaluations) {
      ok += a.count;
    }
  }
  // A window answers the config tuned for its own regime when it adopts one
  // (reconfigured), and otherwise keeps serving the defaults or a config
  // tuned earlier for some regime.
  for (const auto& a : result.observed) {
    const auto& config = a.response.config;
    bool known = config == engine::Config::defaults();
    for (const auto& [rr, tuned] : ref.tuned) known = known || config == tuned;
    const auto own = ref.tuned.find(a.read_ratio);
    if (known && (!a.response.reconfigured || (own != ref.tuned.end() && config == own->second))) {
      ok += a.count;
    }
  }
  return ok;
}

}  // namespace perfbench
