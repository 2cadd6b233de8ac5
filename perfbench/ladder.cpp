#include "ladder.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>

#include "ml/matrix.h"
#include "net/client.h"
#include "net/wire.h"
#include "tenant/fleet.h"

namespace perfbench {

using namespace rafiki;

namespace {

// One in-process request at depth 1: try_submit, then block until the
// worker's callback fires.
serve::Response submit_and_wait(serve::TuningBackend& backend, serve::Request request) {
  // Shared with the callback: the worker may still be inside notify_one()
  // when the waiter wakes and returns.
  struct Slot {
    std::atomic<int> done{0};
    serve::Response response;
  };
  auto slot = std::make_shared<Slot>();
  const auto status = backend.try_submit(std::move(request), [slot](serve::Response r) {
    slot->response = std::move(r);
    slot->done.store(1, std::memory_order_release);
    slot->done.notify_one();
  });
  if (status != serve::Status::kOk) {
    serve::Response refused;
    refused.status = status;
    return refused;
  }
  slot->done.wait(0, std::memory_order_acquire);
  return slot->response;
}

ml::Matrix rows_of(const serve::ModelSnapshot& snapshot, const std::vector<PredictCase>& cases,
                   std::size_t first, std::size_t count) {
  ml::Matrix m(count, snapshot.ensemble.feature_count());
  for (std::size_t r = 0; r < count; ++r) {
    const auto& c = cases[(first + r) % cases.size()];
    const auto row = snapshot.feature_row(c.read_ratio, c.config);
    for (std::size_t k = 0; k < row.size(); ++k) m(r, k) = row[k];
  }
  return m;
}

// Request ids of the interleaved rung, clear of the workload phases' ids in
// the same span file.
constexpr std::uint64_t kLadderIds = 1ull << 40;

// Written after timed forwards so the compiler cannot drop them.
volatile double g_forward_sink = 0.0;

// Median ns per row of the batched forward at one batch size.
double forward_ns_per_row(const serve::ModelSnapshot& snapshot,
                          const std::vector<PredictCase>& cases, std::size_t batch,
                          double seconds) {
  std::vector<ml::Matrix> inputs;
  for (std::size_t i = 0; i < 16; ++i) inputs.push_back(rows_of(snapshot, cases, i * batch, batch));
  const std::size_t calls = std::max<std::size_t>(1, 4096 / batch);
  std::vector<double> blocks;
  const auto start = Clock::now();
  double sink = 0.0;
  while (blocks.size() < 5 || seconds_since(start) < seconds) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) {
      sink += snapshot.ensemble.predict_batch_with_uncertainty(inputs[i % inputs.size()])[0].mean;
    }
    blocks.push_back(seconds_since(t0) * 1e9 / static_cast<double>(calls * batch));
  }
  g_forward_sink = sink;
  return median(blocks);
}

struct InProcess {
  Tally tally;
  double cpu_us = 0.0;  ///< server CPU per verified answer
  std::vector<double> rtt_us;
};

// Depth-1 loop through try_submit; `tenants` > 1 round-robins the tenant.
InProcess in_process_d1(serve::TuningBackend& backend, const std::vector<PredictCase>& cases,
                        std::size_t tenants, double seconds) {
  InProcess out;
  const ServerCpu cpu;
  const auto start = Clock::now();
  for (std::size_t i = 0; seconds_since(start) < seconds; ++i) {
    const auto& c = cases[i % cases.size()];
    const auto t0 = Clock::now();
    const auto response = submit_and_wait(
        backend, predict_request(c, static_cast<serve::TenantId>(i % tenants)));
    out.rtt_us.push_back(seconds_since(t0) * 1e6);
    ++out.tally.attempted;
    if (predict_matches(c, response)) ++out.tally.ok;
  }
  out.cpu_us = out.tally.ok ? cpu.seconds() * 1e6 / static_cast<double>(out.tally.ok) : 0.0;
  return out;
}

// Keeps `depth` requests in flight through try_submit callbacks.
InProcess in_process_saturate(serve::TuningBackend& backend,
                              const std::vector<PredictCase>& cases, std::size_t depth,
                              double seconds, std::uint64_t& rejected) {
  InProcess out;
  // Shared with the callbacks, which may outlive the final wait by a notify.
  struct Counters {
    std::atomic<std::size_t> in_flight{0};
    std::atomic<std::uint64_t> ok{0};
  };
  auto shared = std::make_shared<Counters>();
  auto& in_flight = shared->in_flight;
  const ServerCpu cpu;
  const auto start = Clock::now();
  for (std::size_t i = 0; seconds_since(start) < seconds; ++i) {
    std::size_t now = in_flight.load(std::memory_order_acquire);
    while (now >= depth) {
      in_flight.wait(now, std::memory_order_acquire);
      now = in_flight.load(std::memory_order_acquire);
    }
    const PredictCase* c = &cases[i % cases.size()];
    in_flight.fetch_add(1, std::memory_order_acq_rel);
    ++out.tally.attempted;
    const auto status =
        backend.try_submit(predict_request(*c), [c, shared](serve::Response r) {
          if (predict_matches(*c, r)) shared->ok.fetch_add(1, std::memory_order_relaxed);
          shared->in_flight.fetch_sub(1, std::memory_order_acq_rel);
          shared->in_flight.notify_one();
        });
    if (status != serve::Status::kOk) {
      ++rejected;
      in_flight.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  for (std::size_t now = in_flight.load(); now != 0; now = in_flight.load()) in_flight.wait(now);
  out.tally.ok = shared->ok.load();
  out.cpu_us = out.tally.ok ? cpu.seconds() * 1e6 / static_cast<double>(out.tally.ok) : 0.0;
  return out;
}

}  // namespace

LadderResult run_ladder(const Model& model, const std::vector<PredictCase>& cases,
                        double seconds, SpanRecorder& spans) {
  LadderResult out;
  auto& m = out.metrics;
  const auto& snapshot = model.snapshot;
  const double rung = seconds / 10.0;

  // --- ml: the batched forward the serve batcher calls, at batch 1 and 32.
  m["ml.row_ns.b1"] = {forward_ns_per_row(snapshot, cases, 1, rung * 0.5), "ns"};
  m["ml.row_ns.b32"] = {forward_ns_per_row(snapshot, cases, 32, rung * 0.5), "ns"};
  m["ml.train_s"] = {model.train_s, "s"};
  m["collect.s"] = {model.collect_s, "s"};
  m["engine.ops_per_s"] = {static_cast<double>(model.engine_ops) / model.collect_s, "1/s"};

  // --- opt: the GA the Optimize endpoint runs, on the published snapshot.
  {
    std::vector<double> ms;
    std::size_t evals = 0;
    const auto start = Clock::now();
    while (ms.size() < 3 || seconds_since(start) < rung) {
      const auto t0 = Clock::now();
      evals = optimize_like_service(snapshot, regimes()[2]).evaluations;
      ms.push_back(seconds_since(t0) * 1e3);
    }
    m["opt.ga_ms"] = {median(ms), "ms"};
    m["opt.ga_evals"] = {static_cast<double>(evals), "count"};
  }

  // --- net codec: encode + decode of one Predict request and its response.
  {
    std::vector<std::uint8_t> buf;
    net::Frame frame;
    std::size_t consumed = 0;
    serve::Response response;
    response.model_version = 1;
    response.mean = cases[0].mean;
    response.stddev = cases[0].stddev;
    std::vector<double> blocks;
    const auto start = Clock::now();
    while (blocks.size() < 5 || seconds_since(start) < rung * 0.25) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < 2000; ++i) {
        buf.clear();
        net::encode_request(i, predict_request(cases[i % cases.size()]), buf);
        net::decode_frame(buf.data(), buf.size(), net::kDefaultMaxPayload, frame, consumed);
        buf.clear();
        net::encode_response(i, serve::Endpoint::kPredict, response, buf);
        net::decode_frame(buf.data(), buf.size(), net::kDefaultMaxPayload, frame, consumed);
      }
      blocks.push_back(seconds_since(t0) * 1e9 / 2000.0);
    }
    m["net.codec_ns"] = {median(blocks), "ns"};
  }

  // One stack as the predict workloads build it serves the serve, net,
  // ladder and retrain rungs; in-process rungs call its backend directly.
  auto stack = start_stack(model, StackKind::kService);
  serve::TuningBackend& service = *stack->backend;

  // --- serve, in-process: depth 1 and saturation, no sockets.
  std::uint64_t serve_rejected = 0;
  const InProcess serve_d1 = in_process_d1(service, cases, 1, rung);
  const InProcess serve_sat = in_process_saturate(service, cases, 128, rung, serve_rejected);
  m["serve.batch_mean"] = {service.mean_batch_size(), "count"};
  m["serve.rtt_us.d1"] = {median(serve_d1.rtt_us), "us"};
  m["serve.cpu_us.d1"] = {serve_d1.cpu_us, "us"};
  m["serve.cpu_us.sat"] = {serve_sat.cpu_us, "us"};
  m["serve.rejected"] = {static_cast<double>(serve_rejected), "count"};
  out.tally.add(serve_d1.tally);
  out.tally.add(serve_sat.tally);

  // --- net over loopback: the same requests through net::Server.
  {
    SpanRecorder off(false);
    PredictOptions lone;
    lone.seconds = rung;
    const auto d1 = run_predict(*stack, cases, lone, off);
    const auto before = service.stats().wire_counters();
    PredictOptions sat;
    sat.seconds = rung;
    sat.connections = 4;
    sat.depth = 32;
    const auto saturated = run_predict(*stack, cases, sat, off);
    const auto after = service.stats().wire_counters();
    m["net.cpu_us.d1"] = {median(d1.cpu_us_slices) - serve_d1.cpu_us, "us"};
    m["net.cpu_us.sat"] = {median(saturated.cpu_us_slices) - serve_sat.cpu_us, "us"};
    const double frames = static_cast<double>(after.frames_out - before.frames_out);
    const double flushes = static_cast<double>(after.flushes - before.flushes);
    const double syscalls = static_cast<double>(after.flush_syscalls - before.flush_syscalls);
    m["net.syscalls_per_frame"] = {frames > 0 ? syscalls / frames : 0.0, "count"};
    const double flushed = static_cast<double>(after.flushed_frames - before.flushed_frames);
    m["net.frames_per_flush"] = {flushes > 0 ? flushed / flushes : 0.0, "count"};
    out.tally.add(d1.tally);
    out.tally.add(saturated.tally);
  }

  // --- the ladder proper: each request replayed at every layer boundary,
  // ml forward ⊂ in-process serve ⊂ wire, spans sharing the request id.
  {
    net::Client client;
    if (client.connect("127.0.0.1", stack->server->port()) != net::NetStatus::kOk) {
      throw std::runtime_error("connect failed");
    }
    std::vector<double> ml_self, serve_self, net_self, wire;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; seconds_since(start) < rung * 2.0; ++i) {
      const auto& c = cases[i % cases.size()];
      const auto row = rows_of(snapshot, cases, i, 1);
      const double a0 = spans.now_us();
      const auto forward = snapshot.ensemble.predict_batch_with_uncertainty(row);
      const double a1 = spans.now_us();
      const auto served = submit_and_wait(service, predict_request(c));
      const double b1 = spans.now_us();
      const auto reply = client.predict(c.read_ratio, c.config);
      const double c1 = spans.now_us();
      const bool forward_ok =
          same_bits(forward[0].mean, c.mean) && same_bits(forward[0].stddev, c.stddev);
      out.tally.attempted += 3;
      out.tally.ok += forward_ok ? 1 : 0;
      out.tally.ok += predict_matches(c, served) ? 1 : 0;
      const bool wire_ok = reply.net == net::NetStatus::kOk && predict_matches(c, reply.response);
      out.tally.ok += wire_ok ? 1 : 0;
      const std::uint64_t id = kLadderIds + i;
      spans.add(id, "ml.forward", "serve.predict", a0, a1);
      spans.add(id, "serve.predict", "wire.predict", a1, b1);
      spans.add(id, "wire.predict", "", b1, c1);
      ml_self.push_back(a1 - a0);
      serve_self.push_back((b1 - a1) - (a1 - a0));
      net_self.push_back((c1 - b1) - (b1 - a1));
      wire.push_back(c1 - b1);
    }
    const double self_sum = median(ml_self) + median(serve_self) + median(net_self);
    m["ladder.ml_self_us"] = {median(ml_self), "us"};
    m["ladder.serve_self_us"] = {median(serve_self), "us"};
    m["ladder.net_self_us"] = {median(net_self), "us"};
    m["ladder.wire_rtt_us"] = {median(wire), "us"};
    // The median self times should add up to the median wire round trip.
    m["ladder.self_sum_frac"] = {self_sum / median(wire), "ratio"};
  }

  // --- core: the online tuner's hit path, then the stack's background
  // retrain (each regime's first ObserveWindow misses and republishes).
  {
    core::OnlineTuner standalone(*model.rafiki);
    standalone.on_window(regimes()[1]);  // miss: optimizes inline
    std::vector<double> blocks;
    const auto start = Clock::now();
    while (blocks.size() < 5 || seconds_since(start) < rung * 0.25) {
      const auto t0 = Clock::now();
      for (int i = 0; i < 200; ++i) standalone.on_window(regimes()[1]);
      blocks.push_back(seconds_since(t0) * 1e6 / 200.0);
    }
    m["core.window_us"] = {median(blocks), "us"};

    const auto version0 = service.model_version();
    std::vector<double> retrain_ms;
    for (double rr : regimes()) {
      serve::Request r;
      r.endpoint = serve::Endpoint::kObserveWindow;
      r.read_ratio = rr;
      const auto t0 = Clock::now();
      const auto response = submit_and_wait(service, r);
      service.wait_retrain_idle();
      retrain_ms.push_back(seconds_since(t0) * 1e3);
      ++out.tally.attempted;
      if (response.ok() && response.stale) ++out.tally.ok;
    }
    m["core.retrain_ms"] = {median(retrain_ms), "ms"};
    m["core.versions"] = {static_cast<double>(service.model_version() - version0), "count"};
  }
  stop_stack(*stack);

  // --- tenant: the fleet's admission and routing on top of the service.
  {
    auto fleet_stack = start_stack(model, StackKind::kFleet);
    auto& fleet = dynamic_cast<tenant::TenantFleet&>(*fleet_stack->backend);
    const auto d1 = in_process_d1(fleet, cases, fleet_stack->tenants, rung);
    const auto counters = fleet.fleet_counters();
    stop_stack(*fleet_stack);
    m["tenant.cpu_us"] = {d1.cpu_us - serve_d1.cpu_us, "us"};
    const auto rejected = counters.quota_rejected + counters.inflight_rejected;
    m["tenant.rejected"] = {static_cast<double>(rejected), "count"};
    out.tally.add(d1.tally);
  }
  return out;
}

}  // namespace perfbench
