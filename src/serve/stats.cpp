#include "serve/stats.h"

#include <algorithm>

namespace rafiki::serve {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

/// Latency histogram range [0, kLatencyHiUs) in microseconds, in
/// kLatencyBins uniform bins (50 us each); samples beyond are clamped into
/// the last bin.
constexpr double kLatencyHiUs = 20000.0;
constexpr std::size_t kLatencyBins = 400;
/// Hot-path stripe count. Each recording thread lands on one stripe; 8
/// covers typical worker pools.
constexpr std::size_t kStripes = 8;

/// Stripe slot for the calling thread. Slots are handed out by an atomic
/// ticket counter on first use (NOT by hashing the thread id, which the
/// determinism lint bans); reduced modulo the stripe count, so with stripes >=
/// worker-pool size each worker effectively owns a slab.
std::size_t thread_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot = next.fetch_add(1, kRelaxed);
  return slot;
}

Histogram latency_histogram() { return Histogram(0.0, kLatencyHiUs, kLatencyBins); }

}  // namespace

const char* endpoint_name(Endpoint endpoint) noexcept {
  switch (endpoint) {
    case Endpoint::kPredict:
      return "Predict";
    case Endpoint::kOptimize:
      return "Optimize";
    case Endpoint::kObserveWindow:
      return "ObserveWindow";
  }
  return "?";
}

const char* status_name(Status status) noexcept {
  switch (status) {
    case Status::kOk:
      return "Ok";
    case Status::kOverloaded:
      return "Overloaded";
    case Status::kDeadlineExceeded:
      return "DeadlineExceeded";
    case Status::kNotReady:
      return "NotReady";
    case Status::kShuttingDown:
      return "ShuttingDown";
  }
  return "?";
}

// --- AtomicHist -------------------------------------------------------------

ServiceStats::AtomicHist::AtomicHist(double lo_in, double hi_in, std::size_t n)
    : lo(lo_in),
      hi(hi_in),
      width((hi_in - lo_in) / static_cast<double>(n ? n : 1)),
      bins(n ? n : 1) {}

void ServiceStats::AtomicHist::add(double x, std::uint64_t count) noexcept {
  // Same clamping rule as util/Histogram::add so the merged view is
  // bin-for-bin identical to what the old single histogram recorded.
  std::size_t bin;
  if (x < lo) {
    bin = 0;
  } else if (x >= hi) {
    bin = bins.size() - 1;
  } else {
    bin = static_cast<std::size_t>((x - lo) / width);
    bin = std::min(bin, bins.size() - 1);
  }
  bins[bin].fetch_add(count, kRelaxed);
}

void ServiceStats::AtomicHist::merge_into(Histogram& out) const noexcept {
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const std::uint64_t n = bins[i].load(kRelaxed);
    if (n == 0) continue;
    // Bin midpoint lands back in bin i of any histogram with the same
    // [lo, hi)/bin-count layout.
    out.add_binned(lo + (static_cast<double>(i) + 0.5) * width,
                   static_cast<std::size_t>(n));
  }
}

// --- stripe construction ----------------------------------------------------

ServiceStats::EndpointStripe::EndpointStripe()
    : latency(0.0, kLatencyHiUs, kLatencyBins), wire_latency(0.0, kLatencyHiUs, kLatencyBins) {}

ServiceStats::Stripe::Stripe() {
  per_endpoint.reserve(kEndpointCount);
  for (std::size_t i = 0; i < kEndpointCount; ++i)
    per_endpoint.push_back(std::make_unique<EndpointStripe>());
}

ServiceStats::ServiceStats() {
  stripes_.reserve(kStripes);
  for (std::size_t i = 0; i < kStripes; ++i) stripes_.push_back(std::make_unique<Stripe>());
}

ServiceStats::Stripe& ServiceStats::stripe() noexcept {
  return *stripes_[thread_slot() % kStripes];
}

// --- record path (relaxed atomics only; no locks) ---------------------------

void ServiceStats::record_accept(Endpoint endpoint, std::size_t queue_depth) {
  Stripe& s = stripe();
  s.per_endpoint[static_cast<std::size_t>(endpoint)]->counters[kIdxAccepted].fetch_add(
      1, kRelaxed);
  s.depth_stats.add(static_cast<double>(queue_depth));
}

void ServiceStats::record_reject(Endpoint endpoint, Status reason) {
  auto& per = endpoint_stripe(endpoint);
  const std::size_t idx =
      reason == Status::kShuttingDown ? kIdxRejShutdown : kIdxRejOverload;
  per.counters[idx].fetch_add(1, kRelaxed);
}

void ServiceStats::record_done(Endpoint endpoint, Status status, double latency_us) {
  add_completions(endpoint_stripe(endpoint), status, 1, latency_us);
}

void ServiceStats::record_answered(Endpoint endpoint, Status status, std::size_t count,
                                   double latency_us) {
  auto& per = endpoint_stripe(endpoint);
  per.counters[kIdxAccepted].fetch_add(count, kRelaxed);
  add_completions(per, status, count, latency_us);
}

void ServiceStats::add_completions(EndpointStripe& per, Status status, std::uint64_t count,
                                   double latency_us) noexcept {
  per.counters[kIdxCompleted].fetch_add(count, kRelaxed);
  std::size_t idx = kIdxFailedOverload;
  switch (status) {
    case Status::kOk:
      idx = kIdxOk;
      break;
    case Status::kDeadlineExceeded:
      idx = kIdxRejDeadline;
      break;
    case Status::kNotReady:
      idx = kIdxNotReady;
      break;
    // These two were *accepted* and only failed afterwards (e.g. drained
    // with kShuttingDown by stop()); they must not pollute the
    // admission-reject counters that record_reject owns.
    case Status::kShuttingDown:
      idx = kIdxFailedShutdown;
      break;
    case Status::kOverloaded:
      idx = kIdxFailedOverload;
      break;
  }
  per.counters[idx].fetch_add(count, kRelaxed);
  per.latency.add(latency_us, count);
  per.latency_stats.add(latency_us, count);
}

void ServiceStats::record_stale(Endpoint endpoint) {
  endpoint_stripe(endpoint).counters[kIdxStale].fetch_add(1, kRelaxed);
}

void ServiceStats::record_batch(std::size_t batch_size) {
  stripe().batch_stats.add(static_cast<double>(batch_size));
}

void ServiceStats::record_connection_open() {
  stripe().wire[kIdxConnOpen].fetch_add(1, kRelaxed);
}

void ServiceStats::record_connection_close() {
  stripe().wire[kIdxConnClosed].fetch_add(1, kRelaxed);
}

void ServiceStats::record_wire_read(std::size_t bytes) {
  stripe().wire[kIdxBytesIn].fetch_add(bytes, kRelaxed);
}

void ServiceStats::record_wire_write(std::size_t bytes) {
  stripe().wire[kIdxBytesOut].fetch_add(bytes, kRelaxed);
}

void ServiceStats::record_frame_in() { stripe().wire[kIdxFramesIn].fetch_add(1, kRelaxed); }

void ServiceStats::record_frame_out() { stripe().wire[kIdxFramesOut].fetch_add(1, kRelaxed); }

void ServiceStats::record_decode_error() {
  stripe().wire[kIdxDecodeErr].fetch_add(1, kRelaxed);
}

void ServiceStats::record_error_frame() {
  stripe().wire[kIdxErrFrames].fetch_add(1, kRelaxed);
}

void ServiceStats::record_wire_flush(std::size_t frames, std::size_t syscalls,
                                     bool hit_eagain) {
  auto& wire = stripe().wire;
  wire[kIdxFlushes].fetch_add(1, kRelaxed);
  wire[kIdxFlushSyscalls].fetch_add(syscalls, kRelaxed);
  wire[kIdxFlushedFrames].fetch_add(frames, kRelaxed);
  if (hit_eagain) wire[kIdxFlushEagain].fetch_add(1, kRelaxed);
}

void ServiceStats::record_wire_latency(Endpoint endpoint, double latency_us) {
  auto& per = endpoint_stripe(endpoint);
  per.wire_latency.add(latency_us);
  per.wire_stats.add(latency_us);
}

void ServiceStats::record_retrain(double latency_us) {
  retrain_counters_[0].fetch_add(1, kRelaxed);
  retrain_stats_.add(latency_us);
}

void ServiceStats::record_retrain_rejected() {
  retrain_counters_[1].fetch_add(1, kRelaxed);
}

void ServiceStats::record_retrain_cancelled() {
  retrain_counters_[2].fetch_add(1, kRelaxed);
}

void ServiceStats::record_tenant_admit() { fleet_counters_[0].fetch_add(1, kRelaxed); }

void ServiceStats::record_quota_reject() { fleet_counters_[1].fetch_add(1, kRelaxed); }

void ServiceStats::record_inflight_reject() {
  fleet_counters_[2].fetch_add(1, kRelaxed);
}

void ServiceStats::record_unknown_tenant() {
  fleet_counters_[3].fetch_add(1, kRelaxed);
}

// --- read path (merge-on-read over stripes) ---------------------------------

void ServiceStats::Counters::merge(const Counters& other) noexcept {
  accepted += other.accepted;
  completed += other.completed;
  ok += other.ok;
  rejected_overload += other.rejected_overload;
  rejected_deadline += other.rejected_deadline;
  not_ready += other.not_ready;
  rejected_shutdown += other.rejected_shutdown;
  failed_shutdown += other.failed_shutdown;
  failed_overload += other.failed_overload;
  stale += other.stale;
}

std::uint64_t ServiceStats::sum_counter(Endpoint endpoint, std::size_t idx) const noexcept {
  std::uint64_t sum = 0;
  for (const auto& s : stripes_)
    sum += s->per_endpoint[static_cast<std::size_t>(endpoint)]->counters[idx].load(kRelaxed);
  return sum;
}

void ServiceStats::fill_counters(Endpoint endpoint, Counters& out) const noexcept {
  out.accepted = sum_counter(endpoint, kIdxAccepted);
  out.completed = sum_counter(endpoint, kIdxCompleted);
  out.ok = sum_counter(endpoint, kIdxOk);
  out.rejected_overload = sum_counter(endpoint, kIdxRejOverload);
  out.rejected_deadline = sum_counter(endpoint, kIdxRejDeadline);
  out.not_ready = sum_counter(endpoint, kIdxNotReady);
  out.rejected_shutdown = sum_counter(endpoint, kIdxRejShutdown);
  out.failed_shutdown = sum_counter(endpoint, kIdxFailedShutdown);
  out.failed_overload = sum_counter(endpoint, kIdxFailedOverload);
  out.stale = sum_counter(endpoint, kIdxStale);
}

ServiceStats::Counters ServiceStats::counters(Endpoint endpoint) const {
  Counters out;
  fill_counters(endpoint, out);
  return out;
}

ServiceStats::Counters ServiceStats::totals() const {
  Counters sum;
  for (std::size_t i = 0; i < kEndpointCount; ++i) {
    Counters per;
    fill_counters(static_cast<Endpoint>(i), per);
    sum.merge(per);
  }
  return sum;
}

ServiceStats::EndpointAggregate::EndpointAggregate()
    : latency(latency_histogram()), wire_latency(latency_histogram()) {}

double ServiceStats::EndpointAggregate::mean_latency_us() const noexcept {
  return latency_count ? latency_sum / static_cast<double>(latency_count) : 0.0;
}

void ServiceStats::EndpointAggregate::merge(const EndpointAggregate& other) noexcept {
  counters.merge(other.counters);
  latency.merge(other.latency);
  wire_latency.merge(other.wire_latency);
  latency_count += other.latency_count;
  latency_sum += other.latency_sum;
  wire_count += other.wire_count;
  wire_sum += other.wire_sum;
}

ServiceStats::EndpointAggregate ServiceStats::endpoint_aggregate(Endpoint endpoint) const {
  EndpointAggregate agg;
  fill_counters(endpoint, agg.counters);
  for (const auto& s : stripes_) {
    const auto& per = *s->per_endpoint[static_cast<std::size_t>(endpoint)];
    per.latency.merge_into(agg.latency);
    per.wire_latency.merge_into(agg.wire_latency);
    agg.latency_count += per.latency_stats.n.load(kRelaxed);
    agg.latency_sum += per.latency_stats.sum.load(kRelaxed);
    agg.wire_count += per.wire_stats.n.load(kRelaxed);
    agg.wire_sum += per.wire_stats.sum.load(kRelaxed);
  }
  return agg;
}

ServiceStats::RetrainCounters ServiceStats::retrain_counters() const {
  RetrainCounters out;
  out.runs = retrain_counters_[0].load(kRelaxed);
  out.rejected = retrain_counters_[1].load(kRelaxed);
  out.cancelled = retrain_counters_[2].load(kRelaxed);
  return out;
}

ServiceStats::FleetCounters ServiceStats::fleet_counters() const {
  FleetCounters out;
  out.admitted = fleet_counters_[0].load(kRelaxed);
  out.quota_rejected = fleet_counters_[1].load(kRelaxed);
  out.inflight_rejected = fleet_counters_[2].load(kRelaxed);
  out.unknown_tenant = fleet_counters_[3].load(kRelaxed);
  return out;
}

ServiceStats::WireCounters ServiceStats::wire_counters() const {
  WireCounters out;
  add_wire_counters(out);
  return out;
}

void ServiceStats::add_wire_counters(WireCounters& out) const noexcept {
  for (const auto& s : stripes_) {
    out.connections_accepted += s->wire[kIdxConnOpen].load(kRelaxed);
    out.connections_closed += s->wire[kIdxConnClosed].load(kRelaxed);
    out.frames_in += s->wire[kIdxFramesIn].load(kRelaxed);
    out.frames_out += s->wire[kIdxFramesOut].load(kRelaxed);
    out.decode_errors += s->wire[kIdxDecodeErr].load(kRelaxed);
    out.error_frames_sent += s->wire[kIdxErrFrames].load(kRelaxed);
    out.bytes_in += s->wire[kIdxBytesIn].load(kRelaxed);
    out.bytes_out += s->wire[kIdxBytesOut].load(kRelaxed);
    out.flushes += s->wire[kIdxFlushes].load(kRelaxed);
    out.flush_syscalls += s->wire[kIdxFlushSyscalls].load(kRelaxed);
    out.flushed_frames += s->wire[kIdxFlushedFrames].load(kRelaxed);
    out.flush_eagain += s->wire[kIdxFlushEagain].load(kRelaxed);
  }
}

void ServiceStats::fold_into(Telemetry& out) const {
  for (std::size_t i = 0; i < kEndpointCount; ++i) {
    out.endpoints[i].merge(endpoint_aggregate(static_cast<Endpoint>(i)));
  }
  const RetrainCounters retrain = retrain_counters();
  out.retrain.runs += retrain.runs;
  out.retrain.rejected += retrain.rejected;
  out.retrain.cancelled += retrain.cancelled;
  out.retrain_latency_sum_us += retrain_stats_.sum.load(kRelaxed);
  for (const auto& s : stripes_) {
    // Batch sizes are whole numbers, so the double sum is exact.
    out.batch_rows += static_cast<std::uint64_t>(s->batch_stats.sum.load(kRelaxed));
    out.batches += s->batch_stats.n.load(kRelaxed);
  }
  const FleetCounters fleet = fleet_counters();
  out.fleet.admitted += fleet.admitted;
  out.fleet.quota_rejected += fleet.quota_rejected;
  out.fleet.inflight_rejected += fleet.inflight_rejected;
  out.fleet.unknown_tenant += fleet.unknown_tenant;
  add_wire_counters(out.wire);
}

double ServiceStats::latency_quantile(Endpoint endpoint, double q) const {
  Histogram merged = latency_histogram();
  for (const auto& s : stripes_)
    s->per_endpoint[static_cast<std::size_t>(endpoint)]->latency.merge_into(merged);
  return merged.quantile(q);
}

double ServiceStats::wire_latency_quantile(Endpoint endpoint, double q) const {
  Histogram merged = latency_histogram();
  for (const auto& s : stripes_)
    s->per_endpoint[static_cast<std::size_t>(endpoint)]->wire_latency.merge_into(merged);
  return merged.quantile(q);
}

double ServiceStats::mean_batch_size() const {
  std::uint64_t n = 0;
  double sum = 0.0;
  for (const auto& s : stripes_) {
    n += s->batch_stats.n.load(kRelaxed);
    sum += s->batch_stats.sum.load(kRelaxed);
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

double ServiceStats::mean_queue_depth() const {
  std::uint64_t n = 0;
  double sum = 0.0;
  for (const auto& s : stripes_) {
    n += s->depth_stats.n.load(kRelaxed);
    sum += s->depth_stats.sum.load(kRelaxed);
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

double ServiceStats::max_queue_depth() const {
  double mx = 0.0;
  for (const auto& s : stripes_)
    if (s->depth_stats.n.load(kRelaxed)) mx = std::max(mx, s->depth_stats.max.load(kRelaxed));
  return mx;
}

std::uint64_t ServiceStats::batches() const {
  std::uint64_t sum = 0;
  for (const auto& s : stripes_) sum += s->batch_stats.n.load(kRelaxed);
  return sum;
}

Table ServiceStats::table() const {
  Telemetry telemetry;
  fold_into(telemetry);
  return telemetry.table();
}

Table ServiceStats::wire_table() const {
  const WireCounters wire = wire_counters();
  Table table({"metric", "value"});
  table.add_row({"connections accepted", std::to_string(wire.connections_accepted)});
  table.add_row({"connections active", std::to_string(wire.active())});
  table.add_row({"frames in", std::to_string(wire.frames_in)});
  table.add_row({"frames out", std::to_string(wire.frames_out)});
  table.add_row({"decode errors", std::to_string(wire.decode_errors)});
  table.add_row({"error frames sent", std::to_string(wire.error_frames_sent)});
  table.add_row({"bytes in", std::to_string(wire.bytes_in)});
  table.add_row({"bytes out", std::to_string(wire.bytes_out)});
  table.add_row({"wire flushes", std::to_string(wire.flushes)});
  table.add_row({"flush syscalls", std::to_string(wire.flush_syscalls)});
  table.add_row({"flush EAGAIN", std::to_string(wire.flush_eagain)});
  table.add_row({"frames per flush", Table::num(wire.frames_per_flush(), 2)});
  table.add_row({"flush syscalls per frame", Table::num(wire.flush_syscalls_per_frame(), 3)});
  for (std::size_t i = 0; i < kEndpointCount; ++i) {
    const auto endpoint = static_cast<Endpoint>(i);
    const std::string name = endpoint_name(endpoint);
    table.add_row({name + " wire p50 us", Table::num(wire_latency_quantile(endpoint, 0.5), 1)});
    table.add_row({name + " wire p99 us", Table::num(wire_latency_quantile(endpoint, 0.99), 1)});
  }
  return table;
}

// --- Telemetry --------------------------------------------------------------

Telemetry::Telemetry() : endpoints(kEndpointCount) {}

double Telemetry::latency_quantile(Endpoint endpoint, double q) const {
  return endpoints[static_cast<std::size_t>(endpoint)].latency.quantile(q);
}

double Telemetry::mean_batch_size() const noexcept {
  return batches ? static_cast<double>(batch_rows) / static_cast<double>(batches) : 0.0;
}

double Telemetry::mean_retrain_latency_us() const noexcept {
  return retrain.runs ? retrain_latency_sum_us / static_cast<double>(retrain.runs) : 0.0;
}

Table Telemetry::table() const {
  Table table({"endpoint", "accepted", "ok", "stale", "overloaded", "deadline",
               "not ready", "failed", "p50 us", "p99 us", "mean us"});
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    const auto& agg = endpoints[i];
    table.add_row({endpoint_name(static_cast<Endpoint>(i)),
                   std::to_string(agg.counters.accepted), std::to_string(agg.counters.ok),
                   std::to_string(agg.counters.stale),
                   std::to_string(agg.counters.rejected_overload),
                   std::to_string(agg.counters.rejected_deadline),
                   std::to_string(agg.counters.not_ready),
                   std::to_string(agg.counters.failed_shutdown +
                                  agg.counters.failed_overload),
                   Table::num(agg.latency.quantile(0.5), 1),
                   Table::num(agg.latency.quantile(0.99), 1),
                   Table::num(agg.mean_latency_us(), 1)});
  }
  return table;
}

}  // namespace rafiki::serve
