// The serving-plane surface shared by the single TuningService and the
// ShardedTuningService router (and the TenantFleet, which is a router):
// snapshot publication, request submission (queued, or a Predict round
// answered on the caller's thread), lifecycle, and one merged Telemetry
// value. Front-ends (net::Server, rafiki_serverd, the load benches)
// program against this interface so a process can swap between one service
// and an N-shard fleet with a flag.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "serve/snapshot.h"
#include "serve/stats.h"
#include "serve/types.h"
#include "util/func.h"

namespace rafiki::core {
class OnlineTuner;
}

namespace rafiki::serve {

/// Completion callback for try_submit. Invoked exactly once, from a worker
/// thread (or from stop()'s drain when no worker ever ran). Move-only with
/// small-buffer storage (util/func.h): the callback is never copied on the
/// submit path — a rejected admission hands it back to the caller intact,
/// and hot-path captures up to MoveFunc's inline size never touch the heap.
using ResponseCallback = MoveFunc<void(Response)>;

/// Reusable buffers for answer_predicts, owned by the caller (one per IO
/// loop, one per worker): the round's feature rows go straight into `rows`
/// and the ensemble scores them through `workspace`, so a warmed-up caller
/// allocates nothing per round.
struct PredictScratch {
  ml::Matrix rows;
  ml::SurrogateEnsemble::BatchWorkspace workspace;
  std::vector<ml::SurrogateEnsemble::Prediction> predictions;
  /// Indices of the round's requests still to answer: fleet admission
  /// narrows it, the router and the service reorder it in place.
  std::vector<std::uint32_t> order;
  /// Per-request grouping key, indexed like the round (the router's home
  /// shard).
  std::vector<std::uint32_t> keys;

  /// Resets `order` to every request of an n-request round, in arrival order.
  std::span<std::uint32_t> every_row(std::size_t n) {
    order.resize(n);
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    return order;
  }
};

class TuningBackend {
 public:
  virtual ~TuningBackend() = default;

  /// Atomically publishes a new model version (stamping a monotonically
  /// increasing version number) and returns it. In-flight requests keep the
  /// snapshot they already resolved; new requests see this one. Safe to call
  /// from any thread, including while serving.
  virtual std::uint64_t publish(ModelSnapshot snapshot) = 0;
  /// A tenant namespace's currently published snapshot (null before the
  /// first publish, or for a tenant the backend does not serve) and its
  /// version (0 then). Tenant 0 is the default namespace.
  virtual std::shared_ptr<const ModelSnapshot> tenant_snapshot(TenantId tenant) const = 0;
  virtual std::uint64_t tenant_model_version(TenantId tenant) const = 0;

  /// Enables the ObserveWindow endpoint by wiring the tuner (which must
  /// outlive this backend) to the background retrain machinery and the
  /// snapshot registry. Call before start().
  virtual void attach_tuner(core::OnlineTuner& tuner) = 0;

  /// Callback-style submission for event-loop callers (the net::Server) that
  /// must not block on a future. Returns kOk when the request was admitted —
  /// `done` then fires exactly once with the response — or the admission
  /// verdict (Overloaded / ShuttingDown), in which case `done` is never
  /// invoked and the caller answers inline.
  virtual Status try_submit(Request request, ResponseCallback done) = 0;

  /// Answers a round of Predict requests on the calling thread with one
  /// batched forward per (shard, tenant) group: responses[i] answers
  /// requests[i], and every response is written. The verdicts try_submit
  /// would give (ShuttingDown, a fleet's NotReady / Overloaded) come back
  /// per request, together with DeadlineExceeded and NotReady (no trained
  /// snapshot). No worker and no queue is involved. Every request must be a
  /// Predict, and requests.size() == responses.size().
  virtual void answer_predicts(std::span<const Request> requests,
                               std::span<Response> responses, PredictScratch& scratch) = 0;

  virtual void start() = 0;
  virtual void stop() = 0;

  /// Telemetry sink for wire-level front-ends. For a sharded backend this is
  /// the router-level stats object (wire telemetry is per-process, not
  /// per-shard); request-path counters live in the shards. ServiceStats is
  /// internally synchronized and lock-free on the record path.
  virtual ServiceStats& stats() noexcept = 0;
  virtual const ServiceStats& stats() const noexcept = 0;
  /// Everything the backend has recorded, merged into one value (see
  /// Telemetry): the same fold and the same table layout for one service
  /// and for a sharded router.
  virtual Telemetry telemetry() const = 0;

  /// Blocks until background retrain work is idle — the barrier tests and
  /// benches use to observe the post-republish state.
  virtual void wait_retrain_idle() = 0;

  /// Tenant 0's snapshot and version (the single-tenant view).
  std::shared_ptr<const ModelSnapshot> snapshot() const { return tenant_snapshot(0); }
  std::uint64_t model_version() const { return tenant_model_version(0); }
  /// Rows per Predict micro-batch across the whole backend.
  double mean_batch_size() const { return telemetry().mean_batch_size(); }

  /// Future-style submission over try_submit. Admission control resolves
  /// immediately: the returned future is already satisfied with the verdict
  /// (Overloaded / ShuttingDown) when the request was not admitted.
  std::future<Response> submit(Request request) {
    auto promise = std::make_shared<std::promise<Response>>();
    auto future = promise->get_future();
    const Status admitted = try_submit(
        std::move(request),
        [promise](Response response) { promise->set_value(std::move(response)); });
    if (admitted != Status::kOk) {
      Response response;
      response.status = admitted;
      promise->set_value(std::move(response));
    }
    return future;
  }
  /// Synchronous convenience wrapper: submit + wait.
  Response call(const Request& request) { return submit(request).get(); }
};

}  // namespace rafiki::serve
