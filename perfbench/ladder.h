// The layer ladder of a traced run: each layer driven through its own public
// entry, nested ml ⊂ serve ⊂ tenant/net, so a per-request cost can be
// attributed to the layer that added it.
#pragma once

#include <vector>

#include "harness.h"
#include "phases.h"

namespace perfbench {

struct LadderResult {
  Metrics metrics;
  Tally tally;
};

/// Runs every rung within about `seconds` of wall time. Spans of the
/// interleaved rung (ml forward, in-process serve, wire) share a request id.
LadderResult run_ladder(const Model& model, const std::vector<PredictCase>& cases,
                        double seconds, SpanRecorder& spans);

}  // namespace perfbench
