// The GA's fitness over a trained surrogate at a fixed workload: the one
// objective behind Rafiki::optimize (static and dynamic-knob mode) and the
// serve layer's Optimize endpoint.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/ensemble.h"
#include "ml/matrix.h"
#include "opt/space.h"

namespace rafiki::core {

/// Cohort objective (opt::CohortObjective) scoring genomes against the
/// surrogate's Equation (2) feature layout: the read ratio, then the
/// configuration. Each call writes one feature row per genome into a reused
/// Matrix — the genome as is, or expanded through a SubspaceMap when the GA
/// searches a reduced subspace — and scores the block through one reused
/// ensemble workspace, so a whole GA run allocates only while the first
/// (largest) cohort sizes the buffers. Pass it to the GA by std::ref; it is
/// stateful and not thread-safe.
class SurrogateFitness {
 public:
  /// `risk_aversion` > 0 scores the lower confidence bound
  /// mean - risk_aversion * member spread instead of the mean. `subspace`
  /// (optional, must outlive this object) maps reduced genomes to full
  /// feature rows.
  SurrogateFitness(const ml::SurrogateEnsemble& surrogate, double read_ratio,
                   double risk_aversion = 0.0, const opt::SubspaceMap* subspace = nullptr);

  /// `genomes` holds fitness.size() genomes row-major.
  void operator()(std::span<const double> genomes, std::span<double> fitness);

 private:
  const ml::SurrogateEnsemble& surrogate_;
  double read_ratio_;
  double risk_aversion_;
  const opt::SubspaceMap* subspace_;
  ml::Matrix rows_;
  ml::SurrogateEnsemble::BatchWorkspace workspace_;
  std::vector<ml::SurrogateEnsemble::Prediction> predictions_;
};

}  // namespace rafiki::core
