#include "core/fitness.h"

#include <algorithm>

namespace rafiki::core {

SurrogateFitness::SurrogateFitness(const ml::SurrogateEnsemble& surrogate, double read_ratio,
                                   double risk_aversion, const opt::SubspaceMap* subspace)
    : surrogate_(surrogate),
      read_ratio_(read_ratio),
      risk_aversion_(risk_aversion),
      subspace_(subspace) {}

void SurrogateFitness::operator()(std::span<const double> genomes, std::span<double> fitness) {
  const std::size_t n = fitness.size();
  if (n == 0) return;
  const std::size_t genes = genomes.size() / n;
  const std::size_t knobs = subspace_ ? subspace_->full_size() : genes;
  rows_.resize(n, knobs + 1);
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = rows_.row(r);
    const auto genome = genomes.subspan(r * genes, genes);
    row[0] = read_ratio_;
    if (subspace_) {
      subspace_->expand(genome, row.subspan(1));
    } else {
      std::copy(genome.begin(), genome.end(), row.begin() + 1);
    }
  }
  if (risk_aversion_ <= 0.0) {
    surrogate_.predict_batch(rows_, fitness, workspace_);
    return;
  }
  predictions_.resize(n);
  surrogate_.predict_batch_with_uncertainty(rows_, predictions_, workspace_);
  for (std::size_t r = 0; r < n; ++r) {
    fitness[r] = predictions_[r].mean - risk_aversion_ * predictions_[r].stddev;
  }
}

}  // namespace rafiki::core
