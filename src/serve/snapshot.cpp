#include "serve/snapshot.h"

#include <stdexcept>

#include "core/rafiki.h"

namespace rafiki::serve {

std::vector<double> ModelSnapshot::feature_row(double read_ratio,
                                               const engine::Config& config) const {
  std::vector<double> row(key_params.size() + 1);
  write_feature_row(read_ratio, config, row);
  return row;
}

void ModelSnapshot::write_feature_row(double read_ratio, const engine::Config& config,
                                      std::span<double> out) const {
  out[0] = read_ratio;
  for (std::size_t j = 0; j < key_params.size(); ++j) out[1 + j] = config.get(key_params[j]);
}

ModelSnapshot make_snapshot(const core::Rafiki& rafiki) {
  if (!rafiki.trained()) throw std::logic_error("make_snapshot: pipeline not trained");
  ModelSnapshot snapshot;
  snapshot.ensemble = rafiki.surrogate();
  snapshot.key_params = rafiki.key_params();
  snapshot.space = std::make_shared<const opt::SearchSpace>(rafiki.key_space());
  return snapshot;
}

}  // namespace rafiki::serve
