// data::ColumnMeanFold — the compensated per-column mean fold shared by
// the resident Dataset::TrueMean memo and the streaming ordered passes of
// data/chunk_source.h. It sits below both layers: it sees only row-major
// doubles, never a Dataset or a ChunkSource.

#ifndef HDLDP_DATA_COLUMN_FOLD_H_
#define HDLDP_DATA_COLUMN_FOLD_H_

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/math.h"

namespace hdldp {
namespace data {

/// \brief Per-column mean of map(value, column) over rows fed in user
/// order: (1/n) * sum_i map(x_ij, j), each column's sum Neumaier-
/// compensated — bit-identical to one NeumaierSum per column fed the
/// same values. `map` must be pure.
template <typename Map>
class ColumnMeanFold {
 public:
  ColumnMeanFold(std::size_t num_dims, Map map)
      : map_(std::move(map)),
        sum_(num_dims, 0.0),
        compensation_(num_dims, 0.0) {}

  /// Folds whole row-major rows (a multiple of num_dims values).
  void Add(std::span<const double> rows) {
    const std::size_t d = sum_.size();
    double* sums = sum_.data();
    double* comps = compensation_.data();
    for (std::size_t k = 0; k < rows.size(); k += d) {
      const double* row = rows.data() + k;
      for (std::size_t j = 0; j < d; ++j) {
        NeumaierAdd(sums[j], comps[j], map_(row[j], j));
      }
    }
  }

  /// Column means, dividing each compensated total by `num_users`.
  std::vector<double> Means(std::size_t num_users) const {
    std::vector<double> mean(sum_.size());
    for (std::size_t j = 0; j < mean.size(); ++j) {
      mean[j] = (sum_[j] + compensation_[j]) / static_cast<double>(num_users);
    }
    return mean;
  }

 private:
  Map map_;
  std::vector<double> sum_;
  std::vector<double> compensation_;
};

}  // namespace data
}  // namespace hdldp

#endif  // HDLDP_DATA_COLUMN_FOLD_H_
