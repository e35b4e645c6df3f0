#include "data/dataset.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

#include "common/math.h"
#include "data/column_fold.h"

namespace hdldp {
namespace data {

Dataset::Dataset(std::size_t num_users, std::size_t num_dims)
    : num_users_(num_users),
      num_dims_(num_dims),
      values_(num_users * num_dims, 0.0) {}

Result<Dataset> Dataset::Create(std::size_t num_users, std::size_t num_dims) {
  if (num_users == 0 || num_dims == 0) {
    return Status::InvalidArgument("Dataset requires num_users, num_dims > 0");
  }
  return Dataset(num_users, num_dims);
}

Status Dataset::FillRows(std::size_t first_row,
                         std::span<const double> values) {
  if (num_dims_ == 0 || values.size() % num_dims_ != 0) {
    return Status::InvalidArgument(
        "FillRows requires a whole number of rows");
  }
  const std::size_t count = values.size() / num_dims_;
  if (first_row + count > num_users_) {
    return Status::OutOfRange("FillRows range exceeds num_users");
  }
  ++version_;
  std::memcpy(values_.data() + first_row * num_dims_, values.data(),
              values.size() * sizeof(double));
  return Status::OK();
}

std::vector<double> Dataset::TrueMean() const {
  // Debug poison for the MutableRow footgun: a memo taken now could be
  // invalidated by later writes through an already-handed-out span.
  assert(!mutable_row_outstanding_ &&
         "TrueMean while a MutableRow span is outstanding; call "
         "CommitMutableRows after writing");
  const std::shared_ptr<const MeanCache> cached =
      mean_cache_.load(std::memory_order_acquire);
  if (cached != nullptr && cached->version == version_) return cached->mean;
  // Column sums with compensated accumulation; one serial pass over the
  // matrix. The rows are resident, so the pass is bound by memory
  // bandwidth, not by pulls: ChunkSource's parallel ordered pass would
  // only add a turn handoff per chunk.
  ColumnMeanFold fold(num_dims_, [](double v, std::size_t) { return v; });
  fold.Add(values_);
  auto fresh = std::make_shared<MeanCache>();
  fresh->version = version_;
  fresh->mean = fold.Means(num_users_);
  mean_cache_.store(fresh, std::memory_order_release);
  return fresh->mean;
}

void Dataset::DimensionRange(std::size_t j, double* min_out,
                             double* max_out) const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < num_users_; ++i) {
    const double v = At(i, j);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  *min_out = lo;
  *max_out = hi;
}

void Dataset::NormalizeDimensions() {
  for (std::size_t j = 0; j < num_dims_; ++j) {
    double lo, hi;
    DimensionRange(j, &lo, &hi);
    const double width = hi - lo;
    if (width <= 0.0) {
      for (std::size_t i = 0; i < num_users_; ++i) Set(i, j, 0.0);
      continue;
    }
    for (std::size_t i = 0; i < num_users_; ++i) {
      Set(i, j, 2.0 * (At(i, j) - lo) / width - 1.0);
    }
  }
}

void Dataset::ClampValues(double lo, double hi) {
  ++version_;  // Direct values_ mutation; invalidate the TrueMean memo.
  for (double& v : values_) v = Clamp(v, lo, hi);
}

Result<Dataset> Dataset::ResampleDimensions(std::size_t new_num_dims,
                                            Rng* rng) const {
  if (new_num_dims == 0) {
    return Status::InvalidArgument("ResampleDimensions requires > 0 dims");
  }
  std::vector<std::size_t> picks(new_num_dims);
  for (auto& p : picks) p = static_cast<std::size_t>(rng->UniformInt(num_dims_));
  HDLDP_ASSIGN_OR_RETURN(Dataset out, Create(num_users_, new_num_dims));
  for (std::size_t i = 0; i < num_users_; ++i) {
    const double* row = values_.data() + i * num_dims_;
    for (std::size_t j = 0; j < new_num_dims; ++j) {
      out.Set(i, j, row[picks[j]]);
    }
  }
  return out;
}

Result<Dataset> Dataset::TruncateUsers(std::size_t new_num_users) const {
  if (new_num_users == 0 || new_num_users > num_users_) {
    return Status::InvalidArgument(
        "TruncateUsers requires 0 < new_num_users <= num_users");
  }
  HDLDP_ASSIGN_OR_RETURN(Dataset out, Create(new_num_users, num_dims_));
  std::copy(values_.begin(),
            values_.begin() +
                static_cast<std::ptrdiff_t>(new_num_users * num_dims_),
            out.values_.begin());
  return out;
}

}  // namespace data
}  // namespace hdldp
