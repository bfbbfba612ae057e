#include "src/tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/random.h"
#include "src/util/string_util.h"

namespace smgcn {
namespace tensor {

namespace {

/// Minimum double ops a parallel chunk should amortise; below this the
/// fan-out overhead beats the win and kernels run inline.
constexpr std::size_t kMinOpsPerChunk = 1 << 15;

/// Row grain for a kernel whose per-row cost is `ops_per_row` double ops.
std::size_t RowGrain(std::size_t ops_per_row) {
  return std::max<std::size_t>(1, kMinOpsPerChunk / std::max<std::size_t>(ops_per_row, 1));
}

/// Tile edge for the blocked transpose: 32x32 doubles = two 8 KiB tiles in
/// flight, comfortably inside L1 alongside the source rows.
constexpr std::size_t kTransposeBlock = 32;

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> values) {
  rows_ = values.size();
  cols_ = rows_ > 0 ? values.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : values) {
    SMGCN_CHECK_EQ(row.size(), cols_) << "ragged initializer list";
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::RandomUniform(std::size_t rows, std::size_t cols, double lo,
                             double hi, Rng* rng) {
  SMGCN_CHECK(rng != nullptr);
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng->Uniform(lo, hi);
  return m;
}

Matrix Matrix::RandomNormal(std::size_t rows, std::size_t cols, double mean,
                            double stddev, Rng* rng) {
  SMGCN_CHECK(rng != nullptr);
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng->Normal(mean, stddev);
  return m;
}

Matrix Matrix::RowVector(const std::vector<double>& data) {
  Matrix m(1, data.size());
  std::copy(data.begin(), data.end(), m.data_.begin());
  return m;
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  SMGCN_CHECK_LT(r, rows_);
  SMGCN_CHECK_LT(c, cols_);
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  SMGCN_CHECK_LT(r, rows_);
  SMGCN_CHECK_LT(c, cols_);
  return data_[r * cols_ + c];
}

void Matrix::Fill(double value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::AddInPlace(const Matrix& other) {
  SMGCN_CHECK_EQ(rows_, other.rows_);
  SMGCN_CHECK_EQ(cols_, other.cols_);
  // Element-wise kernels partition the flat storage: each entry is written
  // by exactly one chunk from its own inputs, so any partition is
  // bit-identical to the sequential loop.
  parallel::ParallelFor(0, data_.size(), kMinOpsPerChunk,
                        [this, &other](std::size_t b, std::size_t e) {
                          for (std::size_t i = b; i < e; ++i) {
                            data_[i] += other.data_[i];
                          }
                        });
}

void Matrix::AddScaled(const Matrix& other, double alpha) {
  SMGCN_CHECK_EQ(rows_, other.rows_);
  SMGCN_CHECK_EQ(cols_, other.cols_);
  parallel::ParallelFor(0, data_.size(), kMinOpsPerChunk,
                        [this, &other, alpha](std::size_t b, std::size_t e) {
                          for (std::size_t i = b; i < e; ++i) {
                            data_[i] += alpha * other.data_[i];
                          }
                        });
}

void Matrix::ScaleInPlace(double alpha) {
  parallel::ParallelFor(0, data_.size(), kMinOpsPerChunk,
                        [this, alpha](std::size_t b, std::size_t e) {
                          for (std::size_t i = b; i < e; ++i) data_[i] *= alpha;
                        });
}

void Matrix::Apply(const std::function<double(double)>& fn) {
  for (double& v : data_) v = fn(v);
}

Matrix Matrix::Add(const Matrix& other) const {
  Matrix out = *this;
  out.AddInPlace(other);
  return out;
}

Matrix Matrix::Sub(const Matrix& other) const {
  Matrix out = *this;
  out.AddScaled(other, -1.0);
  return out;
}

Matrix Matrix::Mul(const Matrix& other) const {
  SMGCN_CHECK_EQ(rows_, other.rows_);
  SMGCN_CHECK_EQ(cols_, other.cols_);
  Matrix out = *this;
  parallel::ParallelFor(0, data_.size(), kMinOpsPerChunk,
                        [&out, &other](std::size_t b, std::size_t e) {
                          for (std::size_t i = b; i < e; ++i) {
                            out.data_[i] *= other.data_[i];
                          }
                        });
  return out;
}

Matrix Matrix::Scale(double alpha) const {
  Matrix out = *this;
  out.ScaleInPlace(alpha);
  return out;
}

Matrix Matrix::Map(const std::function<double(double)>& fn) const {
  Matrix out = *this;
  out.Apply(fn);
  return out;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  // Blocked tile copy: both the reads and the writes of one tile stay
  // cache-resident instead of striding a full column per output element.
  // Partitioned over output-row blocks; tiles write disjoint rows of out.
  parallel::ParallelFor(
      0, cols_, kTransposeBlock * RowGrain(rows_),
      [this, &out](std::size_t cb, std::size_t ce) {
        for (std::size_t r0 = 0; r0 < rows_; r0 += kTransposeBlock) {
          const std::size_t r1 = std::min(r0 + kTransposeBlock, rows_);
          for (std::size_t c0 = cb; c0 < ce; c0 += kTransposeBlock) {
            const std::size_t c1 = std::min(c0 + kTransposeBlock, ce);
            for (std::size_t r = r0; r < r1; ++r) {
              const double* src = row_data(r);
              for (std::size_t c = c0; c < c1; ++c) {
                out.data_[c * rows_ + r] = src[c];
              }
            }
          }
        }
      });
  return out;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  SMGCN_CHECK_EQ(cols_, other.rows_) << "matmul inner dimension mismatch";
  Matrix out(rows_, other.cols_, 0.0);
  const std::size_t n = other.cols_;
  // Skipping a == 0.0 terms is only sound when B holds no NaN/Inf:
  // 0.0 * NaN and 0.0 * Inf are NaN, and dropping them would let a poisoned
  // row masquerade as a clean zero contribution. One O(kn) scan of B decides
  // the fast path for the whole O(mkn) product, identically in every chunk.
  const bool skip_zeros = other.AllFinite();
  // i-k-j loop order keeps both B and C accesses sequential. Partitioned
  // over output rows: row i is always the same sequential k-j loop.
  parallel::ParallelFor(
      0, rows_, RowGrain(cols_ * n),
      [this, &other, &out, n, skip_zeros](std::size_t rb, std::size_t re) {
        for (std::size_t i = rb; i < re; ++i) {
          const double* a_row = row_data(i);
          double* c_row = out.row_data(i);
          for (std::size_t k = 0; k < cols_; ++k) {
            const double a = a_row[k];
            if (a == 0.0 && skip_zeros) continue;
            const double* b_row = other.row_data(k);
            for (std::size_t j = 0; j < n; ++j) c_row[j] += a * b_row[j];
          }
        }
      });
  return out;
}

Matrix Matrix::TransposedMatMul(const Matrix& other) const {
  // (this^T * other): out[c][j] = sum_r this[r][c] * other[r][j]; out is
  // cols_ x other.cols_. Gather form: each chunk owns a contiguous range of
  // output rows c and scans every input row r itself, accumulating out[c]
  // in ascending-r order — the scatter form (r outer, c inner) writes the
  // same sums but races under output-row partitioning.
  SMGCN_CHECK_EQ(rows_, other.rows_) << "transposed matmul row mismatch";
  Matrix out(cols_, other.cols_, 0.0);
  const std::size_t n = other.cols_;
  const bool skip_zeros = other.AllFinite();  // see MatMul
  parallel::ParallelFor(
      0, cols_, RowGrain(rows_ * n),
      [this, &other, &out, n, skip_zeros](std::size_t cb, std::size_t ce) {
        for (std::size_t r = 0; r < rows_; ++r) {
          const double* a_row = row_data(r);
          const double* b_row = other.row_data(r);
          for (std::size_t c = cb; c < ce; ++c) {
            const double a = a_row[c];
            if (a == 0.0 && skip_zeros) continue;
            double* o_row = out.row_data(c);
            for (std::size_t j = 0; j < n; ++j) o_row[j] += a * b_row[j];
          }
        }
      });
  return out;
}

Matrix Matrix::MatMulTransposed(const Matrix& other) const {
  // out[i][j] = sum_k this[i][k] * other[j][k]; out is rows_ x other.rows_.
  SMGCN_CHECK_EQ(cols_, other.cols_) << "matmul-transposed column mismatch";
  Matrix out(rows_, other.rows_, 0.0);
  parallel::ParallelFor(
      0, rows_, RowGrain(other.rows_ * cols_),
      [this, &other, &out](std::size_t rb, std::size_t re) {
        for (std::size_t i = rb; i < re; ++i) {
          const double* a_row = row_data(i);
          double* o_row = out.row_data(i);
          for (std::size_t j = 0; j < other.rows_; ++j) {
            const double* b_row = other.row_data(j);
            double acc = 0.0;
            for (std::size_t k = 0; k < cols_; ++k) acc += a_row[k] * b_row[k];
            o_row[j] = acc;
          }
        }
      });
  return out;
}

Matrix Matrix::ConcatCols(const Matrix& other) const {
  SMGCN_CHECK_EQ(rows_, other.rows_) << "concat-cols row mismatch";
  Matrix out(rows_, cols_ + other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double* dst = out.row_data(r);
    std::memcpy(dst, row_data(r), cols_ * sizeof(double));
    std::memcpy(dst + cols_, other.row_data(r), other.cols_ * sizeof(double));
  }
  return out;
}

Matrix Matrix::SliceRows(std::size_t begin, std::size_t end) const {
  SMGCN_CHECK_LE(begin, end);
  SMGCN_CHECK_LE(end, rows_);
  Matrix out(end - begin, cols_);
  std::memcpy(out.data(), row_data(begin), (end - begin) * cols_ * sizeof(double));
  return out;
}

Matrix Matrix::SliceCols(std::size_t begin, std::size_t end) const {
  SMGCN_CHECK_LE(begin, end);
  SMGCN_CHECK_LE(end, cols_);
  Matrix out(rows_, end - begin);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::memcpy(out.row_data(r), row_data(r) + begin,
                (end - begin) * sizeof(double));
  }
  return out;
}

Matrix Matrix::GatherRows(const std::vector<std::size_t>& indices) const {
  Matrix out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    SMGCN_CHECK_LT(indices[i], rows_);
    std::memcpy(out.row_data(i), row_data(indices[i]), cols_ * sizeof(double));
  }
  return out;
}

Matrix Matrix::MeanRows() const {
  SMGCN_CHECK_GT(rows_, 0u);
  Matrix out = SumRows();
  out.ScaleInPlace(1.0 / static_cast<double>(rows_));
  return out;
}

Matrix Matrix::SumRows() const {
  Matrix out(1, cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* src = row_data(r);
    for (std::size_t c = 0; c < cols_; ++c) out.data_[c] += src[c];
  }
  return out;
}

double Matrix::Sum() const {
  double acc = 0.0;
  for (double v : data_) acc += v;
  return acc;
}

double Matrix::Min() const {
  SMGCN_CHECK(!data_.empty());
  return *std::min_element(data_.begin(), data_.end());
}

double Matrix::Max() const {
  SMGCN_CHECK(!data_.empty());
  return *std::max_element(data_.begin(), data_.end());
}

double Matrix::Norm() const { return std::sqrt(SquaredNorm()); }

double Matrix::SquaredNorm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return acc;
}

double Matrix::Dot(const Matrix& other) const {
  SMGCN_CHECK_EQ(rows_, other.rows_);
  SMGCN_CHECK_EQ(cols_, other.cols_);
  double acc = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) acc += data_[i] * other.data_[i];
  return acc;
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  SMGCN_CHECK_EQ(rows_, other.rows_);
  SMGCN_CHECK_EQ(cols_, other.cols_);
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    worst = std::max(worst, std::fabs(data_[i] - other.data_[i]));
  }
  return worst;
}

bool Matrix::AllFinite() const {
  for (double v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

bool Matrix::operator==(const Matrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ && data_ == other.data_;
}

std::string Matrix::ToString(int max_rows, int max_cols) const {
  std::string out = StrFormat("Matrix(%zu x %zu)\n", rows_, cols_);
  const std::size_t r_show = std::min<std::size_t>(rows_, static_cast<std::size_t>(max_rows));
  const std::size_t c_show = std::min<std::size_t>(cols_, static_cast<std::size_t>(max_cols));
  for (std::size_t r = 0; r < r_show; ++r) {
    out += "  [";
    for (std::size_t c = 0; c < c_show; ++c) {
      out += StrFormat("%s%.4g", c > 0 ? ", " : "", (*this)(r, c));
    }
    if (c_show < cols_) out += ", ...";
    out += "]\n";
  }
  if (r_show < rows_) out += "  ...\n";
  return out;
}

}  // namespace tensor
}  // namespace smgcn
