// Dense row-major matrix of doubles: the storage type for embeddings,
// weights and activations across the library.
//
// Shape errors are programmer errors and fail fast with SMGCN_CHECK; they
// are not recoverable Status conditions.
#ifndef SMGCN_TENSOR_MATRIX_H_
#define SMGCN_TENSOR_MATRIX_H_

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

namespace smgcn {

class Rng;

namespace tensor {

/// Dense row-major matrix. Copy is deep; move is O(1).
///
/// The GEMM, transpose and element-wise kernels fan out across
/// smgcn::parallel partitioned over *output rows*, so their results are
/// bit-identical at every thread count (see src/util/parallel.h).
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// From nested initializer list; all rows must have equal width.
  Matrix(std::initializer_list<std::initializer_list<double>> values);

  static Matrix Zeros(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols, 0.0);
  }
  static Matrix Full(std::size_t rows, std::size_t cols, double value) {
    return Matrix(rows, cols, value);
  }
  /// Identity matrix of size n.
  static Matrix Identity(std::size_t n);
  /// Entries drawn uniformly from [lo, hi).
  static Matrix RandomUniform(std::size_t rows, std::size_t cols, double lo,
                              double hi, Rng* rng);
  /// Entries drawn from N(mean, stddev^2).
  static Matrix RandomNormal(std::size_t rows, std::size_t cols, double mean,
                             double stddev, Rng* rng);
  /// 1 x n row vector from data.
  static Matrix RowVector(const std::vector<double>& data);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row_data(std::size_t r) { return data_.data() + r * cols_; }
  const double* row_data(std::size_t r) const { return data_.data() + r * cols_; }

  /// --- In-place updates ------------------------------------------------
  void Fill(double value);
  void SetZero() { Fill(0.0); }
  /// this += other (same shape).
  void AddInPlace(const Matrix& other);
  /// this += alpha * other (same shape). The axpy kernel behind SGD/Adam.
  void AddScaled(const Matrix& other, double alpha);
  /// this *= alpha.
  void ScaleInPlace(double alpha);
  /// Applies fn to every entry, sequentially in storage order: fn may be
  /// stateful (the dropout mask draws an RNG stream through it), so this
  /// never fans out to the parallel layer.
  void Apply(const std::function<double(double)>& fn);

  /// --- Pure operations (allocate their result) --------------------------
  Matrix Add(const Matrix& other) const;
  Matrix Sub(const Matrix& other) const;
  /// Hadamard (element-wise) product.
  Matrix Mul(const Matrix& other) const;
  Matrix Scale(double alpha) const;
  Matrix Map(const std::function<double(double)>& fn) const;
  Matrix Transpose() const;

  /// Standard matrix product; inner dimensions must agree. Blocked kernel.
  Matrix MatMul(const Matrix& other) const;
  /// this^T * other without materialising the transpose.
  Matrix TransposedMatMul(const Matrix& other) const;
  /// this * other^T without materialising the transpose.
  Matrix MatMulTransposed(const Matrix& other) const;

  /// Horizontal concatenation [this | other]; row counts must agree.
  Matrix ConcatCols(const Matrix& other) const;
  /// Copy of rows [begin, end).
  Matrix SliceRows(std::size_t begin, std::size_t end) const;
  /// Copy of columns [begin, end).
  Matrix SliceCols(std::size_t begin, std::size_t end) const;
  /// Gathers the given rows into a new matrix (duplicates allowed).
  Matrix GatherRows(const std::vector<std::size_t>& indices) const;
  /// 1 x cols matrix holding the column-wise mean over all rows
  /// (requires rows > 0).
  Matrix MeanRows() const;
  /// 1 x cols matrix holding the column-wise sum over all rows.
  Matrix SumRows() const;

  /// --- Reductions --------------------------------------------------------
  double Sum() const;
  double Min() const;
  double Max() const;
  /// Frobenius norm.
  double Norm() const;
  /// Sum of squared entries (== Norm()^2 without the sqrt).
  double SquaredNorm() const;
  /// Dot product viewing both matrices as flat vectors (same shape).
  double Dot(const Matrix& other) const;
  /// Largest absolute entry difference; shapes must agree.
  double MaxAbsDiff(const Matrix& other) const;
  /// True when every entry is finite.
  bool AllFinite() const;
  /// Debug helper: true when any entry is NaN or +/-Inf. The GEMM kernels
  /// must propagate such entries (0 * NaN == NaN); use this to locate the
  /// poisoned operand when they do.
  bool HasNonFinite() const { return !AllFinite(); }

  bool operator==(const Matrix& other) const;

  /// Human-readable rendering (small matrices only; intended for debugging
  /// and test failure messages).
  std::string ToString(int max_rows = 8, int max_cols = 8) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace tensor
}  // namespace smgcn

#endif  // SMGCN_TENSOR_MATRIX_H_
