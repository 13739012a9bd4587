// Distinct-sender sets for a protocol's phases, in one bitmap.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace coincidence {

/// `rows` sets of sender ids over [0, n): a phase counts each sender
/// once. A sender at or past n (possible only in harnesses that size n
/// below the simulation) widens every row rather than being dropped.
class SenderRows {
 public:
  SenderRows(std::size_t rows, std::size_t n)
      : rows_(rows), n_(n), bits_(rows * n, false) {}

  bool contains(std::size_t row, std::uint32_t id) const {
    return id < n_ && bits_[row * n_ + id];
  }
  /// Adds `id` to `row`; false when it was there (set::insert().second).
  bool insert(std::size_t row, std::uint32_t id) {
    if (id >= n_) widen(std::size_t{id} + 1);
    auto bit = bits_[row * n_ + id];
    if (bit) return false;
    bit = true;
    return true;
  }
  /// Empties one row.
  void clear(std::size_t row) {
    const auto first = bits_.begin() + static_cast<std::ptrdiff_t>(row * n_);
    std::fill(first, first + static_cast<std::ptrdiff_t>(n_), false);
  }
  /// One row, a bit per id.
  std::vector<bool> row(std::size_t row) const {
    const auto first = bits_.begin() + static_cast<std::ptrdiff_t>(row * n_);
    return std::vector<bool>(first, first + static_cast<std::ptrdiff_t>(n_));
  }

 private:
  void widen(std::size_t n) {
    std::vector<bool> wide(rows_ * n, false);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t p = 0; p < n_; ++p) wide[r * n + p] = bits_[r * n_ + p];
    bits_.swap(wide);
    n_ = n;
  }

  std::size_t rows_;
  std::size_t n_;
  std::vector<bool> bits_;
};

}  // namespace coincidence
