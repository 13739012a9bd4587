// Minimal JSON emission for the bench binaries' --json modes.
//
// The CI quick-bench job and the committed BENCH_*.json snapshots need
// machine-readable output, but the repo takes no JSON dependency: the
// values emitted here are flat name->number records plus a context
// block, which this ~60-line writer covers exactly.
#pragma once

#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/kernels.h"

namespace coincidence::bench {

/// Accumulates rows of (name, numeric fields) and writes
///   {"context": {...}, "benchmarks": [{"name": ..., fields...}, ...]}
/// — the same top-level shape google-benchmark's JSON reporter uses, so
/// downstream tooling can treat both files alike.
class BenchJson {
 public:
  void context(const std::string& key, const std::string& value) {
    context_.emplace_back(key, "\"" + escape(value) + "\"");
  }
  void context(const std::string& key, double value) {
    context_.emplace_back(key, number(value));
  }

  /// Records the machine a run measured: cores, whether the CPU has the
  /// instructions the crypto kernels dispatch on (1 = used, 0 = scalar
  /// fallback), and the compiler and build type (set in
  /// bench/CMakeLists.txt).
  void machine_context() {
    context("nproc",
            static_cast<double>(std::thread::hardware_concurrency()));
    context("sha_ni", crypto::detail::sha256_blocks_shani() ? 1.0 : 0.0);
    context("avx2", crypto::detail::gf256_mul_acc_avx2() ? 1.0 : 0.0);
    context("compiler", COINCIDENCE_BENCH_COMPILER);
    context("build_type", COINCIDENCE_BENCH_BUILD_TYPE);
  }

  struct Row {
    std::string name;
    std::vector<std::pair<std::string, std::string>> fields;
  };

  /// Starts a row; chain field() calls on the returned reference.
  Row& row(const std::string& name) {
    rows_.push_back({name, {}});
    return rows_.back();
  }
  static void field(Row& r, const std::string& key, double value) {
    r.fields.emplace_back(key, number(value));
  }
  static void field(Row& r, const std::string& key, const std::string& value) {
    r.fields.emplace_back(key, "\"" + escape(value) + "\"");
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\n  \"context\": {";
    for (std::size_t i = 0; i < context_.size(); ++i)
      out << (i ? "," : "") << "\n    \"" << escape(context_[i].first)
          << "\": " << context_[i].second;
    out << "\n  },\n  \"benchmarks\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out << (i ? "," : "") << "\n    {\"name\": \"" << escape(rows_[i].name)
          << "\"";
      for (const auto& [key, value] : rows_[i].fields)
        out << ", \"" << escape(key) << "\": " << value;
      out << "}";
    }
    out << "\n  ]\n}\n";
    return out.good();
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }
  static std::string number(double v) {
    std::string s = std::to_string(v);
    // Trim trailing zeros but keep one decimal ("3.0", not "3.").
    while (s.size() > 1 && s.back() == '0' && s[s.size() - 2] != '.')
      s.pop_back();
    return s;
  }

  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<Row> rows_;
};

}  // namespace coincidence::bench
