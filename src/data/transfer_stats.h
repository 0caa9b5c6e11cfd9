// Transfer accounting in the three categories the paper reports (§V-A):
//   Input Tx  — host memory -> any GPU memory (each destination counted),
//   Output Tx — any GPU memory -> host memory,
//   Device Tx — GPU memory -> GPU memory (two-GPU runs).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/types.h"

namespace versa {

enum class TransferCategory : std::uint8_t {
  kInput,   ///< host -> device
  kOutput,  ///< device -> host
  kDevice,  ///< device -> device
  kLocal,   ///< same-space (no actual copy; kept for completeness)
};

const char* to_string(TransferCategory category);

/// Classify a copy by its endpoints.
TransferCategory classify_transfer(SpaceId from, SpaceId to);

struct TransferStats {
  std::uint64_t input_bytes = 0;
  std::uint64_t output_bytes = 0;
  std::uint64_t device_bytes = 0;
  std::uint64_t input_count = 0;
  std::uint64_t output_count = 0;
  std::uint64_t device_count = 0;
  /// Always 0; read only by perfbench/driver.cpp.
  static constexpr std::uint64_t consistent_fallback_count = 0;

  void record(TransferCategory category, std::uint64_t bytes);

  std::uint64_t total_bytes() const {
    return input_bytes + output_bytes + device_bytes;
  }
  std::uint64_t total_count() const {
    return input_count + output_count + device_count;
  }

  TransferStats& operator+=(const TransferStats& other);

  /// "in=1.50 GB out=340 MB dev=0 B" — for logs and reports.
  std::string summary() const;
};

/// Lock-free mirror of TransferStats for the concurrent data path: the
/// directory records transfers from any thread without a stats lock, and
/// readers snapshot a plain TransferStats at any time. Per-counter
/// relaxed atomics — a snapshot taken during a record() may see the byte
/// counter bumped before the count (or vice versa); totals are exact once
/// the writers quiesce, which is what the reports read.
class AtomicTransferStats {
 public:
  void record(TransferCategory category, std::uint64_t bytes);

  /// Plain-value snapshot for reporting (`Runtime::transfer_stats()`).
  TransferStats snapshot() const;

 private:
  std::atomic<std::uint64_t> input_bytes_{0};
  std::atomic<std::uint64_t> output_bytes_{0};
  std::atomic<std::uint64_t> device_bytes_{0};
  std::atomic<std::uint64_t> input_count_{0};
  std::atomic<std::uint64_t> output_count_{0};
  std::atomic<std::uint64_t> device_count_{0};
};

}  // namespace versa
