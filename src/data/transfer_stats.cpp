#include "data/transfer_stats.h"

#include "common/string_util.h"

namespace versa {

const char* to_string(TransferCategory category) {
  switch (category) {
    case TransferCategory::kInput:
      return "input";
    case TransferCategory::kOutput:
      return "output";
    case TransferCategory::kDevice:
      return "device";
    case TransferCategory::kLocal:
      return "local";
  }
  return "?";
}

TransferCategory classify_transfer(SpaceId from, SpaceId to) {
  if (from == to) return TransferCategory::kLocal;
  if (from == kHostSpace) return TransferCategory::kInput;
  if (to == kHostSpace) return TransferCategory::kOutput;
  return TransferCategory::kDevice;
}

void TransferStats::record(TransferCategory category, std::uint64_t bytes) {
  switch (category) {
    case TransferCategory::kInput:
      input_bytes += bytes;
      ++input_count;
      break;
    case TransferCategory::kOutput:
      output_bytes += bytes;
      ++output_count;
      break;
    case TransferCategory::kDevice:
      device_bytes += bytes;
      ++device_count;
      break;
    case TransferCategory::kLocal:
      break;
  }
}

TransferStats& TransferStats::operator+=(const TransferStats& other) {
  input_bytes += other.input_bytes;
  output_bytes += other.output_bytes;
  device_bytes += other.device_bytes;
  input_count += other.input_count;
  output_count += other.output_count;
  device_count += other.device_count;
  return *this;
}

void AtomicTransferStats::record(TransferCategory category,
                                 std::uint64_t bytes) {
  switch (category) {
    case TransferCategory::kInput:
      input_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      input_count_.fetch_add(1, std::memory_order_relaxed);
      break;
    case TransferCategory::kOutput:
      output_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      output_count_.fetch_add(1, std::memory_order_relaxed);
      break;
    case TransferCategory::kDevice:
      device_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      device_count_.fetch_add(1, std::memory_order_relaxed);
      break;
    case TransferCategory::kLocal:
      break;
  }
}

TransferStats AtomicTransferStats::snapshot() const {
  TransferStats out;
  out.input_bytes = input_bytes_.load(std::memory_order_relaxed);
  out.output_bytes = output_bytes_.load(std::memory_order_relaxed);
  out.device_bytes = device_bytes_.load(std::memory_order_relaxed);
  out.input_count = input_count_.load(std::memory_order_relaxed);
  out.output_count = output_count_.load(std::memory_order_relaxed);
  out.device_count = device_count_.load(std::memory_order_relaxed);
  return out;
}

std::string TransferStats::summary() const {
  std::string out = "in=" + format_bytes(static_cast<double>(input_bytes));
  out += " out=" + format_bytes(static_cast<double>(output_bytes));
  out += " dev=" + format_bytes(static_cast<double>(device_bytes));
  return out;
}

}  // namespace versa
