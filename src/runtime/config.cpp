#include "runtime/config.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/log.h"

namespace versa {
namespace {

/// Parses all of `text` as a T. Rejects empty input, trailing characters,
/// out-of-range values and a sign on an unsigned T.
template <typename T>
std::optional<T> parse_number(const char* text) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// Sets `field` from the environment variable `name` when it is set to a
/// number accepted by `valid`; any other value is ignored with a warning.
template <typename T, typename Valid>
void read_env_number(const char* name, T& field, Valid valid) {
  const char* text = std::getenv(name);
  if (text == nullptr) return;
  const std::optional<T> value = parse_number<T>(text);
  if (value && valid(*value)) {
    field = *value;
  } else {
    VERSA_LOG(kWarn) << "ignoring invalid " << name << "=" << text;
  }
}

}  // namespace

RuntimeConfig apply_env_overrides(RuntimeConfig config) {
  const auto any = [](auto) { return true; };
  if (const char* name = std::getenv("VERSA_SCHEDULER")) {
    config.scheduler = name;
  }
  read_env_number("VERSA_LAMBDA", config.profile.lambda,
                  [](std::uint32_t value) { return value >= 1; });
  if (const char* prefetch = std::getenv("VERSA_PREFETCH")) {
    config.prefetch = std::string(prefetch) != "0";
  }
  read_env_number("VERSA_SEED", config.seed, any);
  if (const char* path = std::getenv("VERSA_PROFILE_LOAD")) {
    config.profile_load_path = path;
  }
  if (const char* path = std::getenv("VERSA_PROFILE_SAVE")) {
    config.profile_save_path = path;
  }
  if (const char* drift = std::getenv("VERSA_DRIFT")) {
    config.profile.drift.enabled = std::string(drift) != "0";
  }
  read_env_number("VERSA_DRIFT_THRESHOLD", config.profile.drift.threshold,
                  [](double value) { return value > 0.0; });
  if (const char* trace = std::getenv("VERSA_SCHED_TRACE")) {
    config.sched_trace = std::string(trace) != "0";
  }
  if (const char* granularity = std::getenv("VERSA_GRANULARITY")) {
    if (!core::parse_granularity(granularity, config.granularity)) {
      VERSA_LOG(kWarn) << "ignoring invalid VERSA_GRANULARITY="
                       << granularity;
    }
  }
  if (const char* mode = std::getenv("VERSA_SANITIZE")) {
    if (!sanitize::parse_sanitize_mode(mode, config.sanitize.mode)) {
      VERSA_LOG(kWarn) << "ignoring invalid VERSA_SANITIZE=" << mode;
    }
  }
  read_env_number("VERSA_PREFETCH_BUDGET", config.prefetch_budget, any);
  return config;
}

}  // namespace versa
