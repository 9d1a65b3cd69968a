#include "cache/cache.h"

#include <cstdlib>
#include <cstring>

namespace mfd::cache {
namespace {

/// `config` with the MFD_CACHE_CHECK environment variable applied.
CacheConfig with_env(CacheConfig config) {
  const char* check = std::getenv("MFD_CACHE_CHECK");
  if (check != nullptr && std::strcmp(check, "0") != 0) config.cross_check = true;
  return config;
}

/// The process-wide configuration, read-only while a flow runs.
CacheConfig& active_config() {
  static CacheConfig c = with_env(CacheConfig{});
  return c;
}

}  // namespace

void configure(const CacheConfig& config) { active_config() = with_env(config); }

const CacheConfig& config() { return active_config(); }

void clear() {}

void publish_stats() {}

}  // namespace mfd::cache
