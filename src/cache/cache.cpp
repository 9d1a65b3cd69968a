#include "cache/cache.h"

#include <cstdlib>
#include <cstring>
#include <list>
#include <mutex>
#include <unordered_map>

#include "obs/obs.h"

namespace mfd::cache {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t digest_of(const std::vector<std::uint64_t>& key) {
  std::uint64_t d = 0x2545F4914F6CDD1Dull;
  for (std::uint64_t w : key) d = splitmix64(d ^ w);
  return d;
}

struct Entry {
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> key;
  CandidateScores scores;
  std::size_t bytes = 0;
};

/// The list and index nodes around an entry, with their allocator headers.
constexpr std::size_t kNodeBytes = 96;

/// Estimated footprint of an entry: the entry itself, its key and code
/// lengths, and its nodes. Precision is not the point — the bound is.
std::size_t footprint(const Entry& e) {
  return sizeof(Entry) + kNodeBytes + e.key.size() * sizeof(std::uint64_t) +
         e.scores.r_per_output.size() * sizeof(int);
}

/// `config` with the MFD_CACHE_CHECK environment variable applied.
CacheConfig with_env(CacheConfig config) {
  const char* check = std::getenv("MFD_CACHE_CHECK");
  if (check != nullptr && std::strcmp(check, "0") != 0) config.cross_check = true;
  return config;
}

/// The process-wide store. One mutex guards everything in it.
struct Store {
  std::mutex mu;
  CacheConfig config = with_env(CacheConfig{});
  std::list<Entry> lru;  // front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;  // by digest
  std::size_t bytes = 0;

  void clear() {
    lru.clear();
    index.clear();
    bytes = 0;
  }
};

Store& store() {
  static Store s;
  return s;
}

}  // namespace

void configure(const CacheConfig& config) {
  Store& s = store();
  std::lock_guard<std::mutex> lock(s.mu);
  s.config = with_env(config);
  s.clear();
}

const CacheConfig& config() { return store().config; }

void clear() {
  Store& s = store();
  std::lock_guard<std::mutex> lock(s.mu);
  s.clear();
}

std::vector<std::uint64_t> multiplicity_key(
    SignatureComputer& sig,
    const std::vector<std::pair<bdd::Edge, bdd::Edge>>& fns,
    const std::vector<int>& bound, std::uint64_t seed) {
  std::vector<std::uint64_t> key;
  key.reserve(2 + fns.size() * 5 + bound.size());
  key.push_back(seed);
  key.push_back(fns.size());
  for (const auto& f : fns) {
    if (f.second == bdd::kTrue) {
      // Completely specified: normalize polarity. Complementing f
      // complements every cofactor element-wise — a bijection that changes
      // no class count and no joint sharing count, so f and !f share the
      // entry.
      const FunctionSignature s = sig.of_normalized(f.first);
      key.insert(key.end(), {1, s.w0, s.w1, 0, 0});
    } else {
      const FunctionSignature so = sig.of(f.first);
      const FunctionSignature sc = sig.of(f.second);
      key.insert(key.end(), {0, so.w0, so.w1, sc.w0, sc.w1});
    }
  }
  for (int v : bound) key.push_back(static_cast<std::uint64_t>(v));
  return key;
}

std::optional<CandidateScores> lookup(const std::vector<std::uint64_t>& key) {
  const std::uint64_t digest = digest_of(key);
  Store& s = store();
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.index.find(digest);
  if (it == s.index.end() || it->second->key != key) {
    obs::add("cache.multiplicity.misses");
    return std::nullopt;
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh recency
  obs::add("cache.multiplicity.hits");
  return it->second->scores;
}

void insert(std::vector<std::uint64_t> key, CandidateScores scores) {
  Entry e{digest_of(key), std::move(key), std::move(scores), 0};
  e.bytes = footprint(e);
  Store& s = store();
  std::lock_guard<std::mutex> lock(s.mu);
  if (e.bytes > s.config.max_bytes) return;
  if (const auto it = s.index.find(e.digest); it != s.index.end()) {
    // Replace (also the path for a true digest collision: last writer wins —
    // the full-key compare in lookup keeps collisions safe, merely lossy).
    s.bytes -= it->second->bytes;
    s.lru.erase(it->second);
    s.index.erase(it);
  }
  s.bytes += e.bytes;
  s.lru.push_front(std::move(e));
  s.index.emplace(s.lru.front().digest, s.lru.begin());
  while (s.bytes > s.config.max_bytes) {
    const Entry& tail = s.lru.back();
    s.bytes -= tail.bytes;
    s.index.erase(tail.digest);
    s.lru.pop_back();
    obs::add("cache.multiplicity.evictions");
  }
}

void publish_stats() {
  Store& s = store();
  std::lock_guard<std::mutex> lock(s.mu);
  obs::gauge_set("cache.bytes", static_cast<double>(s.bytes));
  obs::gauge_set("cache.entries", static_cast<double>(s.lru.size()));
}

}  // namespace mfd::cache
