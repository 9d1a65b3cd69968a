#include "cache/cache.h"

#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <list>
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

std::uint64_t digest_of(const std::vector<std::uint64_t>& words) {
  std::uint64_t d = 0x2545F4914F6CDD1Dull;
  for (std::uint64_t w : words) d = splitmix64(d ^ w);
  return d;
}

/// A candidate's bound variables as its record stores them: 16 bits each,
/// in candidate order.
using PackedBound = std::vector<std::uint16_t>;

/// `bound` packed, or nullopt when a variable does not fit 16 bits (such a
/// candidate is never stored, so never found).
std::optional<PackedBound> pack(const std::vector<int>& bound) {
  PackedBound packed;
  packed.reserve(bound.size());
  for (int v : bound) {
    if (v < 0 || v > std::numeric_limits<std::uint16_t>::max()) return std::nullopt;
    packed.push_back(static_cast<std::uint16_t>(v));
  }
  return packed;
}

/// True when `scores` fit a record of a set of `outputs` functions exactly.
bool encodable(const CandidateScores& scores, std::size_t outputs) {
  auto fits32 = [](long x) {
    return x >= std::numeric_limits<std::int32_t>::min() &&
           x <= std::numeric_limits<std::int32_t>::max();
  };
  if (!fits32(scores.benefit) || !fits32(scores.sum_r) ||
      scores.r_per_output.size() != outputs)
    return false;
  for (int r : scores.r_per_output)
    if (r < 0 || r > std::numeric_limits<std::uint8_t>::max()) return false;
  return true;
}

std::uint64_t hash_of(const void* bytes, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a, then a final mix
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001B3ull;
  return splitmix64(h);
}

/// A record: benefit, sharing gap and sum_r as 32-bit values, the packed
/// bound, then one code length byte per output, padded to 4 bytes.
constexpr std::size_t kScoreBytes = 3 * sizeof(std::int32_t);

/// The candidates of one bound length in one set: fixed-size records in a
/// flat arena, found through an open-addressed index of record numbers.
struct Arena {
  std::size_t bound_len = 0;
  std::size_t stride = 0;    // bytes per record
  std::size_t capacity = 0;  // records the arena has room for
  std::size_t count = 0;
  std::vector<unsigned char> records;
  std::vector<std::uint32_t> slots;  // record number + 1; 0 = empty

  Arena(std::size_t len, std::size_t outputs)
      : bound_len(len),
        stride((kScoreBytes + 2 * len + outputs + 3) / 4 * 4),
        slots(8, 0) {}

  std::size_t bytes() const {
    return sizeof(Arena) + capacity * stride + slots.size() * sizeof(std::uint32_t);
  }

  unsigned char* record(std::size_t i) { return records.data() + i * stride; }
  unsigned char* vars(std::size_t i) { return record(i) + kScoreBytes; }

  /// The index slot of the bound whose packed variables are `v`: its
  /// record's, or the empty slot it would take.
  std::uint32_t& slot_of(const void* v) {
    const std::size_t n = 2 * bound_len, mask = slots.size() - 1;
    for (std::size_t s = hash_of(v, n) & mask;; s = (s + 1) & mask)
      if (slots[s] == 0 || std::memcmp(vars(slots[s] - 1), v, n) == 0) return slots[s];
  }

  /// Appends a record for the packed bound `v`, indexes it, and returns its
  /// number.
  std::size_t add(const void* v) {
    if (count == capacity) {
      capacity = capacity == 0 ? 4 : 2 * capacity;
      records.reserve(capacity * stride);
    }
    records.resize((count + 1) * stride);
    std::memcpy(vars(count), v, 2 * bound_len);
    if (4 * (count + 1) > 3 * slots.size()) {
      // Keep the index at most three quarters full: double and re-place.
      slots.assign(2 * slots.size(), 0);
      for (std::size_t i = 0; i < count; ++i)
        slot_of(vars(i)) = static_cast<std::uint32_t>(i + 1);
    }
    std::uint32_t& slot = slot_of(v);
    slot = static_cast<std::uint32_t>(++count);
    return count - 1;
  }

  void write(std::size_t i, const CandidateScores& s) {
    const std::int32_t w[3] = {static_cast<std::int32_t>(s.benefit), s.sharing_gap,
                               static_cast<std::int32_t>(s.sum_r)};
    std::memcpy(record(i), w, sizeof w);
    unsigned char* r = vars(i) + 2 * bound_len;
    for (std::size_t k = 0; k < s.r_per_output.size(); ++k)
      r[k] = static_cast<unsigned char>(s.r_per_output[k]);
  }

  CandidateScores read(std::size_t i, std::size_t outputs) {
    std::int32_t w[3];
    std::memcpy(w, record(i), sizeof w);
    const unsigned char* r = vars(i) + 2 * bound_len;
    return CandidateScores{w[0], w[1], w[2], std::vector<int>(r, r + outputs)};
  }
};

/// One function set: its key words, stored once, and its candidates.
struct Set {
  std::vector<std::uint64_t> words;
  std::uint64_t digest = 0;
  std::vector<Arena> arenas;  // one per bound length
  std::size_t bytes = 0;      // footprint() when last measured

  std::size_t outputs() const { return static_cast<std::size_t>(words[1]); }

  std::size_t records() const {
    std::size_t n = 0;
    for (const Arena& a : arenas) n += a.count;
    return n;
  }

  Arena* arena(std::size_t bound_len) {
    for (Arena& a : arenas)
      if (a.bound_len == bound_len) return &a;
    return nullptr;
  }

  /// Stores `scores` for the packed bound `v`, in place if it has a record.
  void put(const PackedBound& v, const CandidateScores& scores) {
    Arena* a = arena(v.size());
    if (a == nullptr) a = &arenas.emplace_back(v.size(), outputs());
    const std::uint32_t slot = a->slot_of(v.data());
    a->write(slot != 0 ? slot - 1 : a->add(v.data()), scores);
  }
};

/// The list and index nodes around a set, with their allocator headers.
constexpr std::size_t kNodeBytes = 96;

/// Estimated footprint of a set: the set itself, its words, its arenas and
/// their indexes, and its nodes. Precision is not the point — the bound is.
std::size_t footprint(const Set& s) {
  std::size_t bytes = sizeof(Set) + kNodeBytes + s.words.size() * sizeof(std::uint64_t);
  for (const Arena& a : s.arenas) bytes += a.bytes();
  return bytes;
}

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

/// One thread's store.
struct Store {
  std::list<Set> lru;  // front = most recently used
  std::unordered_map<std::uint64_t, std::list<Set>::iterator> index;  // by digest
  std::size_t bytes = 0;

  void clear() {
    lru.clear();
    index.clear();
    bytes = 0;
  }

  /// The stored set with `set`'s words, or lru.end().
  std::list<Set>::iterator find(const FunctionSet& set) {
    const auto it = index.find(set.digest);
    if (it == index.end() || it->second->words != set.words) return lru.end();
    return it->second;
  }

  void erase(std::list<Set>::iterator it) {
    bytes -= it->bytes;
    index.erase(it->digest);
    lru.erase(it);
  }
};

Store& store() {
  thread_local Store s;
  return s;
}

}  // namespace

void configure(const CacheConfig& config) {
  active_config() = with_env(config);
  store().clear();
}

const CacheConfig& config() { return active_config(); }

void clear() { store().clear(); }

FunctionSet function_set(SignatureComputer& sig,
                         const std::vector<std::pair<bdd::Edge, bdd::Edge>>& fns,
                         std::uint64_t seed) {
  FunctionSet set;
  std::vector<std::uint64_t>& w = set.words;
  w.reserve(2 + fns.size() * 5);
  w.push_back(seed);
  w.push_back(fns.size());
  for (const auto& f : fns) {
    if (f.second == bdd::kTrue) {
      // Completely specified: normalize polarity. Complementing f
      // complements every cofactor element-wise — a bijection that changes
      // no class count and no joint sharing count, so f and !f share the
      // set.
      const FunctionSignature s = sig.of_normalized(f.first);
      w.insert(w.end(), {1, s.w0, s.w1, 0, 0});
    } else {
      const FunctionSignature so = sig.of(f.first);
      const FunctionSignature sc = sig.of(f.second);
      w.insert(w.end(), {0, so.w0, so.w1, sc.w0, sc.w1});
    }
  }
  set.digest = digest_of(w);
  return set;
}

std::optional<CandidateScores> lookup(const FunctionSet& set, const std::vector<int>& bound) {
  Store& s = store();
  const std::optional<PackedBound> v = pack(bound);
  const auto stored = v ? s.find(set) : s.lru.end();
  Arena* a = stored != s.lru.end() ? stored->arena(v->size()) : nullptr;
  const std::uint32_t slot = a != nullptr ? a->slot_of(v->data()) : 0;
  if (slot == 0) {
    obs::add("cache.multiplicity.misses");
    return std::nullopt;
  }
  s.lru.splice(s.lru.begin(), s.lru, stored);  // refresh recency
  obs::add("cache.multiplicity.hits");
  return a->read(slot - 1, stored->outputs());
}

void insert(const FunctionSet& set, const std::vector<int>& bound,
            const CandidateScores& scores) {
  Store& s = store();
  const std::optional<PackedBound> v = pack(bound);
  if (!v || set.words.size() < 2 || !encodable(scores, set.words[1])) return;

  auto it = s.index.find(set.digest);
  if (it != s.index.end() && it->second->words != set.words) {
    // A true digest collision: last writer wins (the full compare in lookup
    // keeps collisions safe, merely lossy).
    s.erase(it->second);
    it = s.index.end();
  }
  if (it == s.index.end()) {
    Set fresh{set.words, set.digest, {}, 0};
    fresh.put(*v, scores);
    if (footprint(fresh) > config().max_bytes) return;  // does not fit even alone
    s.lru.push_front(std::move(fresh));
    s.index.emplace(set.digest, s.lru.begin());
  } else {
    s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh recency
    s.lru.front().put(*v, scores);
  }
  Set& target = s.lru.front();
  s.bytes -= target.bytes;
  target.bytes = footprint(target);
  s.bytes += target.bytes;

  while (s.bytes > config().max_bytes) {
    obs::add("cache.multiplicity.evictions", s.lru.back().records());
    s.erase(std::prev(s.lru.end()));
  }
}

void publish_stats() {
  const Store& s = store();
  std::size_t records = 0;
  for (const Set& set : s.lru) records += set.records();
  obs::gauge_set("cache.bytes", static_cast<double>(s.bytes));
  obs::gauge_set("cache.entries", static_cast<double>(records));
  obs::gauge_set("cache.sets", static_cast<double>(s.lru.size()));
}

}  // namespace mfd::cache
