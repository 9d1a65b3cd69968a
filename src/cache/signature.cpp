#include "cache/signature.h"

namespace mfd::cache {
namespace {

/// The Mersenne prime 2^61 - 1.
constexpr std::uint64_t kP = (std::uint64_t{1} << 61) - 1;

/// a * b mod p for a, b < p, via the Mersenne folding identity
/// (x mod 2^61-1 == (x & p) + (x >> 61), applied until x < 2^61).
std::uint64_t mulmod(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 t = static_cast<unsigned __int128>(a) * b;
  std::uint64_t r = static_cast<std::uint64_t>(t & kP) +
                    static_cast<std::uint64_t>(t >> 61);
  r = (r & kP) + (r >> 61);
  if (r >= kP) r -= kP;
  return r;
}

std::uint64_t addmod(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = a + b;  // both < p < 2^61, no overflow
  if (r >= kP) r -= kP;
  return r;
}

/// 1 - h mod p (the signature of the complemented function).
std::uint64_t complement(std::uint64_t h) { return addmod(1, kP - h); }

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Fixed evaluation point: the value substituted for variable `var` under
/// `salt`. Deterministic across processes (pure arithmetic in constants) and
/// kept away from the degenerate values 0 and 1.
std::uint64_t point_of(std::uint32_t var, std::uint64_t salt) {
  return 2 + splitmix64(salt ^ (std::uint64_t{var} * 0xD1B54A32D192ED03ull)) %
                 (kP - 2);
}

constexpr std::uint64_t kSalt0 = 0x5CA1AB1ECAFEF00Dull;
constexpr std::uint64_t kSalt1 = 0x0DDBA11DEADBEA7Full;

}  // namespace

void SignatureComputer::refresh_epoch() {
  const std::uint64_t gc = m_->stats().gc_runs;
  if (gc != seen_gc_runs_) {
    // GC may have recycled node indices; every memo entry is suspect.
    memo_.clear();
    seen_gc_runs_ = gc;
  }
}

std::pair<std::uint64_t, std::uint64_t> SignatureComputer::hash_regular(
    bdd::Edge regular) {
  if (m_->is_terminal(regular)) return {1, 1};  // the constant ONE
  const auto it = memo_.find(regular.bits());
  if (it != memo_.end()) return it->second;

  // Recursion depth is bounded by the number of BDD levels, which is small
  // (tens to low hundreds of variables) — no explicit stack needed.
  const std::uint32_t var = m_->node_var(regular);
  const bdd::Edge lo = m_->node_lo(regular);
  const bdd::Edge hi = m_->node_hi(regular);  // stored then-edge: regular
  const auto lo_h = hash_regular(lo.regular());
  const auto hi_h = hash_regular(hi.regular());
  const std::uint64_t lo0 = lo.is_complemented() ? complement(lo_h.first) : lo_h.first;
  const std::uint64_t lo1 = lo.is_complemented() ? complement(lo_h.second) : lo_h.second;

  const std::uint64_t r0 = point_of(var, kSalt0);
  const std::uint64_t r1 = point_of(var, kSalt1);
  // H = r * H(hi) + (1 - r) * H(lo), the Shannon expansion of the
  // multilinear extension at the evaluation point.
  const std::pair<std::uint64_t, std::uint64_t> h = {
      addmod(mulmod(r0, hi_h.first), mulmod(complement(r0), lo0)),
      addmod(mulmod(r1, hi_h.second), mulmod(complement(r1), lo1))};
  memo_.emplace(regular.bits(), h);
  return h;
}

FunctionSignature SignatureComputer::of(bdd::Edge e) {
  refresh_epoch();
  const auto h = hash_regular(e.regular());
  if (e.is_complemented())
    return FunctionSignature{complement(h.first), complement(h.second)};
  return FunctionSignature{h.first, h.second};
}

FunctionSignature SignatureComputer::of_normalized(bdd::Edge e) {
  const FunctionSignature pos = of(e);
  const FunctionSignature neg{complement(pos.w0), complement(pos.w1)};
  return neg < pos ? neg : pos;
}

}  // namespace mfd::cache
