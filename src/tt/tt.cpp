#include "tt/tt.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/errors.h"

namespace mfd::tt {
namespace {

// kVarMask[j] has bit m set iff bit j of m is set: variable j of a word.
constexpr std::uint64_t kVarMask[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

// kRepeat[n] has bit m set iff m is a multiple of 2^n: the copies of minterm
// 0 in the word of a table over n < 6 variables.
constexpr std::uint64_t kRepeat[6] = {
    ~0ull, 0x5555555555555555ull, 0x1111111111111111ull,
    0x0101010101010101ull, 0x0001000100010001ull, 0x0000000100000001ull};

/// Bottom-up table construction with one memoized sub-table per BDD node:
/// the node of table variable j gets a table over variables 0..j, stored in
/// one arena.
class Builder {
 public:
  Builder(const bdd::Manager& m, const std::vector<int>& vars)
      : m_(m), table_var_(static_cast<std::size_t>(m.num_vars()), -1) {
    if (vars.size() > static_cast<std::size_t>(kMaxVars))
      throw Error("tt: " + std::to_string(vars.size()) + " variables exceed " +
                  std::to_string(kMaxVars));
    for (std::size_t j = 0; j < vars.size(); ++j)
      table_var_[static_cast<std::size_t>(vars[j])] = static_cast<int>(j);
  }

  /// Writes the table of e over table variables 0..n-1 to dst (num_words(n)
  /// words). Variables above e's own are don't-cares: its sub-table repeats.
  void emit(bdd::Edge e, int n, std::uint64_t* dst) {
    const std::size_t words = num_words(n);
    if (m_.is_terminal(e)) {
      std::fill_n(dst, words, e == bdd::kTrue ? ~std::uint64_t{0} : 0);
      return;
    }
    const std::size_t own = num_words(table_var(e) + 1);
    const std::size_t off = build(e.regular());
    const std::uint64_t flip = e.is_complemented() ? ~std::uint64_t{0} : 0;
    for (std::size_t i = 0; i < words; ++i) dst[i] = arena_[off + (i & (own - 1))] ^ flip;
  }

 private:
  int table_var(bdd::Edge e) const {
    const int j = table_var_[m_.node_var(e)];
    if (j < 0) throw Error("tt: BDD depends on a variable outside the table");
    return j;
  }

  /// Arena offset of the regular node e's table over table variables 0..j,
  /// j being e's own table variable.
  std::size_t build(bdd::Edge e) {
    if (const auto it = memo_.find(e.index()); it != memo_.end()) return it->second;
    const int j = table_var(e);
    const bdd::Edge lo = m_.node_lo(e);
    const bdd::Edge hi = m_.node_hi(e);
    // Children first: building them may grow (and move) the arena.
    for (const bdd::Edge c : {lo, hi})
      if (!m_.is_terminal(c)) build(c.regular());
    const std::size_t off = arena_.size();
    arena_.resize(off + num_words(j + 1));
    if (j < 6) {
      std::uint64_t w0 = 0, w1 = 0;
      emit(lo, j, &w0);
      emit(hi, j, &w1);
      arena_[off] = (w0 & ~kVarMask[j]) | (w1 & kVarMask[j]);
    } else {
      emit(lo, j, arena_.data() + off);
      emit(hi, j, arena_.data() + off + num_words(j));
    }
    memo_.emplace(e.index(), off);
    return off;
  }

  const bdd::Manager& m_;
  std::vector<int> table_var_;  // manager variable -> table variable, or -1
  std::unordered_map<bdd::NodeIndex, std::size_t> memo_;
  std::vector<std::uint64_t> arena_;
};

std::uint64_t mix(std::uint64_t h, std::uint64_t w) {
  return h ^ (w + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2));
}

}  // namespace

TruthTable::TruthTable(int num_vars, bool value) : n_(num_vars) {
  if (num_vars < 0 || num_vars > kMaxVars)
    throw Error("tt: cannot build a table over " + std::to_string(num_vars) +
                " variables (at most " + std::to_string(kMaxVars) + ")");
  words_.assign(tt::num_words(num_vars), value ? ~std::uint64_t{0} : 0);
}

TruthTable TruthTable::from_word(int num_vars, std::uint64_t bits) {
  assert(num_vars <= 6);
  TruthTable t(num_vars);
  if (num_vars < 6)
    bits = (bits & ((std::uint64_t{1} << (1 << num_vars)) - 1)) * kRepeat[num_vars];
  t.words_[0] = bits;
  return t;
}

TruthTable TruthTable::var(int num_vars, int j) {
  assert(j >= 0 && j < num_vars);
  TruthTable t(num_vars);
  for (std::size_t i = 0; i < t.words_.size(); ++i)
    t.words_[i] = j < 6 ? kVarMask[j] : ((i >> (j - 6)) & 1) != 0 ? ~std::uint64_t{0} : 0;
  return t;
}

void TruthTable::set(std::uint64_t minterm, bool value) {
  const std::uint64_t copies = (n_ < 6 ? kRepeat[n_] : 1) << (minterm & 63);
  std::uint64_t& w = words_[minterm >> 6];
  w = value ? (w | copies) : (w & ~copies);
}

bool TruthTable::is_constant(bool value) const {
  const std::uint64_t want = value ? ~std::uint64_t{0} : 0;
  return std::all_of(words_.begin(), words_.end(),
                     [want](std::uint64_t w) { return w == want; });
}

TruthTable& TruthTable::operator&=(const TruthTable& o) {
  assert(n_ == o.n_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
  return *this;
}

TruthTable& TruthTable::operator|=(const TruthTable& o) {
  assert(n_ == o.n_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
  return *this;
}

TruthTable& TruthTable::operator^=(const TruthTable& o) {
  assert(n_ == o.n_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= o.words_[i];
  return *this;
}

TruthTable operator~(TruthTable t) {
  for (std::uint64_t& w : t.words_) w = ~w;
  return t;
}

void TruthTable::swap_vars(int a, int b) {
  if (a == b) return;
  if (a > b) std::swap(a, b);
  std::uint64_t* w = words_.data();
  const std::size_t nw = words_.size();
  if (b < 6) {
    // Both inside a word: exchange the bit at every m with bit a set and
    // bit b clear and the bit at m + 2^b - 2^a.
    const int shift = (1 << b) - (1 << a);
    const std::uint64_t mask = kVarMask[a] & ~kVarMask[b];
    for (std::size_t i = 0; i < nw; ++i) {
      const std::uint64_t d = (w[i] ^ (w[i] >> shift)) & mask;
      w[i] ^= d | (d << shift);
    }
  } else if (a < 6) {
    // a inside a word, b across words: word k (b clear) trades its a-set
    // bits for the a-clear bits of word k + 2^(b-6) (b set).
    const std::size_t step = std::size_t{1} << (b - 6);
    const int shift = 1 << a;
    const std::uint64_t mask = kVarMask[a];
    for (std::size_t i = 0; i < nw; i += 2 * step)
      for (std::size_t k = i; k < i + step; ++k) {
        const std::uint64_t lo = w[k], hi = w[k + step];
        w[k] = (lo & ~mask) | ((hi << shift) & mask);
        w[k + step] = (hi & mask) | ((lo & mask) >> shift);
      }
  } else {
    // Both across words: word i (a set, b clear) trades places with word
    // i + 2^(b-6) - 2^(a-6).
    const std::size_t sa = std::size_t{1} << (a - 6), sb = std::size_t{1} << (b - 6);
    for (std::size_t i = 0; i < nw; ++i)
      if ((i & sa) != 0 && (i & sb) == 0) std::swap(w[i], w[i + sb - sa]);
  }
}

void TruthTable::flip_var(int j) {
  if (j < 6) {
    const int shift = 1 << j;
    for (std::uint64_t& w : words_)
      w = ((w & kVarMask[j]) >> shift) | ((w & ~kVarMask[j]) << shift);
    return;
  }
  const std::size_t step = std::size_t{1} << (j - 6);
  for (std::size_t i = 0; i < words_.size(); i += 2 * step)
    for (std::size_t k = i; k < i + step; ++k) std::swap(words_[k], words_[k + step]);
}

bool TruthTable::depends_on(int j) const {
  if (j < 6) {
    const int shift = 1 << j;
    for (const std::uint64_t w : words_)
      if ((((w >> shift) ^ w) & ~kVarMask[j]) != 0) return true;
    return false;
  }
  const std::size_t step = std::size_t{1} << (j - 6);
  for (std::size_t i = 0; i < words_.size(); i += 2 * step)
    for (std::size_t k = i; k < i + step; ++k)
      if (words_[k] != words_[k + step]) return true;
  return false;
}

TruthTable TruthTable::cofactor(int j, bool value) const {
  // Copy the chosen half over the other, so the table ignores variable j.
  TruthTable t = *this;
  if (j < 6) {
    const int shift = 1 << j;
    for (std::uint64_t& w : t.words_) {
      const std::uint64_t half = w & (value ? kVarMask[j] : ~kVarMask[j]);
      w = value ? half | (half >> shift) : half | (half << shift);
    }
  } else {
    const std::size_t step = std::size_t{1} << (j - 6);
    for (std::size_t i = 0; i < t.words_.size(); i += 2 * step)
      for (std::size_t k = i; k < i + step; ++k)
        (value ? t.words_[k] : t.words_[k + step]) = value ? t.words_[k + step] : t.words_[k];
  }
  // Walk the ignored variable up to the top, keeping the others in order;
  // the lower half of the table is then the function over n-1 variables (a
  // single word already repeats with the narrower period).
  for (int i = j; i + 1 < n_; ++i) t.swap_vars(i, i + 1);
  t.n_ = n_ - 1;
  t.words_.resize(tt::num_words(t.n_));
  return t;
}

TruthTable TruthTable::identify(int j, int k) const {
  assert(j < k);
  const TruthTable x = var(n_ - 1, j);
  return (x & cofactor(k, true)) | (~x & cofactor(k, false));
}

TruthTable compose(const TruthTable& f, const std::vector<TruthTable>& args, int num_vars) {
  assert(args.size() == static_cast<std::size_t>(f.num_vars()));
  TruthTable r(num_vars);
  for (std::size_t w = 0; w < r.num_words(); ++w) {
    std::uint64_t acc = 0;
    for (std::uint64_t c = 0; c < f.num_minterms(); ++c) {
      if (!f[c]) continue;
      std::uint64_t cube = ~std::uint64_t{0};
      for (std::size_t j = 0; j < args.size(); ++j) {
        assert(args[j].num_vars() == num_vars);
        const std::uint64_t a = args[j].data()[w];
        cube &= ((c >> j) & 1) != 0 ? a : ~a;
      }
      acc |= cube;
    }
    r.data()[w] = acc;
  }
  return r;
}

std::uint64_t Blocks::hash(std::size_t b) const {
  std::uint64_t h = 0;
  for (std::size_t k = 0; k < words_per_block(); ++k) h = mix(h, word(b, k));
  return h;
}

bool Blocks::equal(std::size_t a, std::size_t b) const {
  for (std::size_t k = 0; k < words_per_block(); ++k)
    if (word(a, k) != word(b, k)) return false;
  return true;
}

bool compatible(const Blocks& on, const Blocks& care, std::size_t a, std::size_t b) {
  for (std::size_t k = 0; k < on.words_per_block(); ++k)
    if (((on.word(a, k) ^ on.word(b, k)) & care.word(a, k) & care.word(b, k)) != 0)
      return false;
  return true;
}

std::vector<TruthTable> from_bdd(const bdd::Manager& m,
                                 const std::vector<bdd::Edge>& roots,
                                 const std::vector<int>& vars) {
  std::vector<int> order = vars;
  std::sort(order.begin(), order.end(), [&m](int a, int b) {
    return m.level_of_var(a) > m.level_of_var(b);
  });
  Builder builder(m, order);
  // The swaps that take the level order to the order asked for.
  const int n = static_cast<int>(vars.size());
  std::vector<std::pair<int, int>> swaps;
  for (int i = 0; i < n; ++i) {
    if (order[static_cast<std::size_t>(i)] == vars[static_cast<std::size_t>(i)]) continue;
    const int p = static_cast<int>(
        std::find(order.begin() + i, order.end(), vars[static_cast<std::size_t>(i)]) -
        order.begin());
    swaps.emplace_back(i, p);
    std::swap(order[static_cast<std::size_t>(i)], order[static_cast<std::size_t>(p)]);
  }
  std::vector<TruthTable> tables;
  tables.reserve(roots.size());
  for (const bdd::Edge r : roots) {
    TruthTable t(n);
    builder.emit(r, n, t.data());
    for (const auto& [a, b] : swaps) t.swap_vars(a, b);
    tables.push_back(std::move(t));
  }
  return tables;
}

IsfTables isf_tables(const Isf& f, std::vector<int> support) {
  const bdd::Manager& m = *f.manager();
  std::sort(support.begin(), support.end(), [&m](int a, int b) {
    return m.level_of_var(a) > m.level_of_var(b);
  });
  std::vector<TruthTable> t = from_bdd(m, {f.on().id(), f.care().id()}, support);
  IsfTables out;
  out.vars = std::move(support);
  out.on = std::move(t[0]);
  out.care = std::move(t[1]);
  out.on &= out.care;
  out.complete = out.care.is_constant(true);
  return out;
}

}  // namespace mfd::tt
