#include "net/lutnet.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <sstream>

#include "core/errors.h"

namespace mfd::net {

LutNetwork::LutNetwork(int num_primary_inputs) : num_pi_(num_primary_inputs) {}

int LutNetwork::add_lut(Lut lut) {
  assert(lut.table.num_vars() == static_cast<int>(lut.inputs.size()));
  const int signal = lut_signal(num_luts());
  for ([[maybe_unused]] int in : lut.inputs)
    assert(is_constant(in) || (in >= 0 && in < signal));
  luts_.push_back(std::move(lut));
  return signal;
}

void LutNetwork::add_output(int signal) {
  if (!is_valid_signal(signal))
    throw Error("LutNetwork::add_output: signal " + std::to_string(signal) +
                " is not a constant, primary input, or existing LUT (" +
                std::to_string(num_pi_) + " PIs, " + std::to_string(num_luts()) +
                " LUTs)");
  outputs_.push_back(signal);
}

void LutNetwork::replace_lut(int index, Lut lut) {
  if (index < 0 || index >= num_luts())
    throw Error("LutNetwork::replace_lut: LUT index " + std::to_string(index) +
                " out of range (" + std::to_string(num_luts()) + " LUTs)");
  if (lut.table.num_vars() != static_cast<int>(lut.inputs.size()))
    throw Error("LutNetwork::replace_lut: table over " +
                std::to_string(lut.table.num_vars()) + " variables does not match " +
                std::to_string(lut.inputs.size()) + " inputs");
  const int signal = lut_signal(index);
  for (int in : lut.inputs)
    if (!is_constant(in) && !(in >= 0 && in < signal))
      throw Error("LutNetwork::replace_lut: fanin " + std::to_string(in) +
                  " of LUT " + std::to_string(index) +
                  " is not a constant or a strictly earlier signal");
  luts_[static_cast<std::size_t>(index)] = std::move(lut);
}

std::vector<bool> LutNetwork::live_luts() const {
  std::vector<bool> live(static_cast<std::size_t>(num_luts()), false);
  std::vector<int> stack;
  for (int s : outputs_)
    if (!is_constant(s) && !is_primary_input(s)) stack.push_back(s);
  while (!stack.empty()) {
    const int s = stack.back();
    stack.pop_back();
    const int idx = lut_index(s);
    if (live[static_cast<std::size_t>(idx)]) continue;
    live[static_cast<std::size_t>(idx)] = true;
    for (int in : luts_[static_cast<std::size_t>(idx)].inputs)
      if (!is_constant(in) && !is_primary_input(in)) stack.push_back(in);
  }
  return live;
}

int LutNetwork::count_luts(int min_inputs) const {
  const auto live = live_luts();
  int count = 0;
  for (int i = 0; i < num_luts(); ++i)
    if (live[static_cast<std::size_t>(i)] &&
        static_cast<int>(luts_[static_cast<std::size_t>(i)].inputs.size()) >= min_inputs)
      ++count;
  return count;
}

int LutNetwork::count_gates() const {
  const auto live = live_luts();
  int count = 0;
  for (int i = 0; i < num_luts(); ++i) {
    if (!live[static_cast<std::size_t>(i)]) continue;
    const LutKind kind = classify(luts_[static_cast<std::size_t>(i)]);
    if (kind == LutKind::kGeneral) ++count;
  }
  return count;
}

int LutNetwork::depth() const {
  const auto live = live_luts();
  std::vector<int> level(static_cast<std::size_t>(num_pi_ + num_luts()), 0);
  int result = 0;
  for (int i = 0; i < num_luts(); ++i) {
    if (!live[static_cast<std::size_t>(i)]) continue;
    int d = 0;
    for (int in : luts_[static_cast<std::size_t>(i)].inputs)
      if (!is_constant(in)) d = std::max(d, level[static_cast<std::size_t>(in)]);
    level[static_cast<std::size_t>(lut_signal(i))] = d + 1;
    result = std::max(result, d + 1);
  }
  return result;
}

int LutNetwork::max_fanin() const {
  const auto live = live_luts();
  int result = 0;
  for (int i = 0; i < num_luts(); ++i)
    if (live[static_cast<std::size_t>(i)])
      result = std::max(result,
                        static_cast<int>(luts_[static_cast<std::size_t>(i)].inputs.size()));
  return result;
}

Lut LutNetwork::prune_inputs(Lut lut) {
  for (std::size_t j = 0; j < lut.inputs.size();) {
    if (lut.table.depends_on(static_cast<int>(j))) {
      ++j;
      continue;
    }
    lut.table = lut.table.cofactor(static_cast<int>(j), false);
    lut.inputs.erase(lut.inputs.begin() + static_cast<std::ptrdiff_t>(j));
  }
  return lut;
}

LutKind LutNetwork::classify(const Lut& raw) {
  const Lut lut = prune_inputs(raw);
  if (lut.inputs.empty()) return LutKind::kConstant;
  if (lut.inputs.size() == 1) return lut.table[1] ? LutKind::kBuffer : LutKind::kInverter;
  return LutKind::kGeneral;
}

int LutNetwork::simplify() {
  const int before = num_luts();
  // Each round: one rewrite pass in topological order, then dead-code
  // elimination. DCE inside the loop is what guarantees termination:
  // replaced LUTs are physically removed, so they cannot re-trigger the
  // change flag in the next round.
  for (int round = 0; round < 64; ++round) {
    bool changed = false;
    // repl maps every signal to its canonical replacement (earlier signal or
    // constant). Processed in topological order, so one hop is transitive.
    std::vector<int> repl(static_cast<std::size_t>(num_pi_ + num_luts()));
    for (std::size_t s = 0; s < repl.size(); ++s) repl[s] = static_cast<int>(s);
    auto mapped = [&](int s) { return is_constant(s) ? s : repl[static_cast<std::size_t>(s)]; };

    std::map<std::pair<std::vector<int>, tt::TruthTable>, int> canonical;

    for (int i = 0; i < num_luts(); ++i) {
      Lut lut = luts_[static_cast<std::size_t>(i)];
      for (int& in : lut.inputs) in = mapped(in);

      // Absorb inverter fanins: flip the table axis and use the source.
      for (std::size_t j = 0; j < lut.inputs.size(); ++j) {
        const int in = lut.inputs[j];
        if (is_constant(in) || is_primary_input(in)) continue;
        const Lut& driver = luts_[static_cast<std::size_t>(lut_index(in))];
        if (driver.inputs.size() == 1 && !driver.table[1] && driver.table[0]) {
          lut.inputs[j] = driver.inputs[0];
          lut.table.flip_var(static_cast<int>(j));
          changed = true;
        }
      }

      // Fold constant inputs into the table.
      for (std::size_t j = 0; j < lut.inputs.size();) {
        if (!is_constant(lut.inputs[j])) {
          ++j;
          continue;
        }
        lut.table = lut.table.cofactor(static_cast<int>(j), lut.inputs[j] == kConst1);
        lut.inputs.erase(lut.inputs.begin() + static_cast<std::ptrdiff_t>(j));
        changed = true;
      }

      // Repeated fanins: minterms where the copies disagree are unreachable,
      // so the table restricts to the diagonal.
      for (std::size_t j = 0; j < lut.inputs.size(); ++j)
        for (std::size_t k = j + 1; k < lut.inputs.size();) {
          if (lut.inputs[k] != lut.inputs[j]) {
            ++k;
            continue;
          }
          lut.table = lut.table.identify(static_cast<int>(j), static_cast<int>(k));
          lut.inputs.erase(lut.inputs.begin() + static_cast<std::ptrdiff_t>(k));
        }
      lut = prune_inputs(std::move(lut));
      const int sig = lut_signal(i);

      if (lut.inputs.empty()) {
        repl[static_cast<std::size_t>(sig)] = lut.table[0] ? kConst1 : kConst0;
        changed = true;
        continue;
      }
      if (lut.inputs.size() == 1 && lut.table[1] && !lut.table[0]) {
        repl[static_cast<std::size_t>(sig)] = lut.inputs[0];  // buffer
        changed = true;
        continue;
      }
      const auto key = std::make_pair(lut.inputs, lut.table);
      auto [it, inserted] = canonical.emplace(key, sig);
      if (!inserted) {
        repl[static_cast<std::size_t>(sig)] = it->second;
        changed = true;
        continue;
      }
      if (lut.inputs != luts_[static_cast<std::size_t>(i)].inputs ||
          lut.table != luts_[static_cast<std::size_t>(i)].table)
        changed = true;
      luts_[static_cast<std::size_t>(i)] = std::move(lut);
    }
    for (int& s : outputs_) s = mapped(s);

    // Dead-code elimination with renumbering.
    const auto live = live_luts();
    std::vector<int> new_signal(static_cast<std::size_t>(num_pi_ + num_luts()), kConst0);
    for (int i = 0; i < num_pi_; ++i) new_signal[static_cast<std::size_t>(i)] = i;
    std::vector<Lut> kept;
    for (int i = 0; i < num_luts(); ++i) {
      if (!live[static_cast<std::size_t>(i)]) continue;
      Lut lut = luts_[static_cast<std::size_t>(i)];
      for (int& in : lut.inputs)
        if (!is_constant(in)) in = new_signal[static_cast<std::size_t>(in)];
      new_signal[static_cast<std::size_t>(lut_signal(i))] =
          num_pi_ + static_cast<int>(kept.size());
      kept.push_back(std::move(lut));
    }
    for (int& s : outputs_)
      if (!is_constant(s)) s = new_signal[static_cast<std::size_t>(s)];
    changed |= kept.size() != luts_.size();
    luts_ = std::move(kept);
    if (!changed) break;
  }
  return before - num_luts();
}

int LutNetwork::collapse(int max_inputs) {
  const int before = num_luts();
  for (int round = 0; round < 16; ++round) {
    // Fanout over LUT-driven signals (outputs count as extra fanout: the
    // feeder's value is observable, so it cannot disappear into a consumer).
    std::vector<int> fanout(static_cast<std::size_t>(num_luts()), 0);
    for (const Lut& lut : luts_)
      for (int in : lut.inputs)
        if (!is_constant(in) && !is_primary_input(in))
          ++fanout[static_cast<std::size_t>(lut_index(in))];
    for (int s : outputs_)
      if (!is_constant(s) && !is_primary_input(s))
        ++fanout[static_cast<std::size_t>(lut_index(s))];

    bool changed = false;
    for (int i = 0; i < num_luts(); ++i) {
      Lut& consumer = luts_[static_cast<std::size_t>(i)];
      for (std::size_t j = 0; j < consumer.inputs.size(); ++j) {
        const int in = consumer.inputs[j];
        if (is_constant(in) || is_primary_input(in)) continue;
        const int fi = lut_index(in);
        if (fanout[static_cast<std::size_t>(fi)] != 1) continue;
        const Lut& feeder = luts_[static_cast<std::size_t>(fi)];

        // Combined input set: consumer inputs minus the feeder signal, plus
        // the feeder's inputs.
        std::vector<int> merged;
        for (std::size_t jj = 0; jj < consumer.inputs.size(); ++jj)
          if (jj != j && std::find(merged.begin(), merged.end(), consumer.inputs[jj]) == merged.end())
            merged.push_back(consumer.inputs[jj]);
        for (int fin : feeder.inputs)
          if (std::find(merged.begin(), merged.end(), fin) == merged.end())
            merged.push_back(fin);
        if (static_cast<int>(merged.size()) > max_inputs) continue;

        // Rebuild the consumer's table over the merged inputs: compose the
        // feeder into it, every other fanin read as its merged variable.
        const int width = static_cast<int>(merged.size());
        auto table_of = [&](int signal) {
          if (is_constant(signal)) return tt::TruthTable(width, signal == kConst1);
          const auto at = std::find(merged.begin(), merged.end(), signal);
          return tt::TruthTable::var(width, static_cast<int>(at - merged.begin()));
        };
        std::vector<tt::TruthTable> args;
        for (int fin : feeder.inputs) args.push_back(table_of(fin));
        const tt::TruthTable fed = tt::compose(feeder.table, args, width);
        args.clear();
        for (std::size_t cj = 0; cj < consumer.inputs.size(); ++cj)
          args.push_back(cj == j ? fed : table_of(consumer.inputs[cj]));
        consumer = Lut{std::move(merged), tt::compose(consumer.table, args, width)};
        changed = true;
        break;  // consumer rebuilt; revisit it next round
      }
    }
    simplify();  // drop the absorbed feeders, fold constants, renumber
    if (!changed) break;
  }
  return before - num_luts();
}

std::string LutNetwork::to_string() const {
  std::ostringstream os;
  os << "LutNetwork: " << num_pi_ << " inputs, " << num_outputs() << " outputs, "
     << num_luts() << " LUTs (depth " << depth() << ", max fanin " << max_fanin()
     << ", " << count_gates() << " gates)";
  return os.str();
}

}  // namespace mfd::net
