// LUT network intermediate representation.
//
// The decomposition flow emits a DAG of k-input lookup tables; with k = 5
// this is the XC3000 mapping target, with k = 2 it is a two-input gate
// netlist (the paper's Figures 2 and 3). Signals are integers: primary
// inputs first, then one signal per LUT, in topological order by
// construction. Constants are the dedicated signals kConst0/kConst1.
//
// A LUT's function is a tt::TruthTable over its fanins (table variable j is
// inputs[j]); the structural passes below edit it with the kernel's
// word-level operations (src/tt), at most tt::kMaxVars fanins per LUT.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tt/tt.h"

namespace mfd::net {

inline constexpr int kConst0 = -1;
inline constexpr int kConst1 = -2;

struct Lut {
  std::vector<int> inputs;  ///< signal ids, fanin order = truth-table variable order
  tt::TruthTable table;     ///< over inputs.size() variables; variable j is inputs[j]

  friend bool operator==(const Lut&, const Lut&) = default;
};

/// Classification of a LUT's function after structural simplification.
enum class LutKind { kConstant, kBuffer, kInverter, kGeneral };

class LutNetwork {
 public:
  LutNetwork() = default;
  explicit LutNetwork(int num_primary_inputs);

  int num_primary_inputs() const { return num_pi_; }
  int num_luts() const { return static_cast<int>(luts_.size()); }
  int num_outputs() const { return static_cast<int>(outputs_.size()); }
  const std::vector<int>& outputs() const { return outputs_; }
  const Lut& lut(int index) const { return luts_[static_cast<std::size_t>(index)]; }

  bool is_primary_input(int signal) const { return signal >= 0 && signal < num_pi_; }
  bool is_constant(int signal) const { return signal == kConst0 || signal == kConst1; }
  /// Index into luts() for a LUT-driven signal.
  int lut_index(int signal) const { return signal - num_pi_; }
  int lut_signal(int index) const { return num_pi_ + index; }

  /// True for constants, primary inputs, and already-added LUT signals.
  bool is_valid_signal(int signal) const {
    return is_constant(signal) || (signal >= 0 && signal < num_pi_ + num_luts());
  }

  /// Appends a LUT; all inputs must be existing signals. Returns its signal.
  int add_lut(Lut lut);
  /// Registers `signal` as the next primary output. Throws mfd::Error when
  /// `signal` names neither a constant, a primary input, nor an added LUT.
  void add_output(int signal);
  /// Redirects primary output `index` to `signal`. Throws mfd::Error on an
  /// out-of-range output index or an invalid signal (passes rewiring the
  /// network must not be able to corrupt it silently).
  void set_output(int index, int signal);
  /// Replaces the LUT driving lut_signal(index) in place, keeping its signal
  /// id. The new fanins must be constants or signals strictly below it, so
  /// topological order is preserved; throws mfd::Error otherwise.
  void replace_lut(int index, Lut lut);

  // ---- analysis (signal functions: net/simulate.h) -------------------------
  /// LUTs reachable from the outputs (alive), by LUT index.
  std::vector<bool> live_luts() const;
  /// Number of live LUTs with at least `min_inputs` inputs.
  int count_luts(int min_inputs = 0) const;
  /// Number of live LUTs whose function genuinely depends on >= 2 inputs
  /// (the "two-input gate count" of the paper's Figures 2/3; inverters and
  /// buffers are wiring, not gates).
  int count_gates() const;
  /// Longest PI-to-output path in live LUT levels.
  int depth() const;
  /// Maximum fanin over live LUTs.
  int max_fanin() const;

  // ---- transformations ----------------------------------------------------
  /// Structural cleanup: constant folding, buffer/inverter absorption where
  /// possible, duplicate-LUT sharing, dead-LUT removal. Preserves I/O
  /// behaviour; returns the number of LUTs removed.
  int simplify();

  /// Collapses single-fanout LUTs into their consumer when the combined
  /// input set still fits `max_inputs` (classic LUT packing). Runs simplify
  /// afterwards; preserves I/O behaviour; returns the number of LUTs
  /// removed.
  int collapse(int max_inputs);

  /// Classifies a LUT after removing non-essential inputs.
  static LutKind classify(const Lut& lut);

  /// A one-line count summary; networks with equal summaries may differ.
  std::string to_string() const;

  /// Same primary-input count, LUTs (fanins and tables) and outputs.
  friend bool operator==(const LutNetwork&, const LutNetwork&) = default;

 private:
  /// Drops inputs the table does not depend on; canonicalizes constants.
  static Lut prune_inputs(Lut lut);

  int num_pi_ = 0;
  std::vector<Lut> luts_;
  std::vector<int> outputs_;
};

}  // namespace mfd::net
