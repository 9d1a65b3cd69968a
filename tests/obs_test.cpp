// Tests for the observability subsystem: phase timers, counters/gauges,
// JSON emission (validated by a minimal parser written here), and the
// report attached to SynthesisResult.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuits/circuits.h"
#include "core/synthesizer.h"
#include "obs/json.h"
#include "obs/obs.h"

namespace {

using mfd::obs::PhaseNode;
using mfd::obs::Report;
using mfd::obs::ScopedPhase;

void spin_at_least_us(int us) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start < std::chrono::microseconds(us)) {
  }
}

// --- minimal JSON parser (enough to round-trip what JsonWriter emits) ------

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    EXPECT_NE(it, object.end()) << "missing key: " << key;
    static const JsonValue null_value;
    return it == object.end() ? null_value : it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    EXPECT_EQ(pos_, s_.size()) << "trailing characters after JSON document";
    return v;
  }

  bool ok() const { return ok_; }

 private:
  void fail(const std::string& why) {
    ok_ = false;
    ADD_FAILURE() << "JSON parse error at offset " << pos_ << ": " << why;
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    if (pos_ >= s_.size()) {
      fail("unexpected end");
      return {};
    }
    const char c = s_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string();
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') {
      pos_ += 4;
      return {};
    }
    return parse_number();
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    consume('{');
    if (consume('}')) return v;
    do {
      JsonValue key = parse_string();
      if (!consume(':')) fail("expected ':'");
      v.object[key.string] = parse_value();
    } while (consume(','));
    if (!consume('}')) fail("expected '}'");
    return v;
  }

  JsonValue parse_array() {
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    consume('[');
    if (consume(']')) return v;
    do {
      v.array.push_back(parse_value());
    } while (consume(','));
    if (!consume(']')) fail("expected ']'");
    return v;
  }

  JsonValue parse_string() {
    JsonValue v;
    v.kind = JsonValue::Kind::String;
    if (!consume('"')) {
      fail("expected '\"'");
      return v;
    }
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        v.string.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': v.string.push_back('"'); break;
        case '\\': v.string.push_back('\\'); break;
        case '/': v.string.push_back('/'); break;
        case 'b': v.string.push_back('\b'); break;
        case 'f': v.string.push_back('\f'); break;
        case 'n': v.string.push_back('\n'); break;
        case 'r': v.string.push_back('\r'); break;
        case 't': v.string.push_back('\t'); break;
        case 'u': {
          // Only \u00XX is emitted by the writer (control characters).
          if (pos_ + 4 > s_.size()) {
            fail("truncated \\u escape");
            return v;
          }
          const std::string hex = s_.substr(pos_, 4);
          pos_ += 4;
          v.string.push_back(static_cast<char>(std::strtol(hex.c_str(), nullptr, 16)));
          break;
        }
        default: fail("bad escape"); return v;
      }
    }
    if (!consume('"')) fail("unterminated string");
    return v;
  }

  JsonValue parse_bool() {
    JsonValue v;
    v.kind = JsonValue::Kind::Bool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  JsonValue parse_number() {
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    v.number = std::strtod(start, &end);
    if (end == start) fail("bad number");
    pos_ += static_cast<std::size_t>(end - start);
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// Restores a clean registry around every test so they don't see each other's
// counters (every test runs on the main thread, which has one registry).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mfd::obs::set_enabled(true);
    mfd::obs::reset();
  }
  void TearDown() override {
    mfd::obs::set_enabled(true);
    mfd::obs::reset();
  }
};

// --- counters and gauges ----------------------------------------------------

TEST_F(ObsTest, CountersAreMonotonicAndNamed) {
  EXPECT_EQ(mfd::obs::counter_value("t.count"), 0u);
  mfd::obs::add("t.count");
  mfd::obs::add("t.count", 41);
  EXPECT_EQ(mfd::obs::counter_value("t.count"), 42u);
  mfd::obs::add("t.other", 7);
  EXPECT_EQ(mfd::obs::counter_value("t.other"), 7u);
  EXPECT_EQ(mfd::obs::counter_value("t.count"), 42u);

  const Report r = mfd::obs::collect();
  EXPECT_EQ(r.counters.at("t.count"), 42u);
  EXPECT_EQ(r.counters.at("t.other"), 7u);
}

TEST_F(ObsTest, GaugesSetAndMax) {
  mfd::obs::gauge_set("t.g", 2.5);
  mfd::obs::gauge_set("t.g", 1.5);
  EXPECT_DOUBLE_EQ(mfd::obs::gauge_value("t.g"), 1.5);  // set overwrites
  mfd::obs::gauge_max("t.m", 3.0);
  mfd::obs::gauge_max("t.m", 2.0);
  EXPECT_DOUBLE_EQ(mfd::obs::gauge_value("t.m"), 3.0);  // max keeps the peak
  mfd::obs::gauge_max("t.m", 5.0);
  EXPECT_DOUBLE_EQ(mfd::obs::gauge_value("t.m"), 5.0);
}

TEST_F(ObsTest, DisabledIsNoop) {
  mfd::obs::set_enabled(false);
  mfd::obs::add("t.off", 10);
  mfd::obs::gauge_set("t.off.g", 1.0);
  {
    ScopedPhase p("off_phase");
  }
  mfd::obs::set_enabled(true);
  EXPECT_EQ(mfd::obs::counter_value("t.off"), 0u);
  EXPECT_DOUBLE_EQ(mfd::obs::gauge_value("t.off.g"), 0.0);
  const Report r = mfd::obs::collect();
  EXPECT_EQ(r.phases.child("off_phase"), nullptr);
}

TEST_F(ObsTest, ResetClearsEverything) {
  mfd::obs::add("t.x");
  mfd::obs::gauge_set("t.y", 1.0);
  {
    ScopedPhase p("gone");
  }
  mfd::obs::reset();
  const Report r = mfd::obs::collect();
  EXPECT_TRUE(r.counters.empty());
  EXPECT_TRUE(r.gauges.empty());
  EXPECT_TRUE(r.phases.children.empty());
}

TEST_F(ObsTest, EachThreadKeepsItsOwnRegistryUntilMerged) {
  // A second thread starts from an empty registry, and what it records stays
  // out of this thread's until merge(): counters add, gauges keep the larger
  // value, and its phases join this thread's innermost open phase by name,
  // with their calls and seconds added.
  mfd::obs::add("t.shared", 2);
  mfd::obs::gauge_max("t.high", 5.0);
  mfd::obs::gauge_max("t.low", 1.0);
  Report worker;
  bool started_empty = false;
  std::thread([&] {
    const Report fresh = mfd::obs::collect();
    started_empty = fresh.counters.empty() && fresh.gauges.empty();
    mfd::obs::add("t.shared", 3);
    mfd::obs::add("t.worker");
    mfd::obs::gauge_max("t.high", 4.0);
    mfd::obs::gauge_max("t.low", 2.0);
    {
      ScopedPhase step("step");
      ScopedPhase inner("inner");
      spin_at_least_us(200);
    }
    worker = mfd::obs::collect();
  }).join();
  EXPECT_TRUE(started_empty);
  EXPECT_EQ(mfd::obs::counter_value("t.shared"), 2u);
  EXPECT_EQ(mfd::obs::counter_value("t.worker"), 0u);
  EXPECT_DOUBLE_EQ(mfd::obs::gauge_value("t.low"), 1.0);

  ScopedPhase pass("pass");
  {
    ScopedPhase step("step");
    spin_at_least_us(200);
  }
  const double own = mfd::obs::collect().phases.child("pass")->child("step")->seconds;
  mfd::obs::merge(worker);
  EXPECT_EQ(mfd::obs::counter_value("t.shared"), 5u);
  EXPECT_EQ(mfd::obs::counter_value("t.worker"), 1u);
  EXPECT_DOUBLE_EQ(mfd::obs::gauge_value("t.high"), 5.0);
  EXPECT_DOUBLE_EQ(mfd::obs::gauge_value("t.low"), 2.0);
  const Report r = mfd::obs::collect();
  EXPECT_EQ(r.phases.child("step"), nullptr);  // under the open phase only
  const PhaseNode* step = r.phases.child("pass")->child("step");
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->calls, 2u);
  EXPECT_DOUBLE_EQ(step->seconds, own + worker.phases.child("step")->seconds);
  const PhaseNode* inner = step->child("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->calls, 1u);

  // Disabled, merge changes nothing.
  mfd::obs::set_enabled(false);
  mfd::obs::merge(worker);
  mfd::obs::set_enabled(true);
  EXPECT_EQ(mfd::obs::counter_value("t.shared"), 5u);
}

// --- phase timers -----------------------------------------------------------

TEST_F(ObsTest, NestedPhasesAccumulateIntoATree) {
  for (int i = 0; i < 3; ++i) {
    ScopedPhase outer("outer");
    spin_at_least_us(200);
    {
      ScopedPhase inner("inner");
      spin_at_least_us(200);
    }
    {
      ScopedPhase inner("inner");  // same name again: same node, calls += 1
      spin_at_least_us(200);
    }
  }
  const Report r = mfd::obs::collect();
  const PhaseNode* outer = r.phases.child("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->calls, 3u);
  const PhaseNode* inner = outer->child("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->calls, 6u);
  // A parent's time includes its children's.
  EXPECT_GE(outer->seconds, inner->seconds);
  EXPECT_GE(outer->seconds, outer->child_seconds());
  // 3 x (200us self + 2 x 200us children) on the outer, 6 x 200us inner.
  EXPECT_GE(outer->seconds, 1800e-6);
  EXPECT_GE(inner->seconds, 1200e-6);
}

TEST_F(ObsTest, OpenPhasesAreCreditedAtCollectTime) {
  ScopedPhase open("still_open");
  spin_at_least_us(500);
  const Report r = mfd::obs::collect();
  const PhaseNode* node = r.phases.child("still_open");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->calls, 1u);
  EXPECT_GE(node->seconds, 400e-6);  // elapsed-so-far, not zero
}

TEST_F(ObsTest, SelfNestingMergesIntoOneNode) {
  {
    ScopedPhase a("recurse");
    {
      ScopedPhase b("recurse");  // flattened into the open instance
      {
        ScopedPhase c("recurse");
        spin_at_least_us(100);
      }
    }
  }
  const Report r = mfd::obs::collect();
  const PhaseNode* node = r.phases.child("recurse");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->calls, 3u);
  EXPECT_TRUE(node->children.empty());  // no recurse-under-recurse chain
  // Time counted once (outermost scope only), so well under 3x the spin.
  EXPECT_LT(node->seconds, 0.05);
}

TEST_F(ObsTest, FindLocatesDeepNodes) {
  {
    ScopedPhase a("a");
    ScopedPhase b("b");
    ScopedPhase c("c");
  }
  const Report r = mfd::obs::collect();
  ASSERT_NE(r.phases.find("c"), nullptr);
  EXPECT_EQ(r.phases.find("nope"), nullptr);
  EXPECT_EQ(r.phases.find("c")->name, "c");
}

// --- JSON -------------------------------------------------------------------

TEST_F(ObsTest, JsonEscaping) {
  EXPECT_EQ(mfd::obs::JsonWriter::escape("plain"), "plain");
  EXPECT_EQ(mfd::obs::JsonWriter::escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(mfd::obs::JsonWriter::escape("\n\t\x01"), "\\n\\t\\u0001");
}

TEST_F(ObsTest, ReportJsonRoundTrips) {
  mfd::obs::add("rt.count", 12345678901234ull);
  mfd::obs::gauge_set("rt.gauge", 0.125);
  mfd::obs::gauge_set("rt.we\"ird\nname", 2.0);
  {
    ScopedPhase outer("phase_a");
    ScopedPhase inner("phase_b");
    spin_at_least_us(100);
  }
  const Report r = mfd::obs::collect();
  const std::string json = r.to_json();

  JsonParser parser(json);
  const JsonValue doc = parser.parse();
  ASSERT_TRUE(parser.ok()) << json;
  ASSERT_EQ(doc.kind, JsonValue::Kind::Object);

  EXPECT_DOUBLE_EQ(doc.at("counters").at("rt.count").number, 12345678901234.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("rt.gauge").number, 0.125);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("rt.we\"ird\nname").number, 2.0);

  const JsonValue& phases = doc.at("phases");
  EXPECT_EQ(phases.at("name").string, "total");
  bool found_b = false;
  for (const JsonValue& child : phases.at("children").array) {
    if (child.at("name").string != "phase_a") continue;
    EXPECT_DOUBLE_EQ(child.at("calls").number, 1.0);
    for (const JsonValue& grand : child.at("children").array)
      if (grand.at("name").string == "phase_b") {
        found_b = true;
        EXPECT_GE(grand.at("seconds").number, 0.0);
      }
  }
  EXPECT_TRUE(found_b) << json;
}

TEST_F(ObsTest, JsonWriterComposesNestedScopes) {
  mfd::obs::JsonWriter w;
  w.begin_object();
  w.key("a").begin_array();
  w.value(1).value(2.5).value(true).value("x");
  w.raw("{\"nested\":[]}");
  w.end_array();
  w.key("b").value(false);
  w.end_object();
  JsonParser parser(w.str());
  const JsonValue doc = parser.parse();
  ASSERT_TRUE(parser.ok()) << w.str();
  EXPECT_EQ(doc.at("a").array.size(), 5u);
  EXPECT_TRUE(doc.at("a").array[4].has("nested"));
  EXPECT_EQ(doc.at("b").kind, JsonValue::Kind::Bool);
}

// --- end to end through the synthesizer -------------------------------------

TEST_F(ObsTest, SynthesisResultCarriesAPopulatedReport) {
  mfd::bdd::Manager m;
  const auto bench = mfd::circuits::build("add4", m);
  mfd::Synthesizer synth(mfd::preset_mulop_dc(5));
  const mfd::SynthesisResult result = synth.run(bench);
  ASSERT_TRUE(result.verified);

  const Report& r = result.report;
  const PhaseNode* root = r.phases.child("synthesize");
  ASSERT_NE(root, nullptr);
  EXPECT_GT(root->seconds, 0.0);
  // The full per-level phase set appears under the decomposition driver.
  ASSERT_NE(r.phases.find("decompose"), nullptr);
  for (const char* phase : {"symmetrize", "share", "per_output", "encode"})
    EXPECT_NE(r.phases.find(phase), nullptr) << phase;
  ASSERT_NE(r.phases.find("verify"), nullptr);
  ASSERT_NE(r.phases.find("pack"), nullptr);

  EXPECT_GT(r.counters.at("decomp.steps"), 0u);
  EXPECT_GT(r.counters.at("decomp.levels"), 0u);

  const double hit_rate = r.gauges.at("bdd.cache_hit_rate");
  EXPECT_GE(hit_rate, 0.0);
  EXPECT_LE(hit_rate, 1.0);
  EXPECT_GT(r.gauges.at("bdd.unique_table_size"), 0.0);
  EXPECT_GT(r.gauges.at("bdd.cache_size"), 0.0);
  EXPECT_GT(r.gauges.at("net.luts"), 0.0);

  // And the whole report survives a serialization round-trip.
  const std::string json = r.to_json();
  JsonParser parser(json);
  const JsonValue doc = parser.parse();
  ASSERT_TRUE(parser.ok());
  EXPECT_EQ(doc.at("phases").at("children").array.size(), 1u);  // synthesize
}

TEST_F(ObsTest, BackToBackRunsGetIndependentReports) {
  mfd::bdd::Manager m;
  const auto bench = mfd::circuits::build("add4", m);
  mfd::Synthesizer synth(mfd::preset_mulop_dc(5));
  const auto first = synth.run(bench);
  const auto second = synth.run(bench);
  // Epoch semantics: the second report covers only the second run.
  EXPECT_EQ(first.report.counters.at("decomp.steps"),
            second.report.counters.at("decomp.steps"));
  const PhaseNode* p1 = first.report.phases.child("synthesize");
  const PhaseNode* p2 = second.report.phases.child("synthesize");
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p1->calls, 1u);
  EXPECT_EQ(p2->calls, 1u);
}

}  // namespace
