// lolint corpus tests: every rule fires on its fixture, every allow
// annotation suppresses exactly the rule it names, and the real tree stays
// clean. Fixtures live in tools/lolint/testdata/ and are consumed as text
// under pseudo paths — the path decides which rules apply, so one fixture can
// be checked both as protocol code and as exempt code.
//
// NOTE: this file must never contain the literal allow-marker token — the
// annotation parser scans raw lines, strings and comments included.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lolint/lolint.hpp"

namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(LOLINT_TESTDATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing corpus fixture: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Lints one fixture in isolation under the given pseudo repo path.
std::vector<lolint::Finding> lint_as(const std::string& fixture,
                                     const std::string& pseudo_path) {
  lolint::FileInput f{pseudo_path, read_fixture(fixture)};
  return lolint::lint_files({f});
}

std::size_t count_rule(const std::vector<lolint::Finding>& fs,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(fs.begin(), fs.end(),
                    [&](const lolint::Finding& f) { return f.rule == rule; }));
}

std::string dump(const std::vector<lolint::Finding>& fs) {
  std::ostringstream ss;
  for (const auto& f : fs) {
    ss << f.file << ":" << f.line << " [" << f.rule << "] " << f.message
       << "\n";
  }
  return ss.str();
}

// ------------------------------------------------------------ banned-source ----

TEST(Lolint, BannedSourcesFire) {
  const auto fs = lint_as("banned_source.cpp", "src/core/banned_source.cpp");
  EXPECT_EQ(count_rule(fs, "banned-source"), 6u) << dump(fs);
  EXPECT_EQ(fs.size(), count_rule(fs, "banned-source")) << dump(fs);
}

TEST(Lolint, BannedSourcesExemptInSimAndRng) {
  // The same content is legal where nondeterminism is quarantined by design.
  EXPECT_TRUE(lint_as("banned_source.cpp", "src/sim/banned_source.cpp").empty());
  EXPECT_TRUE(lint_as("banned_source.cpp", "src/util/rng.cpp").empty());
}

TEST(Lolint, BannedSourceAllowSuppresses) {
  const auto fs =
      lint_as("banned_source_allowed.cpp", "src/core/banned_source.cpp");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// ------------------------------------------------------------ unordered-iter ----

TEST(Lolint, UnorderedIterFiresInProtocolDirs) {
  const auto fs = lint_as("unordered_iter.cpp", "src/core/unordered_iter.cpp");
  EXPECT_EQ(count_rule(fs, "unordered-iter"), 3u) << dump(fs);
}

TEST(Lolint, UnorderedIterAndWallClockFireInObs) {
  // The observability layer exports byte-identical artifacts across same-seed
  // runs, so it is held to the protocol rules: no hash-order iteration and no
  // wall-clock sources (trace timestamps come from the simulator only).
  const auto iter = lint_as("unordered_iter.cpp", "src/obs/unordered_iter.cpp");
  EXPECT_EQ(count_rule(iter, "unordered-iter"), 3u) << dump(iter);
  const auto clk = lint_as("banned_source.cpp", "src/obs/banned_source.cpp");
  EXPECT_EQ(count_rule(clk, "banned-source"), 6u) << dump(clk);
}

TEST(Lolint, UnorderedIterFiresOnShardMaps) {
  // The sharded pipeline keys per-(peer, shard) state by the packed ps_key;
  // walking those maps in bucket order would make emission depend on the hash
  // seed. Both hash-order loops fire; the sorted_keys() walk stays silent.
  const auto fs =
      lint_as("unordered_iter_shard_map.cpp", "src/core/shard_map.cpp");
  EXPECT_EQ(count_rule(fs, "unordered-iter"), 2u) << dump(fs);
  EXPECT_EQ(fs.size(), count_rule(fs, "unordered-iter")) << dump(fs);
}

TEST(Lolint, UnorderedIterSilentOutsideProtocolDirs) {
  // Harness/workload code may iterate hash order freely.
  const auto fs =
      lint_as("unordered_iter.cpp", "src/workload/unordered_iter.cpp");
  EXPECT_EQ(count_rule(fs, "unordered-iter"), 0u) << dump(fs);
}

TEST(Lolint, UnorderedIterAllowAndSortedKeysSuppress) {
  const auto fs =
      lint_as("unordered_iter_allowed.cpp", "src/core/unordered_iter.cpp");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(Lolint, AllowForWrongRuleDoesNotSuppress) {
  // The annotation is well-formed but names banned-source; the
  // unordered-iter finding must survive and no bad-allow may appear.
  const auto fs = lint_as("wrong_allow.cpp", "src/core/wrong_allow.cpp");
  EXPECT_EQ(count_rule(fs, "unordered-iter"), 1u) << dump(fs);
  EXPECT_EQ(count_rule(fs, "bad-allow"), 0u) << dump(fs);
  EXPECT_EQ(fs.size(), 1u) << dump(fs);
}

TEST(Lolint, MalformedAllowFires) {
  const auto fs = lint_as("bad_allow.cpp", "src/core/bad_allow.cpp");
  EXPECT_EQ(count_rule(fs, "bad-allow"), 2u) << dump(fs);
}

// -------------------------------------------------------- float-in-protocol ----

TEST(Lolint, FloatInProtocolFires) {
  const auto fs =
      lint_as("float_in_protocol.cpp", "src/core/float_in_protocol.cpp");
  EXPECT_EQ(count_rule(fs, "float-in-protocol"), 2u) << dump(fs);
}

TEST(Lolint, FloatSilentOutsideProtocolDirs) {
  const auto fs =
      lint_as("float_in_protocol.cpp", "src/harness/float_in_protocol.cpp");
  EXPECT_EQ(count_rule(fs, "float-in-protocol"), 0u) << dump(fs);
}

// --------------------------------------------------------- relative-include ----

TEST(Lolint, RelativeIncludeFires) {
  const auto fs =
      lint_as("relative_include.cpp", "src/core/relative_include.cpp");
  EXPECT_EQ(count_rule(fs, "relative-include"), 2u) << dump(fs);
  for (const auto& f : fs) {
    if (f.rule == "relative-include") {
      EXPECT_TRUE(f.line == 3 || f.line == 4) << dump(fs);
    }
  }
}

// ----------------------------------------------------------- serde-symmetry ----

TEST(Lolint, SerdeAsymmetryFires) {
  const auto fs =
      lint_as("serde_asymmetry.cpp", "src/core/serde_asymmetry.cpp");
  ASSERT_EQ(count_rule(fs, "serde-symmetry"), 1u) << dump(fs);
  const auto it =
      std::find_if(fs.begin(), fs.end(), [](const lolint::Finding& f) {
        return f.rule == "serde-symmetry";
      });
  EXPECT_NE(it->message.find("OneWay"), std::string::npos) << it->message;
}

// ------------------------------------------------------------ mutable-static ----

TEST(Lolint, MutableStaticFires) {
  const auto fs = lint_as("mutable_static.cpp", "src/core/mutable_static.cpp");
  // Five statics and two thread_locals; `static thread_local` counts once.
  EXPECT_EQ(count_rule(fs, "mutable-static"), 7u) << dump(fs);
  // Constants must not leak into other rules either.
  EXPECT_EQ(fs.size(), count_rule(fs, "mutable-static")) << dump(fs);
}

TEST(Lolint, MutableStaticSilentInTests) {
  // Test fixtures and harness state may use globals freely.
  const auto fs = lint_as("mutable_static.cpp", "tests/mutable_static.cpp");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(Lolint, MutableStaticAllowSuppresses) {
  const auto fs =
      lint_as("mutable_static_allowed.cpp", "src/core/mutable_static.cpp");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// ------------------------------------------------------------ hot-path-alloc ----

TEST(Lolint, HotPathAllocFires) {
  const auto fs = lint_as("hot_path_alloc.cpp", "src/core/hot_path_alloc.cpp");
  // Four sites in the instrumented function; none in the cold helper.
  EXPECT_EQ(count_rule(fs, "hot-path-alloc"), 4u) << dump(fs);
  EXPECT_EQ(fs.size(), count_rule(fs, "hot-path-alloc")) << dump(fs);
}

TEST(Lolint, HotPathAllocSilentInTests) {
  const auto fs = lint_as("hot_path_alloc.cpp", "tests/hot_path_alloc.cpp");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(Lolint, HotPathAllocAllowSuppresses) {
  const auto fs =
      lint_as("hot_path_alloc_allowed.cpp", "src/core/hot_path_alloc.cpp");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// ------------------------------------------------------ serde-field-coverage ----

TEST(Lolint, SerdeFieldCoverageFires) {
  const auto fs = lint_as("serde_field_coverage.cpp",
                          "src/core/serde_field_coverage.cpp");
  ASSERT_EQ(count_rule(fs, "serde-field-coverage"), 1u) << dump(fs);
  EXPECT_EQ(fs.size(), 1u) << dump(fs);
  // The message names the missing field and the lopsided class; the
  // symmetric Balanced struct contributes nothing.
  const auto& f = fs.front();
  EXPECT_NE(f.message.find("spare"), std::string::npos) << f.message;
  EXPECT_NE(f.message.find("Lopsided"), std::string::npos) << f.message;
}

TEST(Lolint, SerdeFieldCoverageAllowSuppresses) {
  const auto fs = lint_as("serde_field_coverage_allowed.cpp",
                          "src/core/serde_field_coverage.cpp");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// ------------------------------------------------------------- v2 annotations ----

TEST(Lolint, V2AllowForWrongRuleDoesNotSuppress) {
  // A valid allow naming a sibling v2 rule leaves the thread_local's
  // mutable-static finding standing and produces no bad-allow.
  const auto fs = lint_as("wrong_allow_v2.cpp", "src/core/wrong_allow_v2.cpp");
  EXPECT_EQ(count_rule(fs, "mutable-static"), 1u) << dump(fs);
  EXPECT_EQ(count_rule(fs, "bad-allow"), 0u) << dump(fs);
  EXPECT_EQ(fs.size(), 1u) << dump(fs);
}

TEST(Lolint, V2MalformedAllowFires) {
  // Missing reason, empty reason and a misspelled v2 rule id each fire.
  const auto fs = lint_as("bad_allow_v2.cpp", "src/core/bad_allow_v2.cpp");
  EXPECT_EQ(count_rule(fs, "bad-allow"), 3u) << dump(fs);
}

// ------------------------------------------------------------------ helpers ----

TEST(Lolint, CleanFixtureIsClean) {
  const auto fs = lint_as("clean.cpp", "src/core/clean.cpp");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(Lolint, ProtocolPathPredicate) {
  EXPECT_TRUE(lolint::is_protocol_path("src/core/node.cpp"));
  EXPECT_TRUE(lolint::is_protocol_path("src/minisketch/sketch.hpp"));
  // Trace/metrics exports must stay byte-identical across same-seed runs, so
  // the observability layer obeys the full protocol ruleset.
  EXPECT_TRUE(lolint::is_protocol_path("src/obs/trace.cpp"));
  // The failure detector feeds the accountability gate, so its state machine
  // must replay deterministically under the same ruleset.
  EXPECT_TRUE(lolint::is_protocol_path("src/membership/swim.cpp"));
  EXPECT_FALSE(lolint::is_protocol_path("src/harness/lo_network.cpp"));
  EXPECT_FALSE(lolint::is_protocol_path("tests/test_util.cpp"));
  EXPECT_TRUE(lolint::is_rng_exempt_path("src/util/rng.hpp"));
  EXPECT_TRUE(lolint::is_rng_exempt_path("src/sim/simulator.cpp"));
  EXPECT_FALSE(lolint::is_rng_exempt_path("src/core/node.cpp"));
}

TEST(Lolint, StripCommentsPreservesLines) {
  const std::string src = "int a; // trailing\n/* block\n spans */ int b;\n";
  const std::string out = lolint::strip_comments(src);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  EXPECT_EQ(out.find("trailing"), std::string::npos);
  EXPECT_EQ(out.find("spans"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
}

// ------------------------------------------------------------- whole tree ----

TEST(Lolint, RealTreeIsClean) {
  // The acceptance gate, as a test: the shipped tree must lint clean. This is
  // the same scan the `lint` build target and the CI job run.
  std::vector<lolint::FileInput> files;
  std::string error;
  ASSERT_TRUE(lolint::load_tree(LOLINT_SOURCE_ROOT, {"src", "tests", "bench"},
                                &files, &error))
      << error;
  ASSERT_GT(files.size(), 100u);  // sanity: the tree actually loaded
  const auto fs = lolint::lint_files(files);
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

}  // namespace
