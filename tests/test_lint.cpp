// Fixture suite for pmc-lint (tools/pmc-lint): every determinism rule
// (D1, D2, D3) must both fire on its violation fixture and stay silent on
// the conforming one, the allow() suppression path must work (and demand a
// justification), and the path-based rule scoping must carve out the
// sanctioned homes (rng/timer for entropy, serialize for raw bytes, graph
// and sequential code for hash containers).
//
// The v2 whole-program analysis gets the same treatment: the D10
// stale-suppression audit, D2/D3 propagation through one level of helper
// indirection, and the SARIF / JSON report plumbing. The retired D4, D6,
// D7, D8 and D9 are compile-fail tests now (tests/compile_fail/); D5 is
// retired with the hash iteration it scanned for.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lint.hpp"
#include "test_util.hpp"

namespace {

using pmc_lint::Diagnostic;

std::string fixture(const std::string& name) {
  return std::string(PMC_LINT_FIXTURE_DIR) + "/" + name;
}

std::vector<Diagnostic> lint_fixture(const std::string& name) {
  return pmc_lint::analyze_file(fixture(name), pmc_lint::all_rules());
}

/// Whole-program run over on-disk fixtures, every rule live (the fixtures
/// do not live under src/, so path scoping would blank them out).
pmc_lint::ProgramReport program_fixture(
    const std::vector<std::string>& names) {
  std::vector<std::string> paths;
  paths.reserve(names.size());
  for (const auto& n : names) paths.push_back(fixture(n));
  pmc_lint::ProgramOptions opts;
  opts.all_rules = true;
  return pmc_lint::analyze_program_paths(paths, opts);
}

std::vector<Diagnostic> with_rule(const std::vector<Diagnostic>& diags,
                                  const std::string& rule) {
  std::vector<Diagnostic> out;
  for (const auto& d : diags) {
    if (d.rule == rule) out.push_back(d);
  }
  return out;
}

std::string read_fixture(const std::string& name) {
  std::ifstream in(fixture(name), std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// ---- D1: hash-container includes on the message path -------------------------

TEST(LintD1, FiresOnEachHashContainerInclude) {
  const auto d1 = with_rule(lint_fixture("d1_violation.cpp"), "D1");
  // The two #include lines; the comment, the string literal and the quoted
  // include that name the headers do not count.
  ASSERT_EQ(d1.size(), 2u);
  EXPECT_EQ(d1[0].line, 6);
  EXPECT_NE(d1[0].message.find("<unordered_map>"), std::string::npos);
  EXPECT_EQ(d1[1].line, 8);
  EXPECT_NE(d1[1].message.find("<unordered_set>"), std::string::npos);
  for (const auto& d : d1) {
    EXPECT_FALSE(d.suppressed);
    EXPECT_NE(d.message.find("neighbour index"), std::string::npos);
  }
}

TEST(LintD1, SilentOnGraphCodeThatHashes) {
  const std::string text = read_fixture("d1_clean.cpp");
  const auto in_graph = pmc_lint::analyze_source(
      "src/graph/d1_clean.cpp", text,
      pmc_lint::scope_for_path("src/graph/d1_clean.cpp"));
  EXPECT_TRUE(in_graph.empty());
  // The same file on the message path is a finding.
  const auto in_service = pmc_lint::analyze_source(
      "src/service/d1_clean.cpp", text,
      pmc_lint::scope_for_path("src/service/d1_clean.cpp"));
  ASSERT_EQ(with_rule(in_service, "D1").size(), 1u);
  EXPECT_EQ(with_rule(in_service, "D1")[0].line, 5);
}

TEST(LintD1, SuppressionNeedsAJustification) {
  const auto d1 = with_rule(lint_fixture("d1_suppressed.cpp"), "D1");
  ASSERT_EQ(d1.size(), 2u);
  // First hit: justified allow() on the line above — suppressed.
  EXPECT_TRUE(d1[0].suppressed);
  EXPECT_EQ(d1[0].justification,
            "scratch set probed for membership, never iterated");
  // Second hit: allow() without a justification — still counts.
  EXPECT_FALSE(d1[1].suppressed);
  EXPECT_NE(d1[1].message.find("no justification"), std::string::npos);
}

// ---- D2: hidden entropy ---------------------------------------------------

TEST(LintD2, FiresOnEveryEntropySource) {
  const auto d2 = with_rule(lint_fixture("d2_violation.cpp"), "D2");
  // srand, rand, time, random_device, system_clock.
  EXPECT_EQ(d2.size(), 5u);
  for (const auto& d : d2) EXPECT_FALSE(d.suppressed);
}

TEST(LintD2, SilentOnMemberTimeAndSteadyClock) {
  EXPECT_TRUE(with_rule(lint_fixture("d2_clean.cpp"), "D2").empty());
}

// ---- D3: raw serialization ------------------------------------------------

TEST(LintD3, FiresOnMemcpyAndReinterpretCast) {
  const auto d3 = with_rule(lint_fixture("d3_violation.cpp"), "D3");
  ASSERT_EQ(d3.size(), 2u);
  EXPECT_NE(d3[0].message.find("memcpy"), std::string::npos);
  EXPECT_NE(d3[1].message.find("reinterpret_cast"), std::string::npos);
}

TEST(LintD3, SilentOnFrameCodecUsage) {
  EXPECT_TRUE(with_rule(lint_fixture("d3_clean.cpp"), "D3").empty());
}

// ---- rule scoping ----------------------------------------------------------

TEST(LintScope, SanctionedHomesAreExempt) {
  // Entropy may live in the RNG and the wall timer; raw bytes in the codec.
  EXPECT_FALSE(pmc_lint::scope_for_path("src/support/rng.hpp").d2);
  EXPECT_FALSE(pmc_lint::scope_for_path("src/support/rng.cpp").d2);
  EXPECT_FALSE(pmc_lint::scope_for_path("src/support/timer.hpp").d2);
  EXPECT_TRUE(pmc_lint::scope_for_path("src/support/options.cpp").d2);
  EXPECT_FALSE(pmc_lint::scope_for_path("src/runtime/serialize.hpp").d3);
  EXPECT_FALSE(pmc_lint::scope_for_path("src/runtime/serialize.cpp").d3);
  EXPECT_TRUE(pmc_lint::scope_for_path("src/runtime/fabric.hpp").d3);
}

TEST(LintScope, D1BindsToTheMessagePath) {
  EXPECT_TRUE(pmc_lint::scope_for_path("src/matching/parallel.cpp").d1);
  EXPECT_TRUE(pmc_lint::scope_for_path("src/coloring/parallel.cpp").d1);
  EXPECT_TRUE(pmc_lint::scope_for_path("src/runtime/fabric.hpp").d1);
  EXPECT_TRUE(pmc_lint::scope_for_path("src/service/service.cpp").d1);
  // Graph, partition and support code send nothing; they may hash.
  EXPECT_FALSE(pmc_lint::scope_for_path("src/graph/algorithms.cpp").d1);
  EXPECT_FALSE(pmc_lint::scope_for_path("src/partition/multilevel.cpp").d1);
  EXPECT_FALSE(pmc_lint::scope_for_path("src/support/options.cpp").d1);
  EXPECT_FALSE(pmc_lint::scope_for_path("tools/pmc-lint/lint.cpp").d1);
  // Absolute build paths normalize to the repo-relative form.
  EXPECT_TRUE(
      pmc_lint::scope_for_path("/root/repo/src/matching/parallel.cpp").d1);
}

// ---- D10: stale-suppression audit -------------------------------------------

TEST(LintD10, FiresOnStaleAllow) {
  const auto report = program_fixture({"d10_violation.cpp"});
  const auto d10 = with_rule(report.diagnostics, "D10");
  ASSERT_EQ(d10.size(), 1u);
  EXPECT_EQ(d10[0].line, 5);
  EXPECT_NE(d10[0].message.find("stale suppression: allow(D1)"),
            std::string::npos);
}

TEST(LintD10, SilentWhenAllowsAreConsumed) {
  const auto report = program_fixture({"d10_clean.cpp"});
  EXPECT_TRUE(with_rule(report.diagnostics, "D10").empty());
  const auto d1 = with_rule(report.diagnostics, "D1");
  ASSERT_EQ(d1.size(), 1u);
  EXPECT_TRUE(d1[0].suppressed);
  EXPECT_EQ(pmc_lint::failing_count(report), 0u);
}

TEST(LintD10, ParkedLedgerEntrySuppressibleWithAllowD10) {
  const auto report = program_fixture({"d10_suppressed.cpp"});
  const auto d10 = with_rule(report.diagnostics, "D10");
  ASSERT_EQ(d10.size(), 2u);
  for (const auto& d : d10) {
    EXPECT_TRUE(d.suppressed);
    EXPECT_EQ(d.justification,
              "ledger entry parked while the frontier migration lands");
  }
  EXPECT_EQ(pmc_lint::failing_count(report), 0u);
}

// ---- D2/D3 propagation through helper indirection ---------------------------

TEST(LintPropagation, ScopeHiddenHelperTaintsLiveCallSitesOnly) {
  // The helper's own file (the codec) is outside D3's scope, so its byte
  // copy hides there; the call from matching code inherits the finding,
  // the call from another codec file does not.
  const std::vector<pmc_lint::SourceFile> srcs = {
      {"src/runtime/serialize.cpp",
       "#include <cstring>\n"
       "namespace pmc {\n"
       "void copy_words(long* dst, const long* src, int n) {\n"
       "  memcpy(dst, src, sizeof(long) * n);\n"
       "}\n"
       "}  // namespace pmc\n"},
      {"src/matching/pack.cpp",
       "namespace pmc {\n"
       "void pack(long* out, const long* in) {\n"
       "  copy_words(out, in, 4);\n"
       "}\n"
       "}  // namespace pmc\n"},
      {"src/runtime/serialize.hpp",
       "namespace pmc {\n"
       "inline void pack_codec(long* out, const long* in) {\n"
       "  copy_words(out, in, 2);\n"
       "}\n"
       "}  // namespace pmc\n"}};
  const auto report = pmc_lint::analyze_program(srcs, {});
  const auto d3 = with_rule(report.diagnostics, "D3");
  ASSERT_EQ(d3.size(), 1u);
  EXPECT_EQ(d3[0].file, "src/matching/pack.cpp");
  EXPECT_EQ(d3[0].line, 3);
  EXPECT_NE(d3[0].message.find("copy_words"), std::string::npos);
  EXPECT_NE(d3[0].message.find("scope hides"), std::string::npos);
}

// ---- SARIF ------------------------------------------------------------------

TEST(LintSarif, WellFormedRunWithRulesSuppressionsAndLevels) {
  const auto report = program_fixture({"d1_suppressed.cpp"});
  const std::string sarif = pmc_lint::to_sarif(report);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"pmc-lint\""), std::string::npos);
  for (const char* id : {"D1", "D2", "D3", "D10"}) {
    EXPECT_NE(sarif.find(std::string("{\"id\": \"") + id + "\""),
              std::string::npos)
        << "rule " << id << " missing from the driver";
  }
  // Retired rules (enforced by types, or with nothing left to scan) are no
  // longer declared.
  for (const char* id : {"D4", "D5", "D6", "D7", "D8", "D9"}) {
    EXPECT_EQ(sarif.find(std::string("{\"id\": \"") + id + "\""),
              std::string::npos)
        << "retired rule " << id << " still declared";
  }
  // One justified suppression (note) and one unsuppressed finding (error).
  EXPECT_NE(sarif.find("\"kind\": \"inSource\""), std::string::npos);
  EXPECT_NE(sarif.find("scratch set probed for membership"),
            std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"note\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
}

// ---- drivers ---------------------------------------------------------------

TEST(LintDriver, CompileCommandsFilesParsesAndDeduplicates) {
  const std::string path = pmc::test::unique_temp_path("pmc_lint_cc.json");
  {
    std::ofstream out(path, std::ios::binary);
    out << R"([
      {"directory": "/b", "command": "c++ -c a.cpp", "file": "/r/src/a.cpp"},
      {"directory": "/b", "command": "c++ -c b.cpp", "file": "/r/src/b.cpp"},
      {"directory": "/b", "command": "c++ -c a.cpp", "file": "/r/src/a.cpp"}
    ])";
  }
  const auto files = pmc_lint::compile_commands_files(path);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "/r/src/a.cpp");
  EXPECT_EQ(files[1], "/r/src/b.cpp");
  std::remove(path.c_str());
  EXPECT_THROW(pmc_lint::compile_commands_files("/nonexistent/cc.json"),
               std::runtime_error);
}

TEST(LintDriver, RelativeEntriesResolveAgainstDirectoryAndJsonParent) {
  namespace fs = std::filesystem;
  const fs::path base = pmc::test::unique_temp_path("pmc_lint_cc_rel");
  fs::create_directories(base / "bld");
  const std::string path = (base / "bld" / "compile_commands.json").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "[\n"
        << "  {\"directory\": \".\", \"command\": \"c++ -c ../src/a.cpp\", "
           "\"file\": \"../src/a.cpp\"},\n"
        << "  {\"directory\": \"" << base.string()
        << "\", \"file\": \"src/b.cpp\"},\n"
        << "  {\"directory\": \"ignored\", \"file\": \"/abs/src/c.cpp\"}\n"
        << "]\n";
  }
  const auto files = pmc_lint::compile_commands_files(path);
  ASSERT_EQ(files.size(), 3u);
  // Relative file against relative directory against the JSON's parent.
  EXPECT_EQ(files[0], (base / "src" / "a.cpp").lexically_normal().string());
  // Relative file against an absolute directory.
  EXPECT_EQ(files[1], (base / "src" / "b.cpp").lexically_normal().string());
  // Absolute file wins regardless of directory.
  EXPECT_EQ(files[2], "/abs/src/c.cpp");
  fs::remove_all(base);
}

TEST(LintDriver, MultiConfigSourcesDeduplicateAcrossDatabases) {
  const std::string j1 = pmc::test::unique_temp_path("pmc_lint_cc1.json");
  const std::string j2 = pmc::test::unique_temp_path("pmc_lint_cc2.json");
  {
    std::ofstream out(j1, std::ios::binary);
    out << R"([
      {"directory": "/b1", "file": "/r/src/a.cpp"},
      {"directory": "/b1", "file": "/r/src/./b.cpp"}
    ])";
  }
  {
    std::ofstream out(j2, std::ios::binary);
    out << R"([
      {"directory": "/b2", "file": "/r/src/b.cpp"},
      {"directory": "/b2", "file": "/r/src/c.cpp"}
    ])";
  }
  const auto files = pmc_lint::compile_commands_sources({j1, j2});
  // b.cpp appears in both databases (one spelling denormalized) but is
  // linted once; order is first appearance.
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0], "/r/src/a.cpp");
  EXPECT_EQ(files[1], "/r/src/b.cpp");
  EXPECT_EQ(files[2], "/r/src/c.cpp");
  std::remove(j1.c_str());
  std::remove(j2.c_str());
}

TEST(LintDriver, JsonReportCountsSuppressedAndUnsuppressed) {
  auto diags = lint_fixture("d1_suppressed.cpp");
  const std::string json = pmc_lint::to_json(diags, 1);
  EXPECT_NE(json.find("\"tool\": \"pmc-lint\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"unsuppressed\": 1"), std::string::npos);
  EXPECT_NE(json.find("scratch set probed for membership"),
            std::string::npos);
}

}  // namespace
