//===- tests/lint/FixTest.cpp - mclint autofix tests ----------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// End-to-end tests of the analyzer's `--fix` path against small synthetic
// trees in a temp directory: R4 guard/include rewrites, R10 waiver
// removal, and one rewrite per file however many ways the file is named.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/Analyzer.h"
#include "parmonc/support/Text.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

namespace parmonc {
namespace lint {
namespace {

namespace fs = std::filesystem;

/// A fresh scratch tree under the gtest temp dir; removed first so reruns
/// are deterministic.
std::string scratchTree(const std::string &Name) {
  const fs::path Root = fs::path(::testing::TempDir()) / ("mclint_" + Name);
  fs::remove_all(Root);
  fs::create_directories(Root);
  return Root.generic_string();
}

void writeAt(const std::string &Root, const std::string &Rel,
             const std::string &Contents) {
  const fs::path Full = fs::path(Root) / Rel;
  fs::create_directories(Full.parent_path());
  Status Written = writeFileAtomic(Full.generic_string(), Contents);
  ASSERT_TRUE(Written) << Written.message();
}

LintReport runPaths(std::vector<std::string> Paths,
                    std::vector<std::string> RuleIds = {},
                    bool ComputeFixes = false) {
  AnalyzerOptions Options;
  Options.Paths = std::move(Paths);
  Options.RuleIds = std::move(RuleIds);
  Options.ComputeFixes = ComputeFixes;
  Result<LintReport> Report = runAnalyzer(Options);
  EXPECT_TRUE(Report) << Report.status().message();
  return Report ? Report.value() : LintReport{};
}

TEST(LintFixTest, RewritesGuardAndIncludeStyle) {
  const std::string Root = scratchTree("fix_r4");
  const std::string Rel = "include/parmonc/foo/Bar.h";
  writeAt(Root, Rel,
          "#ifndef WRONG_H\n"
          "#define WRONG_H\n"
          "\n"
          "#include <parmonc/support/Status.h>\n"
          "\n"
          "struct FixtureBar {\n"
          "  int Value;\n"
          "};\n"
          "\n"
          "#endif // WRONG_H\n");

  LintReport Report = runPaths({Root}, {"R4"}, /*ComputeFixes=*/true);
  ASSERT_EQ(Report.Diagnostics.size(), 2u);
  Result<size_t> Fixed = applyFixes(Report.Diagnostics);
  ASSERT_TRUE(Fixed) << Fixed.status().message();
  EXPECT_EQ(Fixed.value(), 1u);

  Result<std::string> After =
      readFileToString((fs::path(Root) / Rel).generic_string());
  ASSERT_TRUE(After) << After.status().message();
  EXPECT_NE(After.value().find("#ifndef PARMONC_FOO_BAR_H\n"),
            std::string::npos);
  EXPECT_NE(After.value().find("#define PARMONC_FOO_BAR_H\n"),
            std::string::npos);
  EXPECT_NE(After.value().find("#endif // PARMONC_FOO_BAR_H"),
            std::string::npos);
  EXPECT_NE(After.value().find("#include \"parmonc/support/Status.h\"\n"),
            std::string::npos);

  LintReport Clean = runPaths({Root}, {"R4"});
  EXPECT_TRUE(Clean.Diagnostics.empty());
}

TEST(LintFixTest, RemovesStaleWaivers) {
  const std::string Root = scratchTree("fix_r10");
  writeAt(Root, "a.cpp",
          "namespace parmonc {\n"
          "\n"
          "long fixtureValue() {\n"
          "  // mclint: allow(R2): stale standalone\n"
          "  return 7;\n"
          "}\n"
          "\n"
          "long fixtureOther() { return 8; } // mclint: allow(R2): stale\n"
          "\n"
          "} // namespace parmonc\n");

  LintReport Report = runPaths({Root}, {}, /*ComputeFixes=*/true);
  ASSERT_EQ(Report.Diagnostics.size(), 2u);
  EXPECT_EQ(Report.Diagnostics[0].RuleId, "R10");
  Result<size_t> Fixed = applyFixes(Report.Diagnostics);
  ASSERT_TRUE(Fixed) << Fixed.status().message();
  EXPECT_EQ(Fixed.value(), 1u);

  Result<std::string> After =
      readFileToString((fs::path(Root) / "a.cpp").generic_string());
  ASSERT_TRUE(After) << After.status().message();
  EXPECT_EQ(After.value().find("mclint:"), std::string::npos);
  EXPECT_NE(After.value().find("long fixtureOther() { return 8; }\n"),
            std::string::npos);
  EXPECT_NE(After.value().find("  return 7;\n"), std::string::npos);

  LintReport Clean = runPaths({Root});
  EXPECT_TRUE(Clean.Diagnostics.empty());
}

TEST(LintFixTest, FileNamedSeveralWaysIsFixedOnce) {
  // A stale standalone waiver's fix deletes its own line. Applied once per
  // spelling of the file, the second deletion would take the code line
  // that moved up into its place.
  const std::string Source = "namespace parmonc {\n"
                             "\n"
                             "int fixtureDouble(int Count) {\n"
                             "  // mclint: allow(R2): stale standalone\n"
                             "  int Total = Count * 2;\n"
                             "  return Total;\n"
                             "}\n"
                             "\n"
                             "} // namespace parmonc\n";
  const std::string Single = scratchTree("fix_named_once");
  const std::string Aliased = scratchTree("fix_named_thrice");
  writeAt(Single, "x.cpp", Source);
  writeAt(Aliased, "x.cpp", Source);
  fs::create_directories(fs::path(Aliased) / "dir");

  const auto FixAndRead = [](std::vector<std::string> Paths,
                             const std::string &File) {
    LintReport Report = runPaths(std::move(Paths), {}, /*ComputeFixes=*/true);
    EXPECT_EQ(Report.FileCount, 1u);
    EXPECT_EQ(Report.Diagnostics.size(), 1u);
    Result<size_t> Fixed = applyFixes(Report.Diagnostics);
    EXPECT_TRUE(Fixed) << Fixed.status().message();
    EXPECT_EQ(Fixed ? Fixed.value() : 0u, 1u);
    Result<std::string> After = readFileToString(File);
    EXPECT_TRUE(After) << After.status().message();
    return After ? After.value() : std::string();
  };

  const std::string Once = FixAndRead({Single + "/x.cpp"}, Single + "/x.cpp");
  const std::string Thrice = FixAndRead(
      {Aliased + "/x.cpp", Aliased + "/./x.cpp", Aliased + "/dir/../x.cpp"},
      Aliased + "/x.cpp");
  EXPECT_NE(Once.find("  int Total = Count * 2;\n"), std::string::npos);
  EXPECT_EQ(Once.find("mclint:"), std::string::npos);
  EXPECT_EQ(Thrice, Once);
}

} // namespace
} // namespace lint
} // namespace parmonc
