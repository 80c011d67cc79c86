//===- tests/support/TextTest.cpp - Support helper tests ------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/support/Text.h"

#include "parmonc/support/Clock.h"
#include "parmonc/support/Status.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cfloat>
#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <unistd.h>

namespace parmonc {
namespace {

TEST(Status, DefaultIsOk) {
  Status Ok;
  EXPECT_TRUE(Ok.isOk());
  EXPECT_TRUE(bool(Ok));
  EXPECT_EQ(Ok.toString(), "ok");
}

TEST(Status, FailureCarriesCodeAndMessage) {
  Status Failure = ioError("disk on fire");
  EXPECT_FALSE(Failure.isOk());
  EXPECT_EQ(Failure.code(), StatusCode::IoError);
  EXPECT_EQ(Failure.message(), "disk on fire");
  EXPECT_EQ(Failure.toString(), "io-error: disk on fire");
}

TEST(Status, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(invalidArgument("x").code(), StatusCode::InvalidArgument);
  EXPECT_EQ(notFound("x").code(), StatusCode::NotFound);
  EXPECT_EQ(parseError("x").code(), StatusCode::ParseError);
  EXPECT_EQ(failedPrecondition("x").code(), StatusCode::FailedPrecondition);
  EXPECT_EQ(outOfRange("x").code(), StatusCode::OutOfRange);
  EXPECT_EQ(internalError("x").code(), StatusCode::Internal);
}

TEST(Result, HoldsValueOnSuccess) {
  Result<int> Five(5);
  ASSERT_TRUE(Five.isOk());
  EXPECT_EQ(Five.value(), 5);
  EXPECT_EQ(Five.valueOr(9), 5);
}

TEST(Result, HoldsStatusOnFailure) {
  Result<int> Failed(notFound("missing"));
  EXPECT_FALSE(Failed.isOk());
  EXPECT_EQ(Failed.status().code(), StatusCode::NotFound);
  EXPECT_EQ(Failed.valueOr(9), 9);
}

TEST(FormatScientific, RoundTripsDoubles) {
  for (double Value : {0.0, 1.0, -1.0, 3.14159e-20, 7.7, 1e300, -2.5e-300}) {
    Result<double> Parsed = parseDouble(formatScientific(Value));
    ASSERT_TRUE(Parsed.isOk());
    EXPECT_DOUBLE_EQ(Parsed.value(), Value);
  }
}

TEST(FormatScientific, HonorsPrecision) {
  EXPECT_EQ(formatScientific(1.0 / 3.0, 3), "3.333e-01");
}

TEST(FormatFixed, Basic) {
  EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(formatFixed(-1.005, 0), "-1");
}

TEST(Text, FormatFixedKeepsEveryDigitOfHugeValues) {
  // A fixed-size rendering buffer used to cut these to their first 63
  // characters: a wrong number with no error.
  auto printfFixed = [](double Value, int Decimals) {
    char Buffer[512];
    std::snprintf(Buffer, sizeof(Buffer), "%.*f", Decimals, Value);
    return std::string(Buffer);
  };
  EXPECT_EQ(formatFixed(1e300, 2), printfFixed(1e300, 2));
  EXPECT_EQ(formatFixed(1e300, 2).size(), 304u);
  EXPECT_EQ(formatFixed(-DBL_MAX, 17), printfFixed(-DBL_MAX, 17));
  EXPECT_EQ(formatFixed(-DBL_MAX, 17).size(), 328u);
}

TEST(ParseDouble, AcceptsUsualForms) {
  EXPECT_DOUBLE_EQ(parseDouble("1.5").value(), 1.5);
  EXPECT_DOUBLE_EQ(parseDouble("  -2e3 ").value(), -2000.0);
  EXPECT_DOUBLE_EQ(parseDouble("0").value(), 0.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_FALSE(parseDouble("").isOk());
  EXPECT_FALSE(parseDouble("abc").isOk());
  EXPECT_FALSE(parseDouble("1.5x").isOk());
  EXPECT_FALSE(parseDouble("1e999").isOk());
}

TEST(ParseInt64, AcceptsSignedIntegers) {
  EXPECT_EQ(parseInt64("42").value(), 42);
  EXPECT_EQ(parseInt64("-7").value(), -7);
  EXPECT_EQ(parseInt64(" 0 ").value(), 0);
}

TEST(ParseInt64, RejectsBadInput) {
  EXPECT_FALSE(parseInt64("").isOk());
  EXPECT_FALSE(parseInt64("12.5").isOk());
  EXPECT_FALSE(parseInt64("99999999999999999999").isOk());
}

TEST(ParseUInt64, RejectsNegative) {
  EXPECT_FALSE(parseUInt64("-1").isOk());
  EXPECT_EQ(parseUInt64("18446744073709551615").value(), ~0ull);
  EXPECT_FALSE(parseUInt64("18446744073709551616").isOk());
}

TEST(Trim, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\n x \r"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("nospace"), "nospace");
}

TEST(SplitWhitespace, SplitsOnRuns) {
  auto Fields = splitWhitespace("  a  bb\tccc \n d ");
  ASSERT_EQ(Fields.size(), 4u);
  EXPECT_EQ(Fields[0], "a");
  EXPECT_EQ(Fields[1], "bb");
  EXPECT_EQ(Fields[2], "ccc");
  EXPECT_EQ(Fields[3], "d");
}

TEST(SplitWhitespace, EmptyInputGivesNoFields) {
  EXPECT_TRUE(splitWhitespace("").empty());
  EXPECT_TRUE(splitWhitespace("   ").empty());
}

TEST(SplitChar, KeepsEmptyFields) {
  auto Fields = splitChar("a,,b,", ',');
  ASSERT_EQ(Fields.size(), 4u);
  EXPECT_EQ(Fields[0], "a");
  EXPECT_EQ(Fields[1], "");
  EXPECT_EQ(Fields[2], "b");
  EXPECT_EQ(Fields[3], "");
}

TEST(StartsWith, Basic) {
  EXPECT_TRUE(startsWith("abcdef", "abc"));
  EXPECT_TRUE(startsWith("abc", ""));
  EXPECT_FALSE(startsWith("ab", "abc"));
  EXPECT_FALSE(startsWith("xbc", "abc"));
}

TEST(FileHelpers, WriteReadRoundTrip) {
  std::string Path =
      (std::filesystem::temp_directory_path() / "parmonc_text_test.txt")
          .string();
  ASSERT_TRUE(writeFileAtomic(Path, "line1\nline2\n").isOk());
  EXPECT_TRUE(fileExists(Path));
  Result<std::string> Contents = readFileToString(Path);
  ASSERT_TRUE(Contents.isOk());
  EXPECT_EQ(Contents.value(), "line1\nline2\n");
  std::filesystem::remove(Path);
}

TEST(FileHelpers, AtomicWriteLeavesNoTempFile) {
  std::string Path =
      (std::filesystem::temp_directory_path() / "parmonc_atomic_test.txt")
          .string();
  ASSERT_TRUE(writeFileAtomic(Path, "data").isOk());
  EXPECT_FALSE(fileExists(Path + ".tmp"));
  std::filesystem::remove(Path);
}

TEST(FileHelpers, AtomicWriteReplacesExistingContents) {
  std::string Path =
      (std::filesystem::temp_directory_path() / "parmonc_replace_test.txt")
          .string();
  ASSERT_TRUE(writeFileAtomic(Path, "old").isOk());
  ASSERT_TRUE(writeFileAtomic(Path, "new").isOk());
  EXPECT_EQ(readFileToString(Path).value(), "new");
  std::filesystem::remove(Path);
}

TEST(FileHelpers, ReadMissingFileFails) {
  Result<std::string> Missing = readFileToString("/nonexistent/file.txt");
  EXPECT_FALSE(Missing.isOk());
  EXPECT_EQ(Missing.status().code(), StatusCode::IoError);
}

TEST(FileHelpers, CreateDirectoriesIsIdempotent) {
  std::string Path = (std::filesystem::temp_directory_path() /
                      "parmonc_dirs_test/a/b/c")
                         .string();
  EXPECT_TRUE(createDirectories(Path).isOk());
  EXPECT_TRUE(createDirectories(Path).isOk());
  std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                              "parmonc_dirs_test");
}

TEST(Text, DirectoryFsyncUnsupportedByTheFilesystemIsOk) {
  // procfs has no fsync for its directories: the call fails with EINVAL,
  // which means "nothing to make durable", not an IO error.
  const int Descriptor = ::open("/proc/self", O_RDONLY);
  ASSERT_GE(Descriptor, 0);
  errno = 0;
  EXPECT_NE(::fsync(Descriptor), 0);
  EXPECT_EQ(errno, EINVAL);
  ::close(Descriptor);
  EXPECT_TRUE(fsyncDirectory("/proc/self").isOk());
}

TEST(Text, DirectoryFsyncOfAMissingDirectoryFails) {
  Status Synced = fsyncDirectory(
      (std::filesystem::temp_directory_path() / "parmonc_no_such_dir_x")
          .string());
  EXPECT_EQ(Synced.code(), StatusCode::IoError);
}

TEST(ManualClock, AdvancesExplicitly) {
  ManualClock Clock;
  EXPECT_EQ(Clock.nowNanos(), 0);
  Clock.advanceNanos(1500);
  EXPECT_EQ(Clock.nowNanos(), 1500);
  Clock.advanceSeconds(2.0);
  EXPECT_EQ(Clock.nowNanos(), 2000001500);
  EXPECT_NEAR(Clock.nowSeconds(), 2.0000015, 1e-12);
  Clock.setNanos(5);
  EXPECT_EQ(Clock.nowNanos(), 5);
}

TEST(WallClock, IsMonotoneNonDecreasing) {
  WallClock Clock;
  int64_t First = Clock.nowNanos();
  int64_t Second = Clock.nowNanos();
  EXPECT_GE(Second, First);
}

} // namespace
} // namespace parmonc
