//===- parmonc/support/Text.h - Small text/formatting helpers -------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Formatting and parsing helpers shared by the result-file writer, the CLI
/// tools and the benches. All number formatting funnels through here so the
/// on-disk formats stay byte-stable across the codebase. Numbers are
/// rendered by std::to_chars with an explicit precision, which produces
/// exactly the bytes printf's "%.*e" / "%.*f" did (a differential test
/// against snprintf pins this), so every result, snapshot and checkpoint
/// file is byte-identical to the ones earlier versions wrote.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_SUPPORT_TEXT_H
#define PARMONC_SUPPORT_TEXT_H

#include "parmonc/support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace parmonc {

/// Formats \p Value in scientific notation with \p Precision significant
/// digits after the point (e.g. "1.234567890123456e+02"). This is the
/// canonical representation used in all result files; it round-trips
/// doubles exactly at Precision >= 17.
std::string formatScientific(double Value, int Precision = 17);

/// Appends formatScientific(Value, Precision) to \p Out without building a
/// temporary string; the loops that render thousands of numbers into one
/// file body use this.
void appendScientific(std::string &Out, double Value, int Precision = 17);

/// Formats \p Value with a fixed number of decimals (0-17), for
/// human-facing logs. Every integer digit is kept, up to DBL_MAX's 309.
std::string formatFixed(double Value, int Decimals);

/// Parses a double. Fails on trailing garbage or empty input.
[[nodiscard]] Result<double> parseDouble(std::string_view Text);

/// Parses a signed 64-bit integer in base 10. Fails on trailing garbage,
/// empty input or overflow.
[[nodiscard]] Result<int64_t> parseInt64(std::string_view Text);

/// Parses an unsigned 64-bit integer in base 10.
[[nodiscard]] Result<uint64_t> parseUInt64(std::string_view Text);

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view Text);

/// Splits \p Text on runs of ASCII whitespace; no empty fields are produced.
std::vector<std::string_view> splitWhitespace(std::string_view Text);

/// Splits \p Text on each occurrence of \p Separator; empty fields are kept.
std::vector<std::string_view> splitChar(std::string_view Text, char Separator);

/// True if \p Text begins with \p Prefix.
bool startsWith(std::string_view Text, std::string_view Prefix);

/// Reads a whole file into a string.
[[nodiscard]] Result<std::string> readFileToString(const std::string &Path);

/// Writes \p Contents to \p Path (created or truncated) and fsyncs the
/// file before returning. No rename and no directory fsync: the caller
/// publishes the file and makes that durable (see writeFileAtomic).
[[nodiscard]] Status writeFileSynced(const std::string &Path,
                                     std::string_view Contents);

/// Writes \p Contents to \p Path atomically and durably (write to a
/// sibling temp file, fsync, rename, fsync the directory; a failed
/// directory fsync is returned even though the rename landed). Used for
/// save-points so a crash mid-write never corrupts previous results — a
/// requirement for the paper's resumption feature.
[[nodiscard]] Status writeFileAtomic(const std::string &Path, std::string_view Contents);

/// Fsyncs the regular file at \p Path (platform-guarded; a no-op where
/// the platform offers no fsync). Used to make an already-renamed file's
/// contents durable before a dependent commit record is written.
[[nodiscard]] Status fsyncFile(const std::string &Path);

/// Fsyncs the directory at \p Path so completed renames and creates
/// inside it survive power loss. Filesystems that cannot fsync a directory
/// (EINVAL, EROFS) are ok; a missing directory or any other fsync failure
/// (EIO, ENOSPC, ...) is an IoError.
[[nodiscard]] Status fsyncDirectory(const std::string &Path);

/// Appends \p Line to \p Path durably: O_APPEND write of the whole line
/// in one call, then fsync (and, for a newly created file, fsync its
/// directory). Unlike writeFileAtomic this never rewrites
/// existing content, so concurrent appenders and crash-interrupted
/// appends can at worst leave one torn *trailing* line — which per-line
/// checksums (see ResultsStore::appendExperimentLog) make detectable.
[[nodiscard]] Status appendLineDurable(const std::string &Path,
                                       std::string_view Line);

/// Creates \p Path and any missing parents. Ok if it already exists.
[[nodiscard]] Status createDirectories(const std::string &Path);

/// True if a regular file exists at \p Path.
bool fileExists(const std::string &Path);

} // namespace parmonc

#endif // PARMONC_SUPPORT_TEXT_H
