//===- support/Text.cpp - Small text/formatting helpers ------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/support/Text.h"

#include "parmonc/support/Contract.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <unistd.h>

namespace parmonc {

// The widest "%.17e" rendering: sign, digit, point, 17 digits, "e-308".
static constexpr size_t MaxScientificChars = 1 + 1 + 1 + 17 + 5;
// The widest "%.17f" rendering: sign, DBL_MAX's 309 integer digits, point,
// 17 decimals.
static constexpr size_t MaxFixedChars =
    1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 + 17;

template <size_t Width>
static void appendChars(std::string &Out, double Value,
                        std::chars_format Format, int Precision) {
  char Buffer[Width];
  const std::to_chars_result Rendered =
      std::to_chars(Buffer, Buffer + Width, Value, Format, Precision);
  // The buffer holds the widest rendering at every supported precision,
  // so this fires only on a precision outside the contract; a truncated
  // prefix would be a wrong number, never an acceptable result.
  PARMONC_ASSERT(Rendered.ec == std::errc(),
                 "number rendering does not fit its buffer");
  Out.append(Buffer, Rendered.ptr);
}

void appendScientific(std::string &Out, double Value, int Precision) {
  PARMONC_DCHECK(Precision >= 1 && Precision <= 17, "unsupported precision");
  appendChars<MaxScientificChars>(Out, Value, std::chars_format::scientific,
                                  Precision);
}

std::string formatScientific(double Value, int Precision) {
  std::string Text;
  appendScientific(Text, Value, Precision);
  return Text;
}

std::string formatFixed(double Value, int Decimals) {
  PARMONC_DCHECK(Decimals >= 0 && Decimals <= 17, "unsupported decimal count");
  std::string Text;
  appendChars<MaxFixedChars>(Text, Value, std::chars_format::fixed, Decimals);
  return Text;
}

Result<double> parseDouble(std::string_view Text) {
  std::string Copy(trim(Text));
  if (Copy.empty())
    return parseError("empty number");
  errno = 0;
  char *End = nullptr;
  double Value = std::strtod(Copy.c_str(), &End);
  if (End != Copy.c_str() + Copy.size())
    return parseError("trailing characters in number '" + Copy + "'");
  if (errno == ERANGE && (Value == HUGE_VAL || Value == -HUGE_VAL))
    return parseError("number out of double range '" + Copy + "'");
  return Value;
}

Result<int64_t> parseInt64(std::string_view Text) {
  std::string Copy(trim(Text));
  if (Copy.empty())
    return parseError("empty integer");
  errno = 0;
  char *End = nullptr;
  long long Value = std::strtoll(Copy.c_str(), &End, 10);
  if (End != Copy.c_str() + Copy.size())
    return parseError("trailing characters in integer '" + Copy + "'");
  if (errno == ERANGE)
    return parseError("integer out of int64 range '" + Copy + "'");
  return int64_t(Value);
}

Result<uint64_t> parseUInt64(std::string_view Text) {
  std::string Copy(trim(Text));
  if (Copy.empty())
    return parseError("empty integer");
  if (Copy[0] == '-')
    return parseError("negative value for unsigned integer '" + Copy + "'");
  errno = 0;
  char *End = nullptr;
  unsigned long long Value = std::strtoull(Copy.c_str(), &End, 10);
  if (End != Copy.c_str() + Copy.size())
    return parseError("trailing characters in integer '" + Copy + "'");
  if (errno == ERANGE)
    return parseError("integer out of uint64 range '" + Copy + "'");
  return uint64_t(Value);
}

std::string_view trim(std::string_view Text) {
  size_t Begin = 0;
  while (Begin < Text.size() &&
         std::isspace(static_cast<unsigned char>(Text[Begin])))
    ++Begin;
  size_t End = Text.size();
  while (End > Begin && std::isspace(static_cast<unsigned char>(Text[End - 1])))
    --End;
  return Text.substr(Begin, End - Begin);
}

std::vector<std::string_view> splitWhitespace(std::string_view Text) {
  std::vector<std::string_view> Fields;
  size_t Index = 0;
  while (Index < Text.size()) {
    while (Index < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Index])))
      ++Index;
    size_t Begin = Index;
    while (Index < Text.size() &&
           !std::isspace(static_cast<unsigned char>(Text[Index])))
      ++Index;
    if (Index > Begin)
      Fields.push_back(Text.substr(Begin, Index - Begin));
  }
  return Fields;
}

std::vector<std::string_view> splitChar(std::string_view Text, char Separator) {
  std::vector<std::string_view> Fields;
  size_t Begin = 0;
  for (size_t Index = 0; Index <= Text.size(); ++Index) {
    if (Index == Text.size() || Text[Index] == Separator) {
      Fields.push_back(Text.substr(Begin, Index - Begin));
      Begin = Index + 1;
    }
  }
  return Fields;
}

bool startsWith(std::string_view Text, std::string_view Prefix) {
  return Text.size() >= Prefix.size() &&
         Text.substr(0, Prefix.size()) == Prefix;
}

Result<std::string> readFileToString(const std::string &Path) {
  std::ifstream Stream(Path, std::ios::binary);
  if (!Stream)
    return ioError("cannot open '" + Path + "' for reading");
  std::ostringstream Contents;
  Contents << Stream.rdbuf();
  if (Stream.bad())
    return ioError("read failure on '" + Path + "'");
  return Contents.str();
}

Status writeFileSynced(const std::string &Path, std::string_view Contents) {
  const int FileDescriptor =
      ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (FileDescriptor < 0)
    return ioError("cannot open '" + Path +
                   "' for writing: " + std::strerror(errno));
  size_t Written = 0;
  while (Written < Contents.size()) {
    const ssize_t Count = ::write(FileDescriptor, Contents.data() + Written,
                                  Contents.size() - Written);
    if (Count < 0) {
      if (errno == EINTR)
        continue;
      const std::string Reason = std::strerror(errno);
      ::close(FileDescriptor);
      return ioError("write failure on '" + Path + "': " + Reason);
    }
    Written += size_t(Count);
  }
  if (::fsync(FileDescriptor) != 0) {
    const std::string Reason = std::strerror(errno);
    ::close(FileDescriptor);
    return ioError("fsync failure on '" + Path + "': " + Reason);
  }
  if (::close(FileDescriptor) != 0)
    return ioError("close failure on '" + Path +
                   "': " + std::strerror(errno));
  return Status::ok();
}

Status writeFileAtomic(const std::string &Path, std::string_view Contents) {
  // Crash-safe sequence: write a sibling temp file, fsync it, rename over
  // the destination, then fsync the directory so the rename itself is
  // durable. A crash at any point leaves either the old file or the new
  // one — never a torn mixture (checkpoint resumption depends on this).
  const std::string TempPath = Path + ".tmp";
  if (Status Synced = writeFileSynced(TempPath, Contents); !Synced)
    return Synced;
  std::error_code Error;
  std::filesystem::rename(TempPath, Path, Error);
  if (Error)
    return ioError("cannot rename '" + TempPath + "' to '" + Path +
                   "': " + Error.message());
  // The rename is already atomic with respect to readers; a failed
  // directory fsync means it may not survive power loss, which the
  // caller must hear about.
  const std::string Parent =
      std::filesystem::path(Path).parent_path().string();
  return fsyncDirectory(Parent.empty() ? "." : Parent);
}

Status fsyncFile(const std::string &Path) {
#if defined(_WIN32)
  // No POSIX fsync; rely on the OS write-back. The checkpoint commit
  // protocol stays correct (rename ordering), only power-loss durability
  // weakens — documented in DESIGN.md.
  (void)Path;
  return Status::ok();
#else
  const int FileDescriptor = ::open(Path.c_str(), O_RDONLY);
  if (FileDescriptor < 0)
    return ioError("cannot open '" + Path +
                   "' for fsync: " + std::strerror(errno));
  Status Synced = Status::ok();
  if (::fsync(FileDescriptor) != 0)
    Synced = ioError("fsync failure on '" + Path +
                     "': " + std::strerror(errno));
  (void)::close(FileDescriptor);
  return Synced;
#endif
}

Status fsyncDirectory(const std::string &Path) {
#if defined(_WIN32)
  (void)Path;
  return Status::ok();
#else
  const int DirDescriptor = ::open(Path.c_str(), O_RDONLY);
  if (DirDescriptor < 0)
    return ioError("cannot open directory '" + Path +
                   "' for fsync: " + std::strerror(errno));
  // EINVAL and EROFS mean this filesystem cannot fsync a directory
  // descriptor at all, so there is nothing to wait for: best effort. Any
  // other failure (EIO, ENOSPC, ...) means a completed rename or create
  // may not be durable, and is returned.
  Status Synced = Status::ok();
  if (::fsync(DirDescriptor) != 0 && errno != EINVAL && errno != EROFS)
    Synced = ioError("fsync failure on directory '" + Path +
                     "': " + std::strerror(errno));
  (void)::close(DirDescriptor);
  return Synced;
#endif
}

Status appendLineDurable(const std::string &Path, std::string_view Line) {
  const bool Existed = fileExists(Path);
  const int FileDescriptor =
      ::open(Path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (FileDescriptor < 0)
    return ioError("cannot open '" + Path +
                   "' for append: " + std::strerror(errno));
  size_t Written = 0;
  while (Written < Line.size()) {
    const ssize_t Count = ::write(FileDescriptor, Line.data() + Written,
                                  Line.size() - Written);
    if (Count < 0) {
      if (errno == EINTR)
        continue;
      const std::string Reason = std::strerror(errno);
      (void)::close(FileDescriptor);
      return ioError("append failure on '" + Path + "': " + Reason);
    }
    Written += size_t(Count);
  }
#if !defined(_WIN32)
  if (::fsync(FileDescriptor) != 0) {
    const std::string Reason = std::strerror(errno);
    (void)::close(FileDescriptor);
    return ioError("fsync failure on '" + Path + "': " + Reason);
  }
#endif
  if (::close(FileDescriptor) != 0)
    return ioError("close failure on '" + Path +
                   "': " + std::strerror(errno));
  if (!Existed) {
    // The file was just created: its directory entry is durable only once
    // the directory is synced.
    const std::string Parent =
        std::filesystem::path(Path).parent_path().string();
    return fsyncDirectory(Parent.empty() ? "." : Parent);
  }
  return Status::ok();
}

Status createDirectories(const std::string &Path) {
  std::error_code Error;
  std::filesystem::create_directories(Path, Error);
  if (Error)
    return ioError("cannot create directory '" + Path +
                   "': " + Error.message());
  return Status::ok();
}

bool fileExists(const std::string &Path) {
  std::error_code Error;
  return std::filesystem::is_regular_file(Path, Error);
}

} // namespace parmonc
