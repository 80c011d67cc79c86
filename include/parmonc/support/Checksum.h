//===- parmonc/support/Checksum.h - CRC32 file seals ----------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-safe persistence support: every durable PARMONC file (checkpoint,
/// base, rank subtotals, result files) carries a one-line versioned seal
///
///   #%parmonc-seal v1 crc32 <hex8> bytes <n>
///
/// ahead of its body. The seal makes two failure classes detectable that
/// plain text files silently absorb: short reads (a crash or full disk
/// truncated the file — `bytes` disagrees with what is actually there) and
/// bit rot / hostile edits (the CRC32 disagrees). Loaders verify the seal
/// before parsing and fall back to the previous file generation instead of
/// resuming from garbage. The line starts with '#', so seal-unaware
/// comment-skipping parsers of the legacy formats keep working.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_SUPPORT_CHECKSUM_H
#define PARMONC_SUPPORT_CHECKSUM_H

#include "parmonc/support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace parmonc {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of \p Bytes. On x86 hosts
/// whose CPU has PCLMULQDQ (probed once per process), inputs of 64 bytes
/// or more are folded with carry-less multiplies; everything else, and
/// every `PARMONC_SIMD=SCALAR` build, runs crc32Portable. Both give
/// identical values.
uint32_t crc32(std::string_view Bytes);

/// Slicing-by-8 CRC-32: the portable path of crc32 and the differential
/// oracle its carry-less-multiply fold is tested against, the way
/// `mul128Portable` oracles the `__int128` multiply.
uint32_t crc32Portable(std::string_view Bytes);

/// Eight lowercase hex digits: the one spelling of a CRC-32 in every file
/// the library writes (seal lines, manifests, the experiment registry).
std::string formatCrc32Hex(uint32_t Crc);

/// Prepends the seal line for \p Body and returns the sealed file contents.
std::string sealFileContents(std::string_view Body);

/// True if \p Contents begins with a PARMONC seal line.
bool hasFileSeal(std::string_view Contents);

/// Verifies the seal of \p Contents (read from \p Path, used only for
/// error messages) and returns the body. Fails with a descriptive Status
/// on a malformed seal, a short read (declared vs. actual byte count) or a
/// CRC mismatch.
[[nodiscard]] Result<std::string> unsealFileContents(const std::string &Path,
                                                     std::string_view Contents);

} // namespace parmonc

#endif // PARMONC_SUPPORT_CHECKSUM_H
