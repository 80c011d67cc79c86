//===- parmonc/mpsim/Serialize.h - Message payload (de)serialization ------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal byte-stream archive for message payloads and checkpoint
/// blobs. Fixed little-endian layout, length-prefixed containers, explicit
/// bounds checks on the read side so a truncated or corrupted message can
/// never read out of bounds.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_MPSIM_SERIALIZE_H
#define PARMONC_MPSIM_SERIALIZE_H

#include "parmonc/support/Status.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace parmonc {

/// Appends typed values to a byte buffer.
class ByteWriter {
public:
  /// Reserves room for \p Bytes more bytes, so a caller that knows the
  /// encoded size grows the buffer once.
  void reserve(size_t Bytes) { Buffer.reserve(Buffer.size() + Bytes); }

  void writeU64(uint64_t Value) {
    // Explicit little-endian layout, independent of host byte order.
    for (int Byte = 0; Byte < 8; ++Byte)
      Buffer.push_back(uint8_t(Value >> (8 * Byte)));
  }

  void writeI64(int64_t Value) { writeU64(uint64_t(Value)); }

  void writeU32(uint32_t Value) {
    for (int Byte = 0; Byte < 4; ++Byte)
      Buffer.push_back(uint8_t(Value >> (8 * Byte)));
  }

  void writeDouble(double Value) {
    uint64_t Bits;
    std::memcpy(&Bits, &Value, sizeof(Bits));
    writeU64(Bits);
  }

  /// Length-prefixed; the elements go as one memcpy on little-endian
  /// hosts, element by element elsewhere — the same bytes either way.
  void writeDoubleVector(const std::vector<double> &Values) {
    writeVector(Values);
  }

  void writeI64Vector(const std::vector<int64_t> &Values) {
    writeVector(Values);
  }

  void writeString(const std::string &Text) {
    writeU64(Text.size());
    Buffer.insert(Buffer.end(), Text.begin(), Text.end());
  }

  const std::vector<uint8_t> &bytes() const { return Buffer; }
  std::vector<uint8_t> takeBytes() { return std::move(Buffer); }

private:
  template <typename T> void writeVector(const std::vector<T> &Values) {
    static_assert(sizeof(T) == 8);
    writeU64(Values.size());
    if constexpr (std::endian::native == std::endian::little) {
      const size_t Offset = Buffer.size();
      Buffer.resize(Offset + Values.size() * sizeof(T));
      if (!Values.empty())
        std::memcpy(Buffer.data() + Offset, Values.data(),
                    Values.size() * sizeof(T));
    } else {
      for (T Value : Values) {
        uint64_t Bits;
        std::memcpy(&Bits, &Value, sizeof(Bits));
        writeU64(Bits);
      }
    }
  }

  std::vector<uint8_t> Buffer;
};

/// Reads typed values back out of a byte buffer; every read is
/// bounds-checked and fails with a Status instead of overrunning.
class ByteReader {
public:
  explicit ByteReader(const std::vector<uint8_t> &Buffer)
      : Buffer(Buffer) {}

  [[nodiscard]] Result<uint64_t> readU64() {
    if (Cursor + 8 > Buffer.size())
      return parseError("message truncated reading u64");
    const uint64_t Value = loadU64(Cursor);
    Cursor += 8;
    return Value;
  }

  [[nodiscard]] Result<int64_t> readI64() {
    Result<uint64_t> Raw = readU64();
    if (!Raw)
      return Raw.status();
    return int64_t(Raw.value());
  }

  [[nodiscard]] Result<uint32_t> readU32() {
    if (Cursor + 4 > Buffer.size())
      return parseError("message truncated reading u32");
    uint32_t Value = 0;
    for (int Byte = 0; Byte < 4; ++Byte)
      Value |= uint32_t(Buffer[Cursor + size_t(Byte)]) << (8 * Byte);
    Cursor += 4;
    return Value;
  }

  [[nodiscard]] Result<double> readDouble() {
    Result<uint64_t> Raw = readU64();
    if (!Raw)
      return Raw.status();
    double Value;
    uint64_t Bits = Raw.value();
    std::memcpy(&Value, &Bits, sizeof(Value));
    return Value;
  }

  [[nodiscard]] Result<std::vector<double>> readDoubleVector() {
    return readVector<double>();
  }

  [[nodiscard]] Result<std::vector<int64_t>> readI64Vector() {
    return readVector<int64_t>();
  }

  [[nodiscard]] Result<std::string> readString() {
    Result<uint64_t> Count = readU64();
    if (!Count)
      return Count.status();
    if (Count.value() > Buffer.size() - Cursor)
      return parseError("message truncated reading string");
    std::string Text(Buffer.begin() + std::ptrdiff_t(Cursor),
                     Buffer.begin() + std::ptrdiff_t(Cursor + Count.value()));
    Cursor += Count.value();
    return Text;
  }

  /// True when every byte has been consumed (useful for format tests).
  bool atEnd() const { return Cursor == Buffer.size(); }

private:
  /// The length prefix is checked against the bytes left before anything
  /// is allocated, so a hostile count fails fast.
  template <typename T> Result<std::vector<T>> readVector() {
    static_assert(sizeof(T) == 8);
    Result<uint64_t> Count = readU64();
    if (!Count)
      return Count.status();
    if (Count.value() > (Buffer.size() - Cursor) / sizeof(T))
      return parseError("message truncated reading vector");
    std::vector<T> Values(Count.value());
    if constexpr (std::endian::native == std::endian::little) {
      if (!Values.empty())
        std::memcpy(Values.data(), Buffer.data() + Cursor,
                    Values.size() * sizeof(T));
      Cursor += Values.size() * sizeof(T);
    } else {
      for (T &Value : Values) {
        const uint64_t Bits = loadU64(Cursor);
        std::memcpy(&Value, &Bits, sizeof(Value));
        Cursor += 8;
      }
    }
    return Values;
  }

  /// The little-endian u64 at \p Offset; the caller checked the bounds.
  uint64_t loadU64(size_t Offset) const {
    uint64_t Value = 0;
    for (int Byte = 0; Byte < 8; ++Byte)
      Value |= uint64_t(Buffer[Offset + size_t(Byte)]) << (8 * Byte);
    return Value;
  }

  const std::vector<uint8_t> &Buffer;
  size_t Cursor = 0;
};

} // namespace parmonc

#endif // PARMONC_MPSIM_SERIALIZE_H
