//===- obs/Trace.cpp - Chrome-trace-format span recording -----------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/obs/Trace.h"

#include <algorithm>

namespace parmonc {
namespace obs {

void TraceWriter::completeSpan(std::string_view Name, int Tid,
                               int64_t StartNanos, int64_t EndNanos) {
  assert(EndNanos >= StartNanos && "span must not end before it starts");
  std::lock_guard<std::mutex> Lock(Mutex);
  Event Recorded;
  Recorded.Name = std::string(Name);
  Recorded.Tid = Tid;
  Recorded.TsNanos = StartNanos;
  Recorded.DurNanos = EndNanos - StartNanos;
  Recorded.Seq = NextSeq++;
  Recorded.Phase = 'X';
  Events.push_back(std::move(Recorded));
}

void TraceWriter::instantAt(std::string_view Name, int Tid,
                            int64_t TsNanos) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Event Recorded;
  Recorded.Name = std::string(Name);
  Recorded.Tid = Tid;
  Recorded.TsNanos = TsNanos;
  Recorded.Seq = NextSeq++;
  Recorded.Phase = 'i';
  Events.push_back(std::move(Recorded));
}

size_t TraceWriter::eventCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Events.size();
}

/// Chrome expects microseconds; appends nanos as "<us>.<3 digits>" (the
/// printf "%lld.%03lld" spelling of the quotient and remainder, sign and
/// all) so the output is byte-stable and loses nothing.
static void appendMicros(std::string &Json, int64_t Nanos) {
  Json += std::to_string(Nanos / 1000);
  Json += '.';
  const int64_t Remainder = Nanos % 1000;
  const std::string Digits =
      std::to_string(Remainder < 0 ? -Remainder : Remainder);
  if (Remainder < 0)
    Json += '-';
  const size_t Width = Remainder < 0 ? 2 : 3;
  if (Digits.size() < Width)
    Json.append(Width - Digits.size(), '0');
  Json += Digits;
}

/// Escapes a span name for embedding in a JSON string literal.
static std::string jsonEscape(std::string_view Text) {
  std::string Escaped;
  Escaped.reserve(Text.size());
  for (char Character : Text) {
    switch (Character) {
    case '"':
      Escaped += "\\\"";
      break;
    case '\\':
      Escaped += "\\\\";
      break;
    case '\n':
      Escaped += "\\n";
      break;
    case '\t':
      Escaped += "\\t";
      break;
    case '\r':
      Escaped += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(Character) < 0x20) {
        static const char Digits[] = "0123456789abcdef";
        Escaped += "\\u00";
        Escaped += Digits[(Character >> 4) & 0xF];
        Escaped += Digits[Character & 0xF];
      } else {
        Escaped += Character;
      }
    }
  }
  return Escaped;
}

std::string TraceWriter::toJson() const {
  std::vector<Event> Sorted;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Sorted = Events;
  }
  // Deterministic order: time, then lane, then per-writer record order.
  // Within one lane the sequence numbers are monotone in program order, so
  // the sorted document is reproducible run-to-run whenever each lane's
  // event sequence and timestamps are.
  std::sort(Sorted.begin(), Sorted.end(),
            [](const Event &A, const Event &B) {
              if (A.TsNanos != B.TsNanos)
                return A.TsNanos < B.TsNanos;
              if (A.Tid != B.Tid)
                return A.Tid < B.Tid;
              return A.Seq < B.Seq;
            });

  std::string Json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t Index = 0; Index < Sorted.size(); ++Index) {
    const Event &Recorded = Sorted[Index];
    Json += "{\"name\":\"" + jsonEscape(Recorded.Name) +
            "\",\"cat\":\"parmonc\",\"ph\":\"";
    Json += Recorded.Phase;
    Json += "\",\"ts\":";
    appendMicros(Json, Recorded.TsNanos);
    if (Recorded.Phase == 'X') {
      Json += ",\"dur\":";
      appendMicros(Json, Recorded.DurNanos);
    } else {
      Json += ",\"s\":\"t\"";
    }
    Json += ",\"pid\":0,\"tid\":" + std::to_string(Recorded.Tid) + "}";
    if (Index + 1 < Sorted.size())
      Json += ",";
    Json += "\n";
  }
  Json += "]}\n";
  return Json;
}

} // namespace obs
} // namespace parmonc
