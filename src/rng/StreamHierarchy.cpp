//===- rng/StreamHierarchy.cpp - Leap-ahead stream partition -------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/rng/StreamHierarchy.h"

#include "parmonc/support/Contract.h"
#include "parmonc/support/Text.h"

#include <algorithm>
#include <utility>

namespace parmonc {

Status LeapConfig::validate() const {
  if (ExperimentLog2 >= Lcg128::UsableLog2)
    return invalidArgument(
        "experiment leap 2^" + std::to_string(ExperimentLog2) +
        " must be smaller than the usable period half 2^" +
        std::to_string(Lcg128::UsableLog2));
  if (ProcessorLog2 >= ExperimentLog2)
    return invalidArgument("processor leap 2^" +
                           std::to_string(ProcessorLog2) +
                           " must be smaller than experiment leap 2^" +
                           std::to_string(ExperimentLog2));
  if (RealizationLog2 >= ProcessorLog2)
    return invalidArgument("realization leap 2^" +
                           std::to_string(RealizationLog2) +
                           " must be smaller than processor leap 2^" +
                           std::to_string(ProcessorLog2));
  if (RealizationLog2 == 0)
    return invalidArgument("realization leap must be at least 2^1");
  return Status::ok();
}

LeapTable::LeapTable(UInt128 Multiplier, const LeapConfig &Config)
    : Config(Config), BaseMultiplier(Multiplier),
      BaseWindow(std::make_shared<const PowerWindow>(Multiplier, 128)) {
  PARMONC_ASSERT(Config.validate().isOk(), "invalid leap configuration");
  PARMONC_ASSERT(Multiplier.low() % 8 == 5,
                 "base multiplier must be congruent to 5 mod 8");
  // A power-of-two exponent has one nonzero radix-16 digit, so each leap
  // multiplier is a single table lookup once the window exists.
  ExperimentLeap =
      BaseWindow->pow(UInt128::powerOfTwo(Config.ExperimentLog2));
  ProcessorLeap = BaseWindow->pow(UInt128::powerOfTwo(Config.ProcessorLog2));
  RealizationLeap =
      BaseWindow->pow(UInt128::powerOfTwo(Config.RealizationLog2));
  // Leap composition (eq. 6–8): A(n) = A^n implies the processor leap is
  // the realization leap raised to 2^(np-nr), and likewise one level up.
  // If this ever fails, the three levels no longer nest and "disjoint"
  // subsequences overlap.
  PARMONC_DCHECK(
      ProcessorLeap ==
          UInt128::powModPow2(
              RealizationLeap,
              UInt128::powerOfTwo(Config.ProcessorLog2 -
                                  Config.RealizationLog2),
              128),
      "leap composition broken: A(n_p) != A(n_r)^(n_p/n_r)");
  PARMONC_DCHECK(
      ExperimentLeap ==
          UInt128::powModPow2(
              ProcessorLeap,
              UInt128::powerOfTwo(Config.ExperimentLog2 -
                                  Config.ProcessorLog2),
              128),
      "leap composition broken: A(n_e) != A(n_p)^(n_e/n_p)");
}

std::string LeapTable::toFileContents() const {
  // Keep the format line-oriented and self-describing; hex for multipliers
  // because that round-trips trivially and matches how Dyadkin & Hamilton
  // publish them.
  std::string Text;
  Text += "# PARMONC leap multipliers A(n) = A^n (mod 2^128)\n";
  Text += "base " + BaseMultiplier.toHexString() + "\n";
  Text += "ne " + std::to_string(Config.ExperimentLog2) + " " +
          ExperimentLeap.toHexString() + "\n";
  Text += "np " + std::to_string(Config.ProcessorLog2) + " " +
          ProcessorLeap.toHexString() + "\n";
  Text += "nr " + std::to_string(Config.RealizationLog2) + " " +
          RealizationLeap.toHexString() + "\n";
  return Text;
}

Result<LeapTable> LeapTable::fromFileContents(std::string_view Contents) {
  UInt128 Base;
  bool HaveBase = false;
  LeapConfig Config;
  bool HaveNe = false, HaveNp = false, HaveNr = false;

  for (std::string_view Line : splitChar(Contents, '\n')) {
    std::string_view Stripped = trim(Line);
    if (Stripped.empty() || Stripped[0] == '#')
      continue;
    auto Fields = splitWhitespace(Stripped);
    if (Fields[0] == "base") {
      if (Fields.size() != 2)
        return parseError("malformed 'base' line in genparam file");
      Result<UInt128> Parsed = UInt128::fromHexString(Fields[1]);
      if (!Parsed)
        return Parsed.status();
      Base = Parsed.value();
      HaveBase = true;
      continue;
    }
    if (Fields[0] == "ne" || Fields[0] == "np" || Fields[0] == "nr") {
      if (Fields.size() != 3)
        return parseError("malformed '" + std::string(Fields[0]) +
                          "' line in genparam file");
      Result<uint64_t> Exponent = parseUInt64(Fields[1]);
      if (!Exponent)
        return Exponent.status();
      if (Exponent.value() >= 128)
        return parseError("leap exponent out of range in genparam file");
      // The multiplier column is informative; it is revalidated below.
      if (Fields[0] == "ne") {
        Config.ExperimentLog2 = unsigned(Exponent.value());
        HaveNe = true;
      } else if (Fields[0] == "np") {
        Config.ProcessorLog2 = unsigned(Exponent.value());
        HaveNp = true;
      } else {
        Config.RealizationLog2 = unsigned(Exponent.value());
        HaveNr = true;
      }
      continue;
    }
    return parseError("unknown genparam directive '" + std::string(Fields[0]) +
                      "'");
  }

  if (!HaveBase || !HaveNe || !HaveNp || !HaveNr)
    return parseError("genparam file is missing base/ne/np/nr entries");
  if (Status Valid = Config.validate(); !Valid)
    return Valid;
  if (Base.low() % 8 != 5)
    return parseError("genparam base multiplier is not 5 mod 8");

  // Recompute the leaps from (base, exponents): a corrupted multiplier
  // column can then never produce overlapping streams.
  return LeapTable(Base, Config);
}

Result<LeapTable> LeapTable::loadOrDefault(const std::string &Path) {
  if (!fileExists(Path))
    return LeapTable();
  Result<std::string> Contents = readFileToString(Path);
  if (!Contents)
    return Contents.status();
  return fromFileContents(Contents.value());
}

UInt128 StreamHierarchy::initialNumber(const StreamCoordinates &Where) const {
  const LeapConfig &Config = Table.config();
  // Out-of-capacity indices wrap into a *different* subsequence of the
  // general sequence — results would be statistically valid-looking but
  // correlated with another stream, so these are always-on contracts.
  PARMONC_ASSERT(Where.Experiment <
                     (uint64_t(1) << std::min(Config.maxExperimentsLog2(),
                                              63u)),
                 "experiment index exceeds hierarchy capacity");
  PARMONC_ASSERT(Where.Processor <
                     (uint64_t(1) << std::min(Config.maxProcessorsLog2(),
                                              63u)),
                 "processor index exceeds hierarchy capacity");
  PARMONC_ASSERT(Where.Realization <
                     (uint64_t(1) << std::min(Config.maxRealizationsLog2(),
                                              63u)),
                 "realization index exceeds hierarchy capacity");

  // The three per-level powers collapse into one window query:
  //   A(n_e)^e · A(n_p)^p · A(n_r)^k = A^(e·2^ne + p·2^np + k·2^nr),
  // and the combined exponent is the stream's position in the general
  // sequence, which the capacity contracts above keep below 2^126 — no
  // wraparound, so the single windowed power is exactly the old triple
  // square-and-multiply product at a fraction of the multiplies.
  const UInt128 Position =
      (UInt128(Where.Experiment) << Config.ExperimentLog2) +
      (UInt128(Where.Processor) << Config.ProcessorLog2) +
      (UInt128(Where.Realization) << Config.RealizationLog2);
  return Table.powerOfBase(Position);
}

Lcg128 StreamHierarchy::makeStream(const StreamCoordinates &Where) const {
  return Lcg128(Table.baseMultiplier(), initialNumber(Where));
}

} // namespace parmonc
