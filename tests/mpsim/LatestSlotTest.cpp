//===- tests/mpsim/LatestSlotTest.cpp - Superseding sends across the fork -===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Under the process transport a superseding message from a worker to rank
// 0 travels through the worker's shared-memory latest-value slot, not the
// socket. These tests pin what the collector must still see: the newest
// value, before any later socket message of the same worker; the value a
// worker published just before it was SIGKILLed; oversized payloads intact
// over the socket; and, under injected send faults, the same message the
// thread fabric's mailbox would leave queued.
//
//===----------------------------------------------------------------------===//

#include "parmonc/mpsim/Engine.h"
#include "parmonc/mpsim/Serialize.h"
#include "parmonc/mpsim/SocketTransport.h"
#include "parmonc/support/Clock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace parmonc {
namespace {

constexpr int TagLatest = 1;
constexpr int TagDone = 2;
constexpr int TagAck = 3;
constexpr int64_t Patience = 10'000'000'000; // 10 s: a hang, not a result

std::vector<uint8_t> encodeValue(int64_t Value) {
  ByteWriter Writer;
  Writer.writeI64(Value);
  return Writer.takeBytes();
}

int64_t decodeValue(const Message &Got) {
  ByteReader Reader(Got.Payload);
  Result<int64_t> Value = Reader.readI64();
  EXPECT_TRUE(Value);
  return Value ? Value.value() : -1;
}

void sendLatest(Communicator &Comm, int64_t Value) {
  ASSERT_TRUE(Comm.sendReliable(0, TagLatest, encodeValue(Value),
                                /*MaxAttempts=*/1, /*BackoffNanos=*/0,
                                /*TimeSource=*/nullptr,
                                /*Supersedes=*/true));
}

/// Rank 0 waits for every worker's TagDone, then drains what is left of
/// TagLatest. Returns each source's drained values, in order, as text.
std::string drainAfterDone(Communicator &Comm) {
  for (int Worker = 1; Worker < Comm.size(); ++Worker) {
    std::optional<Message> Done = Comm.receiveWait(TagDone, Patience);
    EXPECT_TRUE(Done) << "a worker's closing message never arrived";
  }
  std::vector<std::string> PerSource(size_t(Comm.size()));
  while (std::optional<Message> Got = Comm.tryReceive(TagLatest))
    PerSource[size_t(Got->Source)] += std::to_string(decodeValue(*Got)) + ";";
  std::string Trace;
  for (int Source = 1; Source < Comm.size(); ++Source)
    Trace += "rank" + std::to_string(Source) + ":" +
             PerSource[size_t(Source)] + "\n";
  return Trace;
}

TEST(LatestSlot, NewestWinsWhileRankZeroIsBusy) {
  // The workers publish 200 cumulative values each while rank 0 sleeps.
  // Rank 0 must then find exactly the newest one of each worker queued
  // ahead of that worker's later, non-superseding message, and the
  // versions nobody read are counted as superseded.
  constexpr int64_t Publishes = 200;
  for (const TransportKind Kind :
       {TransportKind::Threads, TransportKind::Processes}) {
    obs::MetricsRegistry Registry;
    EngineOptions Options;
    Options.Metrics = &Registry;
    std::string Trace;
    Result<EngineReport> Hosted = runEngine(
        Kind, 3,
        [&](Communicator &Comm) {
          if (Comm.rank() != 0) {
            for (int64_t Value = 0; Value < Publishes; ++Value)
              sendLatest(Comm, Comm.rank() * 1000 + Value);
            Comm.send(0, TagDone, {});
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          Trace = drainAfterDone(Comm);
        },
        Options);
    ASSERT_TRUE(Hosted) << Hosted.status().message();
    EXPECT_EQ(Trace, "rank1:1199;\nrank2:2199;\n") << transportName(Kind);
    const obs::MetricsSnapshot Counted = Registry.snapshot();
    const int64_t *Superseded =
        Counted.counterValue("comm.messages_superseded");
    ASSERT_NE(Superseded, nullptr) << transportName(Kind);
    EXPECT_GT(*Superseded, 0) << transportName(Kind);
  }
}

TEST(LatestSlot, HeldDoorbellIsAnsweredBeforeTheWorkersNextFrame) {
  // In each round the second publish rings soon after the router read the
  // first, within its read interval, so that doorbell is held; the
  // worker's next frame must still find the value queued ahead of it.
  constexpr int Rounds = 8;
  for (const TransportKind Kind :
       {TransportKind::Threads, TransportKind::Processes}) {
    std::string Trace;
    Result<EngineReport> Hosted = runEngine(
        Kind, 2, [&](Communicator &Comm) {
          for (int64_t Round = 0; Round < Rounds; ++Round) {
            if (Comm.rank() == 1) {
              sendLatest(Comm, 10 * Round + 1);
              ASSERT_TRUE(Comm.receiveWait(TagAck, Patience));
              sendLatest(Comm, 10 * Round + 2);
              Comm.send(0, TagDone, {});
              // The next round's first value would supersede this one.
              ASSERT_TRUE(Comm.receiveWait(TagAck, Patience));
              continue;
            }
            std::optional<Message> First =
                Comm.receiveWait(TagLatest, Patience);
            ASSERT_TRUE(First);
            Comm.send(1, TagAck, {});
            ASSERT_TRUE(Comm.receiveWait(TagDone, Patience));
            std::optional<Message> Second = Comm.tryReceive(TagLatest);
            Comm.send(1, TagAck, {});
            Trace += std::to_string(decodeValue(*First)) + ">" +
                     (Second ? std::to_string(decodeValue(*Second)) : "-") +
                     ";";
          }
        });
    ASSERT_TRUE(Hosted) << Hosted.status().message();
    EXPECT_EQ(Trace, "1>2;11>12;21>22;31>32;41>42;51>52;61>62;71>72;")
        << transportName(Kind);
  }
}

TEST(LatestSlot, PublishBeforeSigkillIsStillDelivered) {
  // The worker's last act is a publish; it then dies without a goodbye.
  // The router reads the slot once more at end of stream, so the value
  // reaches rank 0 exactly as one already in the socket would have.
  std::optional<int64_t> Newest;
  Result<EngineReport> Hosted = runEngine(
      TransportKind::Processes, 2, [&](Communicator &Comm) {
        if (Comm.rank() == 1) {
          for (int64_t Value = 1; Value <= 50; ++Value)
            sendLatest(Comm, Value);
          Comm.crashHard();
        }
        while (std::optional<Message> Got =
                   Comm.receiveWait(TagLatest, 2'000'000'000)) {
          Newest = decodeValue(*Got);
          if (*Newest == 50)
            break;
        }
      });
  ASSERT_TRUE(Hosted) << Hosted.status().message();
  ASSERT_TRUE(Newest.has_value());
  EXPECT_EQ(*Newest, 50);
  ASSERT_EQ(Hosted.value().Ranks.size(), 1u);
  EXPECT_TRUE(Hosted.value().Ranks[0].Signaled);
  EXPECT_EQ(Hosted.value().Ranks[0].Signal, SIGKILL);
  EXPECT_FALSE(Hosted.value().Ranks[0].GoodbyeReceived);
}

TEST(LatestSlot, PayloadLargerThanTheSlotTakesTheSocket) {
  // One byte over the slot's capacity cannot be published; it must cross
  // the socket intact, and the tag's later small messages follow it there
  // in send order, so the newest still wins at rank 0.
  obs::MetricsRegistry Registry;
  EngineOptions Options;
  Options.Metrics = &Registry;
  std::vector<uint8_t> Oversized(LatestSlotCapacityBytes + 1);
  for (size_t Index = 0; Index < Oversized.size(); ++Index)
    Oversized[Index] = uint8_t(Index * 131u);
  std::vector<uint8_t> FirstSeen;
  std::string Trace;
  Result<EngineReport> Hosted = runEngine(
      TransportKind::Processes, 2,
      [&](Communicator &Comm) {
        if (Comm.rank() == 1) {
          ASSERT_TRUE(Comm.sendReliable(0, TagLatest, Oversized, 1, 0,
                                        nullptr, /*Supersedes=*/true));
          Comm.send(0, TagDone, {});
          // Wait until rank 0 holds the big one, which 7 would supersede.
          ASSERT_TRUE(Comm.receiveWait(TagAck, Patience));
          sendLatest(Comm, 7);
          Comm.send(0, TagDone, {});
          return;
        }
        std::optional<Message> Done = Comm.receiveWait(TagDone, Patience);
        ASSERT_TRUE(Done);
        std::optional<Message> Big = Comm.tryReceive(TagLatest);
        Comm.send(1, TagAck, {});
        ASSERT_TRUE(Big);
        FirstSeen = std::move(Big->Payload);
        Trace = drainAfterDone(Comm);
      },
      Options);
  ASSERT_TRUE(Hosted) << Hosted.status().message();
  EXPECT_TRUE(FirstSeen == Oversized) << "the oversized payload was damaged";
  EXPECT_EQ(Trace, "rank1:7;\n");
  const obs::MetricsSnapshot Counted = Registry.snapshot();
  const int64_t *Routed = Counted.counterValue("transport.bytes_routed");
  ASSERT_NE(Routed, nullptr);
  EXPECT_GE(*Routed, int64_t(Oversized.size()));
}

/// Rank 1 sends one superseding value per verdict in \p Verdicts (the
/// hook answers in that order), releases any delayed one by advancing the
/// fault clock, then sends its closing message. Returns rank 0's trace.
std::string faultedTrace(TransportKind Kind,
                         const std::vector<SendFault> &Verdicts) {
  auto Next = std::make_shared<std::atomic<size_t>>(0);
  ManualClock FaultTime(1'000'000);
  EngineOptions Options;
  Options.FaultClock = &FaultTime;
  Options.FaultHook = [Next, Verdicts](int, int, int Tag) {
    if (Tag != TagLatest)
      return SendFault{};
    return Verdicts[Next->fetch_add(1) % Verdicts.size()];
  };
  std::string Trace;
  Result<EngineReport> Hosted = runEngine(
      Kind, 2,
      [&](Communicator &Comm) {
        if (Comm.rank() == 1) {
          for (size_t Value = 0; Value < Verdicts.size(); ++Value)
            sendLatest(Comm, int64_t(Value));
          FaultTime.advanceNanos(1'000'000'000);
          (void)Comm.probe(); // releases what the Delay verdict held
          Comm.send(0, TagDone, {});
          return;
        }
        Trace = drainAfterDone(Comm);
      },
      Options);
  EXPECT_TRUE(Hosted) << Hosted.status().message();
  return Trace;
}

TEST(LatestSlot, FaultVerdictsOnSupersedingSendsMatchTheFabric) {
  const SendFault Deliver{};
  const SendFault Drop{SendFault::Action::Drop, 0};
  const SendFault Duplicate{SendFault::Action::Duplicate, 0};
  const SendFault Delay{SendFault::Action::Delay, 1'000'000};
  const std::vector<std::vector<SendFault>> Plans = {
      {Deliver, Drop},                       // the newest is lost
      {Deliver, Duplicate},                  // the newest arrives twice
      {Duplicate, Deliver, Drop, Duplicate}, // mixed, newest duplicated
      {Deliver, Delay, Deliver},             // a stale value released last
      {Drop, Drop},                          // nothing ever arrives
  };
  for (size_t Index = 0; Index < Plans.size(); ++Index) {
    const std::string Oracle = faultedTrace(TransportKind::Threads,
                                            Plans[Index]);
    const std::string Wire = faultedTrace(TransportKind::Processes,
                                          Plans[Index]);
    EXPECT_EQ(Oracle, Wire) << "plan " << Index;
  }
  // The oracle itself: a released stale value replaces the newest.
  EXPECT_EQ(faultedTrace(TransportKind::Threads, Plans[3]), "rank1:1;\n");
}

} // namespace
} // namespace parmonc
