//===- tests/mpsim/CommunicatorTest.cpp - Message-passing runtime tests ---===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/mpsim/Communicator.h"

#include "parmonc/support/Clock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

namespace parmonc {
namespace {

std::vector<uint8_t> bytesOf(std::initializer_list<uint8_t> Values) {
  return std::vector<uint8_t>(Values);
}

TEST(Mailbox, FifoWithinTag) {
  Mailbox Box;
  Box.push({0, 7, bytesOf({1})});
  Box.push({0, 7, bytesOf({2})});
  auto First = Box.tryPop(7);
  auto Second = Box.tryPop(7);
  ASSERT_TRUE(First && Second);
  EXPECT_EQ(First->Payload[0], 1);
  EXPECT_EQ(Second->Payload[0], 2);
  EXPECT_FALSE(Box.tryPop(7).has_value());
}

TEST(Mailbox, TagFilteringSkipsOtherTags) {
  Mailbox Box;
  Box.push({0, 1, bytesOf({10})});
  Box.push({0, 2, bytesOf({20})});
  auto Tagged = Box.tryPop(2);
  ASSERT_TRUE(Tagged);
  EXPECT_EQ(Tagged->Payload[0], 20);
  EXPECT_EQ(Box.pendingCount(), 1u);
  // The tag-1 message is still there, in order.
  auto Remaining = Box.tryPop(-1);
  ASSERT_TRUE(Remaining);
  EXPECT_EQ(Remaining->Tag, 1);
}

TEST(Mailbox, ContainsDoesNotConsume) {
  Mailbox Box;
  Box.push({3, 9, bytesOf({1})});
  EXPECT_TRUE(Box.contains(9));
  EXPECT_TRUE(Box.contains(-1));
  EXPECT_FALSE(Box.contains(8));
  EXPECT_EQ(Box.pendingCount(), 1u);
}

TEST(Mailbox, PopWaitTimesOutOnEmptyBox) {
  Mailbox Box;
  auto Nothing = Box.popWait(5, 5'000'000); // 5 ms
  EXPECT_FALSE(Nothing.has_value());
}

TEST(Mailbox, PopWaitWakesOnPush) {
  Mailbox Box;
  std::thread Producer([&Box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Box.push({1, 4, bytesOf({42})});
  });
  auto Received = Box.popWait(4, 2'000'000'000);
  Producer.join();
  ASSERT_TRUE(Received);
  EXPECT_EQ(Received->Payload[0], 42);
  EXPECT_EQ(Received->Source, 1);
}

TEST(Mailbox, PopWaitIgnoresWrongTagPushesWithoutExtendingDeadline) {
  // Regression: a stream of non-matching pushes used to restart the wait
  // with the full timeout on every wakeup, so a waiter for a tag that
  // never arrives could block far past its deadline. The predicate-based
  // wait must return nullopt once the deadline passes, leaving the
  // wrong-tag messages queued.
  Mailbox Box;
  std::atomic<bool> StopProducer{false};
  std::thread Producer([&] {
    while (!StopProducer.load()) {
      Box.push({0, 1, bytesOf({7})});
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  const auto Start = std::chrono::steady_clock::now();
  auto Nothing = Box.popWait(99, 30'000'000); // 30 ms, tag never sent
  const auto Elapsed = std::chrono::steady_clock::now() - Start;
  StopProducer.store(true);
  Producer.join();
  EXPECT_FALSE(Nothing.has_value());
  // Generous bound: the old behavior blocked for as long as pushes kept
  // arriving (seconds); the fix returns within ~one timeout.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(Elapsed)
                .count(),
            500);
  EXPECT_GT(Box.pendingCount(), 0u);
}

TEST(Mailbox, PopWaitOnManualClockReturnsWhenInjectedTimePasses) {
  // With an injected clock the deadline is measured on *that* clock: a
  // waiter polls, and returns promptly once the test advances manual time
  // past the deadline — no real-time sleep of the full timeout.
  ManualClock Time(0);
  Mailbox Box;
  // popWait snapshots its deadline from the injected clock on entry, so a
  // single advance could land before the snapshot on a loaded machine and
  // leave the deadline forever unreachable — keep advancing until the
  // waiter has actually returned.
  std::atomic<bool> Returned{false};
  std::thread Advancer([&Time, &Returned] {
    while (!Returned.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      Time.advanceNanos(2'000'000'000);
    }
  });
  const auto Start = std::chrono::steady_clock::now();
  auto Nothing = Box.popWait(1, 1'000'000'000, &Time); // 1 s of manual time
  const auto Elapsed = std::chrono::steady_clock::now() - Start;
  Returned.store(true);
  Advancer.join();
  EXPECT_FALSE(Nothing.has_value());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(Elapsed)
                .count(),
            500);
}

TEST(Mailbox, PopWaitOnManualClockStillDeliversMatches) {
  ManualClock Time(0);
  Mailbox Box;
  std::thread Producer([&Box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Box.push({2, 8, bytesOf({11})});
  });
  auto Received = Box.popWait(8, 1'000'000'000, &Time);
  Producer.join();
  ASSERT_TRUE(Received);
  EXPECT_EQ(Received->Payload[0], 11);
}

TEST(Mailbox, PendingCountTracksEveryPushAndPop) {
  Mailbox Box;
  EXPECT_EQ(Box.pendingCount(), 0u);
  EXPECT_FALSE(Box.tryPop().has_value());
  Box.push({0, 1, bytesOf({1})});
  EXPECT_EQ(Box.pendingCount(), 1u);
  Box.push({0, 2, bytesOf({2})});
  EXPECT_EQ(Box.pendingCount(), 2u);
  EXPECT_FALSE(Box.tryPop(3).has_value()); // no match: nothing removed
  EXPECT_EQ(Box.pendingCount(), 2u);
  ASSERT_TRUE(Box.tryPop(2));
  EXPECT_EQ(Box.pendingCount(), 1u);
  ASSERT_TRUE(Box.popWait(-1, 1'000'000));
  EXPECT_EQ(Box.pendingCount(), 0u);
  EXPECT_FALSE(Box.tryPop().has_value());
}

TEST(Mailbox, QueuedMessagesDrainThroughTryPopAfterClose) {
  Mailbox Box;
  Box.push({0, 1, bytesOf({1})});
  Box.push({0, 1, bytesOf({2})});
  Box.close();
  Box.push({0, 1, bytesOf({3})}); // dropped: the mailbox is closed
  EXPECT_EQ(Box.pendingCount(), 2u);
  auto First = Box.tryPop();
  auto Second = Box.tryPop();
  ASSERT_TRUE(First && Second);
  EXPECT_EQ(First->Payload[0], 1);
  EXPECT_EQ(Second->Payload[0], 2);
  EXPECT_EQ(Box.pendingCount(), 0u);
  EXPECT_FALSE(Box.tryPop().has_value());
}

TEST(Mailbox, SpinningConsumerSeesEveryMessageOnceInProducerOrder) {
  // The consumer polls with tryPop, which returns from an empty mailbox
  // without locking; racing producers must still never lose, duplicate or
  // reorder a message.
  constexpr int Producers = 4;
  constexpr int PerProducer = 2000;
  Mailbox Box;
  std::vector<std::thread> Threads;
  for (int Producer = 0; Producer < Producers; ++Producer)
    Threads.emplace_back([&Box, Producer] {
      for (int Sequence = 0; Sequence < PerProducer; ++Sequence)
        Box.push({Producer, 0,
                  bytesOf({uint8_t(Sequence & 0xff),
                           uint8_t((Sequence >> 8) & 0xff)})});
    });
  std::vector<int> NextExpected(Producers, 0);
  int Received = 0;
  bool InOrder = true;
  while (InOrder && Received < Producers * PerProducer) {
    std::optional<Message> Incoming = Box.tryPop();
    if (!Incoming)
      continue;
    const int Sequence = Incoming->Payload[0] | (Incoming->Payload[1] << 8);
    InOrder = Incoming->Source >= 0 && Incoming->Source < Producers &&
              Sequence == NextExpected[size_t(Incoming->Source)];
    EXPECT_TRUE(InOrder) << "message " << Sequence << " from producer "
                         << Incoming->Source << " out of order";
    if (InOrder)
      ++NextExpected[size_t(Incoming->Source)];
    ++Received;
  }
  for (std::thread &Thread : Threads)
    Thread.join();
  EXPECT_EQ(NextExpected, std::vector<int>(Producers, PerProducer));
  EXPECT_EQ(Box.pendingCount(), 0u);
  EXPECT_FALSE(Box.tryPop().has_value());
}

/// Tags standing in for the engine's cumulative subtotal and final.
constexpr int Subtotal = 1;
constexpr int Final = 2;

Message superseding(int Source, int Tag, uint8_t Value) {
  return Message{Source, Tag, bytesOf({Value}), /*Supersedes=*/true};
}

int64_t supersededCount(const obs::MetricsRegistry &Registry) {
  const obs::MetricsSnapshot Snapshot = Registry.snapshot();
  const int64_t *Value = Snapshot.counterValue("comm.messages_superseded");
  return Value ? *Value : -1; // -1: never registered
}

TEST(Mailbox, SupersedingPushesFromOneSourceLeaveOnlyTheLast) {
  obs::MetricsRegistry Registry;
  Mailbox Box;
  Box.countSupersededIn(&Registry);
  for (uint8_t Value = 1; Value <= 5; ++Value)
    Box.push(superseding(3, Subtotal, Value));
  EXPECT_EQ(Box.pendingCount(), 1u);
  std::optional<Message> Latest = Box.tryPop();
  ASSERT_TRUE(Latest);
  EXPECT_EQ(Latest->Source, 3);
  EXPECT_EQ(Latest->Payload, bytesOf({5}));
  EXPECT_EQ(supersededCount(Registry), 4);
  // The lock-free empty poll still sees an exact, empty queue.
  EXPECT_EQ(Box.pendingCount(), 0u);
  EXPECT_FALSE(Box.tryPop().has_value());
}

TEST(Mailbox, SupersedingKeepsOtherSourcesTagsAndUnmarkedMessagesInOrder) {
  Mailbox Box;
  Box.push(superseding(0, Subtotal, 1));
  Box.push(superseding(1, Subtotal, 2));
  Box.push({0, 5, bytesOf({3})});
  Box.push({0, 5, bytesOf({4})}); // unmarked: replaces nothing
  Box.push(superseding(0, Subtotal, 6));
  EXPECT_EQ(Box.pendingCount(), 4u);
  // Source 0's subtotal moved to the back; every other message kept its
  // place.
  const std::vector<std::pair<int, uint8_t>> Expected = {
      {1, 2}, {0, 3}, {0, 4}, {0, 6}};
  for (const auto &[Source, Value] : Expected) {
    std::optional<Message> Next = Box.tryPop();
    ASSERT_TRUE(Next);
    EXPECT_EQ(Next->Source, Source);
    EXPECT_EQ(Next->Payload, bytesOf({Value}));
  }
  EXPECT_EQ(Box.pendingCount(), 0u);
}

TEST(Mailbox, SupersedingNeverReplacesAFinal) {
  Mailbox Box;
  Box.push(superseding(2, Subtotal, 1));
  Box.push({2, Final, bytesOf({2})});
  Box.push(superseding(2, Subtotal, 3)); // released late, after the final
  EXPECT_EQ(Box.pendingCount(), 2u);
  std::optional<Message> First = Box.tryPop();
  std::optional<Message> Second = Box.tryPop();
  ASSERT_TRUE(First && Second);
  EXPECT_EQ(First->Tag, Final);
  EXPECT_EQ(First->Payload, bytesOf({2}));
  EXPECT_EQ(Second->Tag, Subtotal);
  EXPECT_EQ(Second->Payload, bytesOf({3}));
}

TEST(Mailbox, SupersededCounterRegistersAtTheFirstRemovalOnly) {
  obs::MetricsRegistry Registry;
  Mailbox Box;
  Box.countSupersededIn(&Registry);
  Box.push(superseding(0, Subtotal, 1)); // nothing queued to replace
  Box.push({0, Subtotal, bytesOf({2})});
  ASSERT_TRUE(Box.tryPop() && Box.tryPop());
  EXPECT_EQ(supersededCount(Registry), -1);
  Box.push({0, Subtotal, bytesOf({3})});
  Box.push(superseding(0, Subtotal, 4)); // replaces the unmarked one
  EXPECT_EQ(supersededCount(Registry), 1);
}

TEST(Mailbox, SpinningConsumerOfSupersedingProducersSeesEachSourceAdvance) {
  // Racing superseding producers: the consumer may miss values (that is
  // the point), but never sees one source go backwards, and always ends
  // on each source's last value.
  constexpr int Producers = 4;
  constexpr int PerProducer = 2000;
  Mailbox Box;
  std::vector<std::thread> Threads;
  for (int Producer = 0; Producer < Producers; ++Producer)
    Threads.emplace_back([&Box, Producer] {
      for (int Sequence = 1; Sequence <= PerProducer; ++Sequence)
        Box.push(Message{Producer, Subtotal,
                         bytesOf({uint8_t(Sequence & 0xff),
                                  uint8_t((Sequence >> 8) & 0xff)}),
                         /*Supersedes=*/true});
    });
  std::vector<int> Last(Producers, 0);
  bool Advancing = true;
  while (Advancing && Last != std::vector<int>(Producers, PerProducer)) {
    std::optional<Message> Incoming = Box.tryPop();
    if (!Incoming)
      continue;
    const int Sequence = Incoming->Payload[0] | (Incoming->Payload[1] << 8);
    Advancing = Incoming->Source >= 0 && Incoming->Source < Producers &&
                Sequence > Last[size_t(Incoming->Source)];
    EXPECT_TRUE(Advancing) << "message " << Sequence << " from producer "
                           << Incoming->Source << " went backwards";
    if (Advancing)
      Last[size_t(Incoming->Source)] = Sequence;
  }
  for (std::thread &Thread : Threads)
    Thread.join();
  EXPECT_EQ(Last, std::vector<int>(Producers, PerProducer));
  EXPECT_EQ(Box.pendingCount(), 0u);
  EXPECT_FALSE(Box.tryPop().has_value());
}

TEST(Fabric, TracksBytesTransferred) {
  Fabric Net(2);
  FabricCommunicator Sender(Net, 1);
  Sender.send(0, 1, std::vector<uint8_t>(100));
  Sender.send(0, 1, std::vector<uint8_t>(20));
  EXPECT_EQ(Net.bytesTransferred(), 120u);
}

TEST(Communicator, SendDeliversToDestinationOnly) {
  Fabric Net(3);
  FabricCommunicator Rank0(Net, 0), Rank1(Net, 1), Rank2(Net, 2);
  Rank0.send(2, 5, bytesOf({9}));
  EXPECT_FALSE(Rank1.probe());
  ASSERT_TRUE(Rank2.probe(5));
  auto Received = Rank2.tryReceive(5);
  ASSERT_TRUE(Received);
  EXPECT_EQ(Received->Source, 0);
  EXPECT_EQ(Received->Payload[0], 9);
}

TEST(Communicator, RankAndSize) {
  Fabric Net(4);
  FabricCommunicator Comm(Net, 2);
  EXPECT_EQ(Comm.rank(), 2);
  EXPECT_EQ(Comm.size(), 4);
}

TEST(ThreadEngine, RunsEveryRankExactlyOnce) {
  std::atomic<int> Mask{0};
  runThreadEngine(8, [&Mask](Communicator &Comm) {
    Mask.fetch_or(1 << Comm.rank());
  });
  EXPECT_EQ(Mask.load(), 0xff);
}

TEST(ThreadEngine, GatherToRankZero) {
  // The paper's pattern: every rank sends to 0; rank 0 sums.
  std::atomic<int64_t> Total{0};
  const int Ranks = 6;
  runThreadEngine(Ranks, [&Total](Communicator &Comm) {
    if (Comm.rank() != 0) {
      std::vector<uint8_t> Payload{uint8_t(Comm.rank())};
      Comm.send(0, 1, std::move(Payload));
      return;
    }
    int Received = 0;
    int64_t Sum = 0;
    while (Received < Ranks - 1) {
      if (auto Incoming = Comm.receiveWait(1, 1'000'000'000)) {
        Sum += Incoming->Payload[0];
        ++Received;
      }
    }
    Total.store(Sum);
  });
  EXPECT_EQ(Total.load(), 1 + 2 + 3 + 4 + 5);
}

TEST(ThreadEngine, BarrierSynchronizesPhases) {
  // After the barrier, every rank must observe every other rank's phase-1
  // message — a barrier that releases early would break this.
  const int Ranks = 5;
  std::atomic<int> Failures{0};
  runThreadEngine(Ranks, [&Failures](Communicator &Comm) {
    for (int Destination = 0; Destination < Comm.size(); ++Destination)
      if (Destination != Comm.rank())
        Comm.send(Destination, 42, std::vector<uint8_t>{1});
    Comm.barrier();
    int Seen = 0;
    while (Comm.tryReceive(42))
      ++Seen;
    if (Seen != Comm.size() - 1)
      Failures.fetch_add(1);
  });
  EXPECT_EQ(Failures.load(), 0);
}

TEST(ThreadEngine, BarrierIsReusable) {
  std::atomic<int> Counter{0};
  runThreadEngine(4, [&Counter](Communicator &Comm) {
    for (int Round = 0; Round < 10; ++Round) {
      Counter.fetch_add(1);
      Comm.barrier();
    }
  });
  EXPECT_EQ(Counter.load(), 40);
}

TEST(ThreadEngine, SingleRankWorks) {
  int Calls = 0;
  runThreadEngine(1, [&Calls](Communicator &Comm) {
    EXPECT_EQ(Comm.size(), 1);
    Comm.barrier();
    ++Calls;
  });
  EXPECT_EQ(Calls, 1);
}

TEST(ThreadEngine, ManyToOneStress) {
  // Hammer rank 0 from 7 senders x 200 messages; nothing may be lost.
  const int Ranks = 8;
  const int PerSender = 200;
  std::atomic<int64_t> Received{0};
  runThreadEngine(Ranks, [&Received](Communicator &Comm) {
    if (Comm.rank() != 0) {
      for (int Index = 0; Index < PerSender; ++Index)
        Comm.send(0, 3, std::vector<uint8_t>{uint8_t(Index & 0xff)});
      return;
    }
    int64_t Count = 0;
    while (Count < int64_t(Ranks - 1) * PerSender) {
      if (auto Incoming = Comm.receiveWait(3, 1'000'000'000))
        ++Count;
      else
        break; // timeout: fail below
    }
    Received.store(Count);
  });
  EXPECT_EQ(Received.load(), int64_t(Ranks - 1) * PerSender);
}

} // namespace
} // namespace parmonc
