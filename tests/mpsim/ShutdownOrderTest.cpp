//===- tests/mpsim/ShutdownOrderTest.cpp - Teardown-ordering contract -----===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The shutdown seam both backends rely on: a Mailbox/Fabric must be
// tear-down-able while peers still hold queued messages or sit blocked in
// receives and barriers, and the rank threads must then be joinable in ANY
// order. Before Mailbox::close() existed, a receiver parked in popWait
// held its full timeout through teardown and a barrier waiter whose peers
// had already exited hung forever — these tests pin the fixed contract.
//
//===----------------------------------------------------------------------===//

#include "parmonc/mpsim/Communicator.h"

#include "parmonc/support/Clock.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace parmonc {
namespace {

constexpr int64_t Forever = 3'600'000'000'000; // 1 h: only close() returns

TEST(ShutdownOrder, CloseWakesBlockedSteadyClockWaiter) {
  Mailbox Box;
  std::optional<Message> Got = Message{};
  const auto Start = std::chrono::steady_clock::now();
  std::thread Waiter([&] { Got = Box.popWait(7, Forever); });
  // Give the waiter time to actually block, then close underneath it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Box.close();
  Waiter.join();
  const auto Elapsed = std::chrono::steady_clock::now() - Start;
  EXPECT_FALSE(Got); // no message ever arrived
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(Elapsed).count(),
            60)
      << "close() must wake the waiter, not let it sleep out the timeout";
}

TEST(ShutdownOrder, CloseWakesBlockedInjectedClockWaiter) {
  // A frozen ManualClock never reaches the deadline, so only close() can
  // end this wait — the exact shape of a differential-run teardown.
  ManualClock Frozen(1'000'000);
  Mailbox Box;
  std::optional<Message> Got = Message{};
  std::thread Waiter([&] { Got = Box.popWait(-1, Forever, &Frozen); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Box.close();
  Waiter.join();
  EXPECT_FALSE(Got);
}

TEST(ShutdownOrder, QueuedMessagesStayDrainableAfterClose) {
  Mailbox Box;
  Box.push(Message{1, 5, {10}});
  Box.push(Message{2, 6, {20}});
  Box.close();
  // Peers' queued messages survive the close for draining...
  std::optional<Message> First = Box.tryPop(5);
  ASSERT_TRUE(First);
  EXPECT_EQ(First->Payload[0], 10);
  ASSERT_TRUE(Box.tryPop(6));
  // ...but new pushes are dropped: nobody is left to pop them.
  Box.push(Message{3, 7, {30}});
  EXPECT_FALSE(Box.tryPop(7));
  EXPECT_TRUE(Box.isClosed());
  // And a blocking wait on a closed mailbox returns immediately.
  EXPECT_FALSE(Box.popWait(-1, Forever));
}

TEST(ShutdownOrder, FabricShutdownReleasesBarrierWaiters) {
  Fabric Net(3);
  std::vector<std::thread> Stuck;
  for (int Rank = 0; Rank < 2; ++Rank)
    Stuck.emplace_back([&Net] { Net.arriveAtBarrier(); });
  // Rank 2 never arrives; shutdown() must stand in for it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Net.shutdown();
  for (std::thread &Thread : Stuck)
    Thread.join();
  EXPECT_TRUE(Net.stopRequested());
}

TEST(ShutdownOrder, BarrierArrivalAfterShutdownPassesThrough) {
  // A rank thread that only reaches the barrier once the fabric is down
  // (a slow start on a loaded host) must not wait for peers that are gone.
  Fabric Net(3);
  Net.shutdown();
  Net.arriveAtBarrier();
  FabricCommunicator Late(Net, 1);
  Late.barrier();
  EXPECT_TRUE(Net.stopRequested());
}

TEST(ShutdownOrder, RanksJoinableInAdversarialOrders) {
  // Three ranks wedged in the three different blocking states — receive,
  // barrier, send-then-receive — torn down and joined in every
  // permutation. Any deadlock fails the test by hanging it.
  const int Permutations[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                  {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (const auto &Order : Permutations) {
    Fabric Net(3);
    std::vector<std::thread> Ranks;
    Ranks.emplace_back([&Net] {
      FabricCommunicator Self(Net, 0);
      Self.receiveWait(-1, Forever, nullptr); // blocked receive
    });
    Ranks.emplace_back([&Net] {
      FabricCommunicator Self(Net, 1);
      Self.barrier(); // blocked rendezvous (peers never all arrive)
    });
    Ranks.emplace_back([&Net] {
      FabricCommunicator Self(Net, 2);
      // Queued message held toward rank 0 while the backend goes down.
      Self.send(0, 9, std::vector<uint8_t>(64));
      Self.receiveWait(-1, Forever, nullptr);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Net.shutdown();
    for (int Index : Order)
      Ranks[size_t(Index)].join();
  }
}

TEST(ShutdownOrder, ShutdownIsIdempotentAndSafeWithNoWaiters) {
  Fabric Net(2);
  Net.shutdown();
  Net.shutdown();
  // A rank starting after shutdown must not block either.
  FabricCommunicator Late(Net, 1);
  EXPECT_FALSE(Late.receiveWait(-1, Forever, nullptr));
  EXPECT_TRUE(Late.stopRequested());
}

} // namespace
} // namespace parmonc
