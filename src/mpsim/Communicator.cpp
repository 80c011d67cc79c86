//===- mpsim/Communicator.cpp - In-process message passing ---------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/mpsim/Communicator.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

namespace parmonc {

void Mailbox::push(Message Incoming) {
  size_t Superseded = 0;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Closed)
      return; // the backend is tearing down; nobody will pop this
    if (Incoming.Supersedes) {
      const auto Replaced = std::remove_if(
          Queue.begin(), Queue.end(), [&Incoming](const Message &Queued) {
            return Queued.Source == Incoming.Source &&
                   Queued.Tag == Incoming.Tag;
          });
      Superseded = size_t(Queue.end() - Replaced);
      Queue.erase(Replaced, Queue.end());
    }
    Queue.push_back(std::move(Incoming));
    QueuedCount.store(Queue.size(), std::memory_order_release);
  }
  Available.notify_all();
  if (Superseded > 0 && Metrics)
    Metrics->counter("comm.messages_superseded").add(int64_t(Superseded));
}

std::optional<Message> Mailbox::popMatchingLocked(int Tag) {
  for (auto Iterator = Queue.begin(); Iterator != Queue.end(); ++Iterator) {
    if (Tag < 0 || Iterator->Tag == Tag) {
      Message Found = std::move(*Iterator);
      Queue.erase(Iterator);
      QueuedCount.store(Queue.size(), std::memory_order_release);
      return Found;
    }
  }
  return std::nullopt;
}

bool Mailbox::containsLocked(int Tag) const {
  for (const Message &Queued : Queue)
    if (Tag < 0 || Queued.Tag == Tag)
      return true;
  return false;
}

std::optional<Message> Mailbox::tryPop(int Tag) {
  // Empty fast path. A push racing with this load is simply seen by the
  // next poll, exactly as if it had landed after a locked check.
  if (QueuedCount.load(std::memory_order_acquire) == 0)
    return std::nullopt;
  std::lock_guard<std::mutex> Lock(Mutex);
  return popMatchingLocked(Tag);
}

std::optional<Message> Mailbox::popWait(int Tag, int64_t TimeoutNanos,
                                        const Clock *TimeSource) {
  if (TimeSource) {
    // Injected-clock deadline: the condition variable cannot wait on a
    // virtual clock, so poll in short real-time slices. The predicate is
    // rechecked on every wakeup and the deadline is checked on the
    // injected clock, so a frozen ManualClock waiter returns promptly
    // once the test advances time past the deadline.
    const int64_t Deadline = TimeSource->nowNanos() + TimeoutNanos;
    std::unique_lock<std::mutex> Lock(Mutex);
    for (;;) {
      if (std::optional<Message> Found = popMatchingLocked(Tag))
        return Found;
      if (Closed || TimeSource->nowNanos() >= Deadline)
        return std::nullopt;
      Available.wait_for(Lock, std::chrono::microseconds(100));
    }
  }
  const auto Deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(TimeoutNanos);
  std::unique_lock<std::mutex> Lock(Mutex);
  // wait_until with a predicate rechecks after every wakeup: spurious
  // wakeups and notifications for non-matching tags neither return early
  // nor push the deadline out; false means the deadline passed (or the
  // mailbox closed) with no matching message queued.
  Available.wait_until(Lock, Deadline,
                       [this, Tag] { return Closed || containsLocked(Tag); });
  return popMatchingLocked(Tag);
}

void Mailbox::close() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Closed = true;
  }
  Available.notify_all();
}

bool Mailbox::isClosed() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Closed;
}

size_t Mailbox::pendingCount() const {
  return QueuedCount.load(std::memory_order_acquire);
}

bool Mailbox::contains(int Tag) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return containsLocked(Tag);
}

Fabric::Fabric(int RankCount) {
  assert(RankCount >= 1 && "fabric needs at least one rank");
  Mailboxes.reserve(size_t(RankCount));
  for (int Rank = 0; Rank < RankCount; ++Rank)
    Mailboxes.push_back(std::make_unique<Mailbox>());
  DeadByRank.assign(size_t(RankCount), false);
}

uint64_t Fabric::bytesTransferred() const {
  return TotalBytes.load(std::memory_order_relaxed);
}

void Fabric::addBytesTransferred(uint64_t Bytes) {
  TotalBytes.fetch_add(Bytes, std::memory_order_relaxed);
}

void Fabric::attachMetrics(obs::MetricsRegistry &Registry) {
  MessagesSent = &Registry.counter("comm.messages_sent");
  BytesSent = &Registry.counter("comm.bytes_sent");
  SendRetries = &Registry.counter("comm.send_retries");
  SendsFailed = &Registry.counter("comm.sends_failed");
  CollectorQueueDepth = &Registry.gauge("comm.collector_queue_depth");
  for (std::unique_ptr<Mailbox> &Box : Mailboxes)
    Box->countSupersededIn(&Registry);
}

void Fabric::setSendFaultHook(SendFaultHook Hook, const Clock *TimeSource) {
  FaultHook = std::move(Hook);
  FaultTime = TimeSource;
}

void Fabric::markDead(int Rank) {
  assert(Rank >= 0 && Rank < rankCount() && "rank out of range");
  std::lock_guard<std::mutex> Lock(BarrierMutex);
  if (DeadByRank[size_t(Rank)])
    return;
  DeadByRank[size_t(Rank)] = true;
  ++DeadRanks;
  // The death may have been the barrier's missing arrival.
  if (BarrierWaiting > 0 && BarrierWaiting >= rankCount() - DeadRanks) {
    BarrierWaiting = 0;
    ++BarrierGeneration;
    BarrierRelease.notify_all();
  }
}

int Fabric::aliveRankCount() const {
  std::lock_guard<std::mutex> Lock(BarrierMutex);
  return rankCount() - DeadRanks;
}

void Fabric::requestStop(StopReason Reason) {
  StopBits.fetch_or(uint8_t(Reason), std::memory_order_relaxed);
  StopFlag.store(true, std::memory_order_relaxed);
}

bool Fabric::stopRequested() const {
  return StopFlag.load(std::memory_order_relaxed);
}

uint8_t Fabric::stopReasonBits() const {
  return StopBits.load(std::memory_order_relaxed);
}

void Fabric::requestAbort() {
  AbortFlag.store(true, std::memory_order_relaxed);
  StopFlag.store(true, std::memory_order_relaxed);
}

bool Fabric::abortRequested() const {
  return AbortFlag.load(std::memory_order_relaxed);
}

void Fabric::shutdown() {
  requestStop(StopReason::None);
  for (std::unique_ptr<Mailbox> &Box : Mailboxes)
    Box->close();
  // Release any rank parked at the barrier: a shutdown must leave every
  // rank joinable in whatever order the caller picks.
  std::lock_guard<std::mutex> Lock(BarrierMutex);
  BarrierWaiting = 0;
  ++BarrierGeneration;
  BarrierShutDown = true; // and let later arrivals pass straight through
  BarrierRelease.notify_all();
}

void Fabric::arriveAtBarrier() {
  std::unique_lock<std::mutex> Lock(BarrierMutex);
  if (BarrierShutDown)
    return;
  const uint64_t MyGeneration = BarrierGeneration;
  if (++BarrierWaiting >= rankCount() - DeadRanks) {
    BarrierWaiting = 0;
    ++BarrierGeneration;
    BarrierRelease.notify_all();
    return;
  }
  BarrierRelease.wait(Lock, [this, MyGeneration] {
    return BarrierGeneration != MyGeneration;
  });
}

void Fabric::pumpDelayedMessages() {
  if (!FaultTime)
    return;
  std::vector<DelayedMessage> Due;
  {
    std::lock_guard<std::mutex> Lock(DelayedMutex);
    if (Delayed.empty())
      return;
    const int64_t Now = FaultTime->nowNanos();
    auto FirstDue = std::partition(
        Delayed.begin(), Delayed.end(),
        [Now](const DelayedMessage &Held) { return Held.ReleaseNanos > Now; });
    Due.assign(std::make_move_iterator(FirstDue),
               std::make_move_iterator(Delayed.end()));
    Delayed.erase(FirstDue, Delayed.end());
  }
  for (DelayedMessage &Release : Due)
    mailboxOf(Release.Destination).push(std::move(Release.Held));
}

void Fabric::delayMessage(int Destination, int64_t ReleaseNanos,
                          Message Held) {
  std::lock_guard<std::mutex> Lock(DelayedMutex);
  Delayed.push_back(DelayedMessage{ReleaseNanos, Destination, std::move(Held)});
}

void Communicator::crashHard() {
  // Only the process transport can kill a single rank; a thread-backed
  // rank shares the host process with every other rank and the caller.
  assert(false && "crashHard() requires the process transport");
  std::abort();
}

Status FabricCommunicator::sendReliable(int Destination, int Tag,
                                        std::vector<uint8_t> Payload,
                                        int MaxAttempts, int64_t BackoffNanos,
                                        const Clock *TimeSource,
                                        bool Supersedes) {
  assert(Destination >= 0 && Destination < size() &&
         "destination rank out of range");
  assert(MaxAttempts >= 1 && "need at least one send attempt");
  SharedFabric.pumpDelayedMessages();

  SendFault Verdict;
  const SendFaultHook &Hook = SharedFabric.sendFaultHook();
  for (int Attempt = 1;; ++Attempt) {
    Verdict = Hook ? Hook(Rank, Destination, Tag) : SendFault{};
    if (Verdict.Act != SendFault::Action::Fail)
      break;
    if (Attempt >= MaxAttempts) {
      if (obs::Counter *Failed = SharedFabric.sendsFailedCounter())
        Failed->add();
      return ioError("send from rank " + std::to_string(Rank) +
                     " to rank " + std::to_string(Destination) +
                     " failed after " + std::to_string(MaxAttempts) +
                     " attempts");
    }
    if (obs::Counter *Retries = SharedFabric.sendRetriesCounter())
      Retries->add();
    if (TimeSource)
      TimeSource->sleepNanos(BackoffNanos);
  }

  if (obs::Counter *Messages = SharedFabric.messagesSentCounter())
    Messages->add();
  if (obs::Counter *Bytes = SharedFabric.bytesSentCounter())
    Bytes->add(int64_t(Payload.size()));
  if (Verdict.Act == SendFault::Action::Drop) {
    // The network ate it; the sender has no way to know.
    return Status::ok();
  }
  SharedFabric.addBytesTransferred(Payload.size());

  Message Outgoing;
  Outgoing.Source = Rank;
  Outgoing.Tag = Tag;
  Outgoing.Payload = std::move(Payload);
  Outgoing.Supersedes = Supersedes;
  if (Verdict.Act == SendFault::Action::Delay &&
      SharedFabric.faultClock()) {
    SharedFabric.delayMessage(Destination,
                              SharedFabric.faultClock()->nowNanos() +
                                  Verdict.DelayNanos,
                              std::move(Outgoing));
    return Status::ok();
  }
  if (Verdict.Act == SendFault::Action::Duplicate)
    SharedFabric.mailboxOf(Destination).push(Outgoing);
  SharedFabric.mailboxOf(Destination).push(std::move(Outgoing));
  // Queue-delay signal: depth of the collector's mailbox right after a
  // subtotal lands there. The §2.2 claim is that this stays near zero.
  if (Destination == 0)
    if (obs::Gauge *Depth = SharedFabric.collectorQueueDepthGauge())
      Depth->set(double(SharedFabric.mailboxOf(0).pendingCount()));
  return Status::ok();
}

std::optional<Message> FabricCommunicator::tryReceive(int Tag) {
  SharedFabric.pumpDelayedMessages();
  return SharedFabric.mailboxOf(Rank).tryPop(Tag);
}

std::optional<Message> FabricCommunicator::receiveWait(
    int Tag, int64_t TimeoutNanos, const Clock *TimeSource) {
  SharedFabric.pumpDelayedMessages();
  return SharedFabric.mailboxOf(Rank).popWait(Tag, TimeoutNanos,
                                              TimeSource);
}

bool FabricCommunicator::probe(int Tag) {
  SharedFabric.pumpDelayedMessages();
  return SharedFabric.mailboxOf(Rank).contains(Tag);
}

void runThreadEngine(int RankCount,
                     const std::function<void(Communicator &)> &Body,
                     obs::MetricsRegistry *Metrics,
                     const std::function<void(Fabric &)> &Setup) {
  assert(RankCount >= 1 && "need at least one rank");
  Fabric SharedFabric(RankCount);
  if (Metrics)
    SharedFabric.attachMetrics(*Metrics);
  if (Setup)
    Setup(SharedFabric);
  std::vector<std::thread> Threads;
  Threads.reserve(size_t(RankCount));
  for (int Rank = 0; Rank < RankCount; ++Rank) {
    Threads.emplace_back([&SharedFabric, &Body, Rank] {
      FabricCommunicator Self(SharedFabric, Rank);
      Body(Self);
    });
  }
  for (std::thread &Thread : Threads)
    Thread.join();
}

WorkerGroup::WorkerGroup(int Count, const std::function<void(int)> &Body) {
  assert(Count >= 1 && "need at least one worker");
  Threads.reserve(size_t(Count));
  // Each thread owns a copy of the callable, so a temporary lambda passed
  // by the caller cannot dangle once this constructor returns.
  for (int Worker = 0; Worker < Count; ++Worker)
    Threads.emplace_back([Body, Worker] { Body(Worker); });
}

void WorkerGroup::join() {
  for (std::thread &Thread : Threads)
    if (Thread.joinable())
      Thread.join();
  Threads.clear();
}

} // namespace parmonc
