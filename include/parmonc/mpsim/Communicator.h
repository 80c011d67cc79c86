//===- parmonc/mpsim/Communicator.h - In-process message passing ----------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MPI substitute (DESIGN.md §2): a fabric of per-rank mailboxes with
/// tagged, asynchronous point-to-point messages. This is deliberately the
/// subset PARMONC's parallelization technique needs — asynchronous send,
/// non-blocking probe/receive, a barrier — nothing more. The run engine is
/// written against the abstract Communicator exactly the way PARMONC is
/// written against MPI, and user code never sees either. Two backends
/// implement it: FabricCommunicator (threads-as-ranks over this file's
/// Fabric) and the socket-pair process transport in SocketTransport.cpp,
/// selected through mpsim/Engine.h.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_MPSIM_COMMUNICATOR_H
#define PARMONC_MPSIM_COMMUNICATOR_H

#include "parmonc/mpsim/Transport.h"
#include "parmonc/obs/Metrics.h"
#include "parmonc/support/Clock.h"
#include "parmonc/support/Status.h"

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace parmonc {

/// A tagged point-to-point message.
struct Message {
  int Source = -1;
  int Tag = 0;
  std::vector<uint8_t> Payload;
  /// Latest-wins delivery: pushing this message removes every queued,
  /// undelivered message with the same source and tag. Senders set it on
  /// cumulative payloads, where only the newest one carries information.
  bool Supersedes = false;
};

/// Verdict of the fabric's fault hook for one send attempt. The fabric is
/// deliberately ignorant of fault *policy* — parmonc::fault::FaultInjector
/// adapts its plan onto this type, and production fabrics carry no hook at
/// all (zero cost).
struct SendFault {
  enum class Action {
    Deliver,   ///< normal delivery
    Drop,      ///< lost in transit; the sender still sees success
    Duplicate, ///< delivered twice
    Delay,     ///< held back for DelayNanos of fabric-clock time
    Fail,      ///< visible send failure (sendReliable may retry)
  };
  Action Act = Action::Deliver;
  int64_t DelayNanos = 0;
};

/// Hook consulted on every send attempt: (source, destination, tag). Both
/// transports consult it at the same points, so a deterministic injector
/// produces the same per-source fault sequence over threads and sockets.
using SendFaultHook = std::function<SendFault(int, int, int)>;

/// One rank's incoming queue. Thread-safe multi-producer/single-consumer.
/// An atomic copy of the queue length, written under the lock on every
/// push and pop, lets a poll of an empty mailbox return after one acquire
/// load without touching the mutex — the collector polls after every
/// realization, and producers write only once per pass period.
class Mailbox {
public:
  /// Enqueues a message (called by any sender thread) at the back of the
  /// queue. A superseding message first removes the queued messages it
  /// replaces (Message::Supersedes); appending it at the back keeps every
  /// source's messages in send order. Messages pushed after close() are
  /// dropped — the backend is tearing down and nobody will ever pop them.
  void push(Message Incoming);

  /// Counts the messages superseding pushes remove in \p Registry's
  /// "comm.messages_superseded" counter, registered at the first removal
  /// so a run that never coalesces keeps its instrument set. Call before
  /// the first push.
  void countSupersededIn(obs::MetricsRegistry *Registry) {
    Metrics = Registry;
  }

  /// Removes and returns the oldest message whose tag matches \p Tag, or
  /// any message when \p Tag is negative. Non-blocking; empty optional if
  /// nothing matches. Lock-free when the mailbox is empty. Draining an
  /// already-closed mailbox is allowed.
  std::optional<Message> tryPop(int Tag = -1);

  /// Blocking variant with a deadline; empty optional on timeout. The
  /// predicate is rechecked after every wakeup, so spurious wakeups and
  /// notifications for non-matching tags neither return early nor extend
  /// the deadline. With \p TimeSource set the deadline is measured on that
  /// clock (a ManualClock-driven waiter polls and returns as soon as the
  /// injected time passes the deadline); null uses the steady clock.
  /// Returns immediately (with a match if one is queued, empty otherwise)
  /// once the mailbox is closed — a teardown must never leave a waiter
  /// blocked for its full timeout.
  std::optional<Message> popWait(int Tag, int64_t TimeoutNanos,
                                 const Clock *TimeSource = nullptr);

  /// Closes the mailbox: wakes every blocked popWait immediately and
  /// makes further waits return without blocking. Queued messages stay
  /// drainable through tryPop. Idempotent; safe to call concurrently with
  /// waiters and pushers — this is the shutdown-ordering seam that lets a
  /// backend be torn down while peers still hold queued messages.
  void close();

  /// True once close() has been called.
  bool isClosed() const;

  /// Number of queued messages (any tag).
  size_t pendingCount() const;

  /// True if a message with \p Tag (-1 = any) is queued, without removing
  /// anything.
  bool contains(int Tag = -1) const;

private:
  std::optional<Message> popMatchingLocked(int Tag);
  bool containsLocked(int Tag) const;

  mutable std::mutex Mutex;
  std::condition_variable Available;
  std::deque<Message> Queue;
  std::atomic<size_t> QueuedCount{0};
  bool Closed = false;
  obs::MetricsRegistry *Metrics = nullptr;
};

/// The shared state connecting all ranks of one thread-backed run.
class Fabric {
public:
  explicit Fabric(int RankCount);

  int rankCount() const { return int(Mailboxes.size()); }

  Mailbox &mailboxOf(int Rank) {
    assert(Rank >= 0 && Rank < rankCount() && "rank out of range");
    return *Mailboxes[size_t(Rank)];
  }

  /// Cumulative bytes pushed through the fabric (for the benches that
  /// account exchange volume, e.g. the paper's ~120 KB per message figure).
  uint64_t bytesTransferred() const;
  void addBytesTransferred(uint64_t Bytes);

  /// Rendezvous of all ranks; generation-counted so it is reusable. Ranks
  /// marked dead are excluded from the count, so the survivors of a
  /// degraded run still rendezvous.
  void arriveAtBarrier();

  /// Installs the fault hook consulted on every send, plus the clock that
  /// times Delay verdicts and retry backoff. Call before any rank sends
  /// (runThreadEngine's Setup callback runs at the right moment).
  void setSendFaultHook(SendFaultHook Hook, const Clock *TimeSource);

  /// Excludes \p Rank from the barrier count (a crashed rank never
  /// arrives). Idempotent per rank; releases the barrier if the survivors
  /// are already all waiting.
  void markDead(int Rank);

  /// Ranks not marked dead.
  int aliveRankCount() const;

  /// Asks every rank to stop (cooperative; ranks poll stopRequested()).
  void requestStop(StopReason Reason);
  bool stopRequested() const;
  /// OR of every StopReason broadcast so far.
  uint8_t stopReasonBits() const;

  /// Marks the run aborted: the collector died, ranks must skip
  /// finalization. Implies requestStop.
  void requestAbort();
  bool abortRequested() const;

  /// Tears the fabric down while peers may still hold queued messages:
  /// closes every mailbox (waking all blocked receivers) and releases any
  /// barrier waiters, present and future — a rank that reaches the
  /// barrier only after the shutdown passes straight through. After shutdown the rank threads can be joined in
  /// any order without deadlocking — the shutdown-ordering contract the
  /// adversarial-join regression tests pin down.
  void shutdown();

  /// Moves every delayed message whose release time has passed into its
  /// destination mailbox. Called from the communicator's send/receive
  /// paths; harmless when no messages are delayed.
  void pumpDelayedMessages();

  /// Holds \p Held back until the fabric clock reaches \p ReleaseNanos.
  void delayMessage(int Destination, int64_t ReleaseNanos, Message Held);

  /// Attaches observability counters ("comm.messages_sent",
  /// "comm.bytes_sent", and "comm.messages_superseded" once a superseding
  /// send removes a queued message) and the "comm.collector_queue_depth"
  /// gauge (sampled at every send to rank 0 — the §2.2
  /// collector-congestion signal). Call before any rank starts sending.
  void attachMetrics(obs::MetricsRegistry &Registry);

  obs::Counter *messagesSentCounter() const { return MessagesSent; }
  obs::Counter *bytesSentCounter() const { return BytesSent; }
  obs::Counter *sendRetriesCounter() const { return SendRetries; }
  obs::Counter *sendsFailedCounter() const { return SendsFailed; }
  obs::Gauge *collectorQueueDepthGauge() const {
    return CollectorQueueDepth;
  }
  const SendFaultHook &sendFaultHook() const { return FaultHook; }
  const Clock *faultClock() const { return FaultTime; }

private:
  /// A message held back by a Delay verdict.
  struct DelayedMessage {
    int64_t ReleaseNanos = 0;
    int Destination = 0;
    Message Held;
  };

  std::vector<std::unique_ptr<Mailbox>> Mailboxes;
  obs::Counter *MessagesSent = nullptr;
  obs::Counter *BytesSent = nullptr;
  obs::Counter *SendRetries = nullptr;
  obs::Counter *SendsFailed = nullptr;
  obs::Gauge *CollectorQueueDepth = nullptr;
  SendFaultHook FaultHook;
  const Clock *FaultTime = nullptr;
  std::mutex DelayedMutex;
  std::vector<DelayedMessage> Delayed;
  mutable std::mutex BarrierMutex;
  std::condition_variable BarrierRelease;
  int BarrierWaiting = 0;
  int DeadRanks = 0;
  uint64_t BarrierGeneration = 0;
  bool BarrierShutDown = false;
  std::vector<bool> DeadByRank;
  std::atomic<uint64_t> TotalBytes{0};
  std::atomic<bool> StopFlag{false};
  std::atomic<uint8_t> StopBits{0};
  std::atomic<bool> AbortFlag{false};
};

/// A rank's handle to its run: the MPI-communicator equivalent. Abstract
/// so the engine and the collectives are transport-agnostic — the same
/// collector/checkpoint code runs over threads (FabricCommunicator) and
/// over forked processes (the socket transport), and the differential
/// suite holds the two backends byte-identical on estimator output.
class Communicator {
public:
  virtual ~Communicator() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// Asynchronous send: enqueues toward the destination and returns
  /// immediately (the paper's workers never wait on the collector). A
  /// Fail verdict from the fault hook is swallowed — use sendReliable when
  /// the caller needs to see failures.
  void send(int Destination, int Tag, std::vector<uint8_t> Payload) {
    (void)sendReliable(Destination, Tag, std::move(Payload),
                       /*MaxAttempts=*/1, /*BackoffNanos=*/0,
                       /*TimeSource=*/nullptr, /*Supersedes=*/false);
  }

  /// Send with a bounded retry loop: a Fail verdict from the fault hook is
  /// retried up to \p MaxAttempts times total, sleeping \p BackoffNanos on
  /// \p TimeSource between attempts (a ManualClock backoff costs nothing).
  /// Returns the final failure once the attempts are exhausted. Dropped
  /// messages still count as success — a real network loses data without
  /// telling the sender. \p Supersedes marks the message latest-wins
  /// (Message::Supersedes) on either transport.
  [[nodiscard]] virtual Status sendReliable(int Destination, int Tag,
                                            std::vector<uint8_t> Payload,
                                            int MaxAttempts,
                                            int64_t BackoffNanos,
                                            const Clock *TimeSource,
                                            bool Supersedes) = 0;

  /// Non-blocking receive of the oldest message with \p Tag (-1 = any).
  virtual std::optional<Message> tryReceive(int Tag = -1) = 0;

  /// Blocking receive with timeout; empty on timeout. \p TimeSource as in
  /// Mailbox::popWait.
  virtual std::optional<Message> receiveWait(
      int Tag, int64_t TimeoutNanos, const Clock *TimeSource = nullptr) = 0;

  /// True if a message with \p Tag is waiting.
  virtual bool probe(int Tag = -1) = 0;

  /// Blocks until every live rank has arrived.
  virtual void barrier() = 0;

  /// Declares \p Rank dead: it is dropped from barrier rendezvous and
  /// liveness accounting (the collector's straggler declaration, and a
  /// crashing rank's own last act).
  virtual void markDead(int Rank) = 0;

  /// Broadcasts a cooperative stop to every rank of the run, crossing
  /// address spaces under the process transport.
  virtual void requestStop(StopReason Reason) = 0;
  virtual bool stopRequested() const = 0;

  /// Broadcasts "the collector is dead; skip finalization" — the injected
  /// collector crash turning into a whole-job kill.
  virtual void requestAbort() = 0;
  virtual bool abortRequested() const = 0;

  /// Kills the calling rank's host immediately and unrecoverably — under
  /// the process transport, raise(SIGKILL) on the worker process, the
  /// harshest crash the fault suite injects. Not supported (asserts) on
  /// the thread transport, where ranks share the test runner's process.
  [[noreturn]] virtual void crashHard();
};

/// The thread-backed rank handle over a shared Fabric.
class FabricCommunicator final : public Communicator {
public:
  FabricCommunicator(Fabric &SharedFabric, int Rank)
      : SharedFabric(SharedFabric), Rank(Rank) {
    assert(Rank >= 0 && Rank < SharedFabric.rankCount());
  }

  int rank() const override { return Rank; }
  int size() const override { return SharedFabric.rankCount(); }

  [[nodiscard]] Status sendReliable(int Destination, int Tag,
                                    std::vector<uint8_t> Payload,
                                    int MaxAttempts, int64_t BackoffNanos,
                                    const Clock *TimeSource,
                                    bool Supersedes) override;

  std::optional<Message> tryReceive(int Tag = -1) override;
  std::optional<Message> receiveWait(int Tag, int64_t TimeoutNanos,
                                     const Clock *TimeSource = nullptr)
      override;
  bool probe(int Tag = -1) override;
  void barrier() override { SharedFabric.arriveAtBarrier(); }
  void markDead(int DeadRank) override { SharedFabric.markDead(DeadRank); }
  void requestStop(StopReason Reason) override {
    SharedFabric.requestStop(Reason);
  }
  bool stopRequested() const override {
    return SharedFabric.stopRequested();
  }
  void requestAbort() override { SharedFabric.requestAbort(); }
  bool abortRequested() const override {
    return SharedFabric.abortRequested();
  }

  Fabric &fabric() { return SharedFabric; }

private:
  Fabric &SharedFabric;
  int Rank;
};

/// Runs \p RankCount copies of \p Body concurrently, one thread per rank,
/// over a fresh fabric. Returns after every rank finishes. This is the
/// "launch as an MPI job" substitute: rank 0 plays the collector role
/// exactly as in §2.2. \p Setup, when set, runs on the launching thread
/// before any rank starts — the race-free moment to install fabric hooks.
void runThreadEngine(int RankCount,
                     const std::function<void(Communicator &)> &Body,
                     obs::MetricsRegistry *Metrics = nullptr,
                     const std::function<void(Fabric &)> &Setup = {});

/// A joinable group of worker threads; each runs \p Body with its worker
/// index in [0, Count). This is the *intra-rank* fan-out primitive of the
/// threaded realization engine (RunConfig::WorkerThreadsPerRank): worker
/// threads inside one rank hand their results to the rank thread through a
/// Mailbox, never by shared mutable state, so the thread primitive itself
/// lives here in mpsim with the rest of the approved concurrency seam.
/// The spawning thread stays free to service its own loop (rank 0 keeps
/// collecting) and joins when the workers are done.
class WorkerGroup {
public:
  /// Spawns \p Count threads immediately; each thread holds its own copy
  /// of \p Body (state the workers share must be captured by reference and
  /// outlive join()).
  WorkerGroup(int Count, const std::function<void(int)> &Body);

  /// Joins every worker; idempotent. The destructor calls it, so a
  /// WorkerGroup can never outlive its workers' captured state.
  void join();

  ~WorkerGroup() { join(); }

  WorkerGroup(const WorkerGroup &) = delete;
  WorkerGroup &operator=(const WorkerGroup &) = delete;

private:
  std::vector<std::thread> Threads;
};

} // namespace parmonc

#endif // PARMONC_MPSIM_COMMUNICATOR_H
