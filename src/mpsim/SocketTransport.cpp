//===- mpsim/SocketTransport.cpp - Ranks as forked processes -------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Star topology: every worker process holds one end of a socket pair whose
// other end lives in the parent. A parent router thread polls the worker
// sockets, delivers worker->rank0 data into rank 0's mailbox, forwards
// worker->worker data, runs the barrier, and fans out stop/abort
// broadcasts. Rank 0 itself runs on the caller's thread in the parent, so
// everything rank 0 computes (collector state, reports, result files) is
// visible to the caller exactly as under the thread transport.
//
// Failure semantics: a worker that exits without a GOODBYE frame is dead —
// the router drops it from barrier accounting on EOF, and teardown decodes
// its waitpid status into the engine report. Frames are CRC-checked; a
// corrupt stream poisons that worker's decoder and is treated as a death,
// never as a partial message.
//
// Latest-wins subtotals (DESIGN.md §11) bypass the socket: a superseding
// message from a worker to rank 0 is copied into that worker's shared
// LatestSlot, and a payload-free LATEST_READY doorbell goes on the socket
// only while no earlier doorbell is outstanding. The router answers a
// doorbell by reading the newest complete value (at most once a
// millisecond per worker), and reads once more when the worker's stream
// ends, so a subtotal published before a SIGKILL still reaches the
// collector. Versions the router never read are counted as
// superseded, exactly as a Mailbox counts the queued ones it replaces.
//
//===----------------------------------------------------------------------===//

#include "parmonc/mpsim/SocketTransport.h"

#include "parmonc/mpsim/Serialize.h"
#include "parmonc/mpsim/Wire.h"
#include "parmonc/support/Contract.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

namespace parmonc {

namespace {

//===----------------------------------------------------------------------===//
// The latest-value slot shared by one worker and the router
//===----------------------------------------------------------------------===//

static_assert(std::atomic<uint64_t>::is_always_lock_free &&
                  std::atomic<uint32_t>::is_always_lock_free,
              "slot atomics must be address-free to work across fork()");

/// One of the slot's two buffers: a seqlock counter (odd while the worker
/// writes), the message it holds, then LatestSlotCapacityBytes of payload.
struct alignas(64) SlotBuffer {
  std::atomic<uint64_t> Sequence{0};
  uint64_t Version = 0;
  int32_t Tag = 0;
  uint32_t Size = 0;

  uint8_t *payload() { return reinterpret_cast<uint8_t *>(this + 1); }
};

/// A complete value read out of a slot.
struct SlotValue {
  uint64_t Version = 0;
  int32_t Tag = 0;
  std::vector<uint8_t> Payload;
};

/// A per-worker MAP_SHARED latest-value register. Version v is written
/// into buffer v % 2 and then named newest by Latest, so the buffer Latest
/// names is never the one being written: a worker killed halfway through a
/// publish leaves the previous complete value readable.
class LatestSlot {
public:
  static constexpr size_t BufferStride =
      sizeof(SlotBuffer) + LatestSlotCapacityBytes;

  static size_t mappingBytes() {
    return sizeof(LatestSlot) + 2 * BufferStride;
  }

  /// Constructs a slot at the start of a fresh mapping of mappingBytes().
  static LatestSlot *createAt(void *Mapping) {
    auto *Slot = new (Mapping) LatestSlot;
    for (int Index = 0; Index < 2; ++Index)
      new (&Slot->buffer(uint64_t(Index))) SlotBuffer;
    return Slot;
  }

  /// Worker side: makes \p Payload (tag \p Tag) the newest value as
  /// version \p Version, one above the previous publish. Returns true
  /// when the caller must ring the doorbell.
  bool publish(uint64_t Version, int32_t Tag,
               const std::vector<uint8_t> &Payload) {
    SlotBuffer &Target = buffer(Version);
    // Seqlock write: the count turns odd with an acquire RMW, so the
    // writes below cannot move ahead of it, and even again with a release
    // RMW, which publishes them.
    Target.Sequence.fetch_add(1, std::memory_order_acquire);
    Target.Version = Version;
    Target.Tag = Tag;
    Target.Size = uint32_t(Payload.size());
    std::memcpy(Target.payload(), Payload.data(), Payload.size());
    Target.Sequence.fetch_add(1, std::memory_order_release);
    Latest.store(Version, std::memory_order_release);
    // Pending is only ever changed by read-modify-writes (this exchange
    // and the router's exchange(0) in takeDoorbell), and an RMW always
    // reads the newest value in the flag's modification order. So:
    //  - if this exchange reads 1, the doorbell that set it is still
    //    unconsumed, and the router's later exchange(0) reads a value
    //    released by this exchange (or a later one of ours): it acquires
    //    the publish above before it reads the slot;
    //  - if it reads 0, the router already consumed every earlier doorbell
    //    and we send a new one, which follows this publish on the socket.
    // Either way no publish is left without a doorbell that reads it, and
    // each doorbell precedes, on the socket, every frame the worker sends
    // after the publish. A plain load and store could read a stale 1 and
    // strand the newest value until the stream ends.
    return Pending.exchange(1, std::memory_order_acq_rel) == 0;
  }

  /// Router side: consumes the outstanding doorbell. The acquire half of
  /// this exchange is what makes the publishes it covers visible.
  void takeDoorbell() { (void)Pending.exchange(0, std::memory_order_acq_rel); }

  /// Router side: copies the newest complete value, or returns nothing
  /// when the worker never published or kept overwriting the buffer
  /// being read. A torn read means a publish ran concurrently with it; that
  /// publish rings its own doorbell (see publish()), or, if the worker
  /// died in it, the previous value is read at end of stream.
  std::optional<SlotValue> readNewest() {
    for (int Attempt = 0; Attempt < 4; ++Attempt) {
      const uint64_t Newest = Latest.load(std::memory_order_acquire);
      if (Newest == 0)
        return std::nullopt;
      SlotBuffer &Source = buffer(Newest);
      const uint64_t Before = Source.Sequence.load(std::memory_order_acquire);
      if (Before & 1)
        continue;
      SlotValue Value;
      Value.Version = Source.Version;
      Value.Tag = Source.Tag;
      const size_t Size =
          std::min<size_t>(Source.Size, LatestSlotCapacityBytes);
      Value.Payload.assign(Source.payload(), Source.payload() + Size);
      // The recheck is a release RMW that changes nothing: the copy above
      // cannot move after it, as it could past a plain load.
      if (Source.Sequence.fetch_add(0, std::memory_order_release) == Before &&
          Value.Version >= Newest)
        return Value;
    }
    return std::nullopt;
  }

private:
  LatestSlot() = default;

  SlotBuffer &buffer(uint64_t Version) {
    auto *Base = reinterpret_cast<uint8_t *>(this + 1);
    return *reinterpret_cast<SlotBuffer *>(Base +
                                           (Version % 2) * BufferStride);
  }

  /// Version of the newest complete value; 0 before the first publish.
  alignas(64) std::atomic<uint64_t> Latest{0};
  /// 1 while a doorbell is on its way to, or queued at, the router.
  alignas(64) std::atomic<uint32_t> Pending{0};
};

static_assert(sizeof(LatestSlot) % alignof(SlotBuffer) == 0 &&
                  LatestSlot::BufferStride % alignof(SlotBuffer) == 0,
              "slot buffers must stay aligned");

/// Maps one slot per worker rank before the first fork, so every child
/// inherits the same shared pages. Unmapped by the destructor (in the
/// parent; children leave through _exit).
class SlotTable {
public:
  explicit SlotTable(int RankCount) : Slots(size_t(RankCount), nullptr) {}
  ~SlotTable() {
    for (LatestSlot *Slot : Slots)
      if (Slot)
        ::munmap(Slot, LatestSlot::mappingBytes());
  }
  SlotTable(const SlotTable &) = delete;
  SlotTable &operator=(const SlotTable &) = delete;

  Status map() {
    for (size_t Rank = 1; Rank < Slots.size(); ++Rank) {
      void *Mapping = ::mmap(nullptr, LatestSlot::mappingBytes(),
                             PROT_READ | PROT_WRITE,
                             MAP_SHARED | MAP_ANONYMOUS, -1, 0);
      if (Mapping == MAP_FAILED)
        return ioError(std::string("mmap() of a latest-value slot failed: ") +
                       std::strerror(errno));
      Slots[Rank] = LatestSlot::createAt(Mapping);
    }
    return Status::ok();
  }

  LatestSlot &of(int Rank) { return *Slots[size_t(Rank)]; }

private:
  std::vector<LatestSlot *> Slots;
};

/// Writes the whole buffer, retrying on EINTR and short writes; suppresses
/// SIGPIPE so a dead peer surfaces as an error, not a process kill.
Status sendAllBytes(int Fd, const uint8_t *Data, size_t Size) {
  size_t Sent = 0;
  while (Sent < Size) {
    const ssize_t Wrote =
        ::send(Fd, Data + Sent, Size - Sent, MSG_NOSIGNAL);
    if (Wrote < 0) {
      if (errno == EINTR)
        continue;
      return ioError(std::string("socket write failed: ") +
                     std::strerror(errno));
    }
    Sent += size_t(Wrote);
  }
  return Status::ok();
}

/// A frame held back by a Delay fault verdict.
struct DelayedFrame {
  int64_t ReleaseNanos = 0;
  Frame Held;
};

/// The mailbox message a Data frame carries; takes its payload over.
Message toMessage(Frame &&Data) {
  return Message{Data.A, Data.C, std::move(Data.Payload), Data.Supersedes};
}

/// Serializes the per-worker GOODBYE diagnostics payload.
std::vector<uint8_t> encodeGoodbye(int64_t FailedSends, int64_t MessagesSent,
                                   int64_t BytesSent) {
  ByteWriter Writer;
  Writer.writeI64(FailedSends);
  Writer.writeI64(MessagesSent);
  Writer.writeI64(BytesSent);
  return Writer.takeBytes();
}

//===----------------------------------------------------------------------===//
// Worker (child-process) side
//===----------------------------------------------------------------------===//

/// The rank handle inside a forked worker: one socket to the parent, a
/// reader thread feeding the local mailbox, and the same fault-hook send
/// semantics as the fabric — consulted per attempt, drop/duplicate/delay
/// handled at this layer so deterministic injectors replay identically
/// across transports.
class ChildCommunicator final : public Communicator {
public:
  ChildCommunicator(int Rank, int Size, int Fd, LatestSlot &Slot,
                    const EngineOptions &Options)
      : Rank(Rank), RankCount(Size), Fd(Fd), Slot(Slot),
        Hook(Options.FaultHook), FaultClock(Options.FaultClock) {}

  void start() {
    Frame Hello;
    Hello.Kind = FrameKind::Hello;
    Hello.A = Rank;
    writeFrame(Hello);
    Reader = std::thread([this] { readerMain(); });
  }

  /// Orderly shutdown: diagnostics to the supervisor. The caller _exits
  /// right after, so the reader thread is never joined — the process
  /// teardown reaps it.
  void sendGoodbye() {
    Frame Goodbye;
    Goodbye.Kind = FrameKind::Goodbye;
    Goodbye.A = Rank;
    Goodbye.Payload = encodeGoodbye(
        FailedSends.load(std::memory_order_relaxed),
        MessagesSent.load(std::memory_order_relaxed),
        BytesSent.load(std::memory_order_relaxed));
    writeFrame(Goodbye);
  }

  int rank() const override { return Rank; }
  int size() const override { return RankCount; }

  Status sendReliable(int Destination, int Tag,
                      std::vector<uint8_t> Payload, int MaxAttempts,
                      int64_t BackoffNanos, const Clock *TimeSource,
                      bool Supersedes) override {
    PARMONC_ASSERT(Destination >= 0 && Destination < RankCount,
                   "destination rank out of range");
    pumpDelayedFrames();

    SendFault Verdict;
    for (int Attempt = 1;; ++Attempt) {
      Verdict = Hook ? Hook(Rank, Destination, Tag) : SendFault{};
      if (Verdict.Act != SendFault::Action::Fail)
        break;
      if (Attempt >= MaxAttempts) {
        FailedSends.fetch_add(1, std::memory_order_relaxed);
        return ioError("send from rank " + std::to_string(Rank) +
                       " to rank " + std::to_string(Destination) +
                       " failed after " + std::to_string(MaxAttempts) +
                       " attempts");
      }
      if (TimeSource)
        TimeSource->sleepNanos(BackoffNanos);
    }

    MessagesSent.fetch_add(1, std::memory_order_relaxed);
    BytesSent.fetch_add(int64_t(Payload.size()),
                        std::memory_order_relaxed);
    if (Verdict.Act == SendFault::Action::Drop)
      return Status::ok(); // the wire ate it; the sender cannot know

    Frame Outgoing;
    Outgoing.Kind = FrameKind::Data;
    Outgoing.A = Rank;
    Outgoing.B = Destination;
    Outgoing.C = Tag;
    Outgoing.Payload = std::move(Payload);
    Outgoing.Supersedes = Supersedes;
    if (Verdict.Act == SendFault::Action::Delay && FaultClock) {
      std::lock_guard<std::mutex> Lock(DelayedMutex);
      Delayed.push_back(DelayedFrame{FaultClock->nowNanos() +
                                         Verdict.DelayNanos,
                                     std::move(Outgoing)});
      return Status::ok();
    }
    if (Verdict.Act == SendFault::Action::Duplicate)
      deliverFrame(Frame(Outgoing));
    deliverFrame(std::move(Outgoing));
    return Status::ok();
  }

  std::optional<Message> tryReceive(int Tag) override {
    pumpDelayedFrames();
    return Inbox.tryPop(Tag);
  }

  std::optional<Message> receiveWait(int Tag, int64_t TimeoutNanos,
                                     const Clock *TimeSource) override {
    pumpDelayedFrames();
    return Inbox.popWait(Tag, TimeoutNanos, TimeSource);
  }

  bool probe(int Tag) override {
    pumpDelayedFrames();
    return Inbox.contains(Tag);
  }

  void barrier() override {
    const uint64_t Target = ++BarrierArrivals;
    Frame Arrive;
    Arrive.Kind = FrameKind::BarrierArrive;
    Arrive.A = Rank;
    writeFrame(Arrive);
    std::unique_lock<std::mutex> Lock(BarrierMutex);
    BarrierCv.wait(Lock, [this, Target] {
      return ReleasesSeen >= Target || ParentGone;
    });
  }

  void markDead(int DeadRank) override {
    Frame Death;
    Death.Kind = FrameKind::Dead;
    Death.A = DeadRank;
    writeFrame(Death);
  }

  void requestStop(StopReason Reason) override {
    StopBits.fetch_or(uint8_t(Reason), std::memory_order_relaxed);
    StopFlag.store(true, std::memory_order_relaxed);
    Frame Stop;
    Stop.Kind = FrameKind::Stop;
    Stop.A = int32_t(uint8_t(Reason));
    writeFrame(Stop); // the router rebroadcasts to every other rank
  }

  bool stopRequested() const override {
    return StopFlag.load(std::memory_order_relaxed);
  }

  void requestAbort() override {
    AbortFlag.store(true, std::memory_order_relaxed);
    StopFlag.store(true, std::memory_order_relaxed);
    Frame Abort;
    Abort.Kind = FrameKind::Abort;
    Abort.A = Rank;
    writeFrame(Abort);
  }

  bool abortRequested() const override {
    return AbortFlag.load(std::memory_order_relaxed);
  }

  [[noreturn]] void crashHard() override {
    // The harshest injected fault: the worker process dies on the spot,
    // exactly like a node loss — no goodbye, no flush, no destructors.
    ::raise(SIGKILL);
    ::_exit(137); // unreachable unless SIGKILL is somehow blocked
  }

private:
  void deliverFrame(Frame Outgoing) {
    if (Outgoing.B == Rank) {
      // Self-delivery never crosses the wire, mirroring the fabric.
      Inbox.push(toMessage(std::move(Outgoing)));
      return;
    }
    if (Outgoing.B == 0 && Outgoing.Supersedes && publishLatest(Outgoing))
      return;
    writeFrame(Outgoing);
  }

  /// Hands a superseding rank-0 message to the slot instead of the socket
  /// and rings the doorbell if none is outstanding. The slot serves the
  /// first superseding tag only; other tags, and — from the first one on —
  /// payloads larger than the slot, keep to the socket, so each tag's
  /// messages still reach the router in send order. Returns false when the
  /// frame must go on the socket.
  bool publishLatest(const Frame &Outgoing) {
    std::lock_guard<std::mutex> Lock(SlotMutex);
    if (SlotTag < 0 && !SlotRetired)
      SlotTag = Outgoing.C;
    if (SlotRetired || Outgoing.C != SlotTag)
      return false;
    if (Outgoing.Payload.size() > LatestSlotCapacityBytes) {
      SlotRetired = true;
      return false;
    }
    if (Slot.publish(++SlotVersion, Outgoing.C, Outgoing.Payload)) {
      Frame Doorbell;
      Doorbell.Kind = FrameKind::LatestReady;
      Doorbell.A = Rank;
      writeFrame(Doorbell);
    }
    return true;
  }

  void pumpDelayedFrames() {
    if (!FaultClock)
      return;
    std::vector<DelayedFrame> Due;
    {
      std::lock_guard<std::mutex> Lock(DelayedMutex);
      if (Delayed.empty())
        return;
      const int64_t Now = FaultClock->nowNanos();
      auto FirstDue = std::partition(
          Delayed.begin(), Delayed.end(),
          [Now](const DelayedFrame &Held) { return Held.ReleaseNanos > Now; });
      Due.assign(std::make_move_iterator(FirstDue),
                 std::make_move_iterator(Delayed.end()));
      Delayed.erase(FirstDue, Delayed.end());
    }
    for (DelayedFrame &Release : Due)
      deliverFrame(std::move(Release.Held));
  }

  void writeFrame(const Frame &Outgoing) {
    const std::vector<uint8_t> Encoded = encodeFrame(Outgoing);
    std::lock_guard<std::mutex> Lock(WriteMutex);
    (void)sendAllBytes(Fd, Encoded.data(), Encoded.size());
  }

  void readerMain() {
    FrameDecoder Decoder;
    uint8_t Chunk[65536];
    bool Corrupt = false;
    for (;;) {
      const ssize_t Got = ::read(Fd, Chunk, sizeof(Chunk));
      if (Got < 0 && errno == EINTR)
        continue;
      if (Got <= 0)
        break; // parent closed the socket: the run is over
      Decoder.feed(Chunk, size_t(Got));
      for (;;) {
        Result<std::optional<Frame>> Next = Decoder.next();
        if (!Next) {
          Corrupt = true; // unrecoverable framing error: treat as EOF
          break;
        }
        if (!Next.value())
          break;
        dispatch(std::move(*Next.value()));
      }
      if (Corrupt)
        break;
    }
    // Parent gone (or stream corrupt): wake everyone so the worker can
    // wind down instead of blocking on messages that will never come.
    AbortFlag.store(true, std::memory_order_relaxed);
    StopFlag.store(true, std::memory_order_relaxed);
    Inbox.close();
    {
      std::lock_guard<std::mutex> Lock(BarrierMutex);
      ParentGone = true;
    }
    BarrierCv.notify_all();
  }

  void dispatch(Frame &&Incoming) {
    switch (Incoming.Kind) {
    case FrameKind::Data:
      Inbox.push(toMessage(std::move(Incoming)));
      break;
    case FrameKind::BarrierRelease: {
      {
        std::lock_guard<std::mutex> Lock(BarrierMutex);
        ++ReleasesSeen;
      }
      BarrierCv.notify_all();
      break;
    }
    case FrameKind::Stop:
      StopBits.fetch_or(uint8_t(Incoming.A), std::memory_order_relaxed);
      StopFlag.store(true, std::memory_order_relaxed);
      break;
    case FrameKind::Abort:
      AbortFlag.store(true, std::memory_order_relaxed);
      StopFlag.store(true, std::memory_order_relaxed);
      break;
    default:
      break; // Hello/Goodbye/Dead/BarrierArrive are root-bound frames
    }
  }

  const int Rank;
  const int RankCount;
  const int Fd;
  LatestSlot &Slot;
  const SendFaultHook Hook;
  const Clock *FaultClock;

  Mailbox Inbox;
  std::mutex WriteMutex;
  std::thread Reader;

  std::mutex SlotMutex;
  int32_t SlotTag = -1;     // the superseding tag the slot serves
  bool SlotRetired = false; // an oversized payload sent it to the socket
  uint64_t SlotVersion = 0; // versions published so far

  std::atomic<bool> StopFlag{false};
  std::atomic<uint8_t> StopBits{0};
  std::atomic<bool> AbortFlag{false};

  std::mutex BarrierMutex;
  std::condition_variable BarrierCv;
  uint64_t ReleasesSeen = 0;
  uint64_t BarrierArrivals = 0; // only the rank thread calls barrier()
  bool ParentGone = false;

  std::mutex DelayedMutex;
  std::vector<DelayedFrame> Delayed;

  std::atomic<int64_t> FailedSends{0};
  std::atomic<int64_t> MessagesSent{0};
  std::atomic<int64_t> BytesSent{0};
};

//===----------------------------------------------------------------------===//
// Root (parent-process) side
//===----------------------------------------------------------------------===//

/// Everything the parent's rank-0 communicator and the router thread
/// share. Barrier and liveness live under one mutex; per-worker socket
/// writes are serialized by per-channel mutexes so the router can forward
/// while rank 0 sends.
struct RouterState {
  explicit RouterState(int RankCount)
      : RankCount(RankCount), ChildFd(size_t(RankCount), -1),
        FdOpen(size_t(RankCount), 0), Dead(size_t(RankCount), false),
        GoodbyeSeen(size_t(RankCount), false),
        WriteMutexes(size_t(RankCount)) {
    for (auto &MutexPtr : WriteMutexes)
      MutexPtr = std::make_unique<std::mutex>();
    Diagnostics.resize(size_t(RankCount));
    for (int Rank = 0; Rank < RankCount; ++Rank)
      Diagnostics[size_t(Rank)].Rank = Rank;
  }

  const int RankCount;
  std::vector<int> ChildFd;
  // Guarded by the matching write mutex. Bytes, not std::vector<bool>:
  // packed bits would share a word across ranks whose mutexes differ.
  std::vector<uint8_t> FdOpen;
  Mailbox RootInbox;

  std::mutex Mutex; // barrier + liveness
  std::condition_variable BarrierCv;
  int Arrived = 0;
  uint64_t Generation = 0;
  std::vector<bool> Dead;
  int DeadCount = 0;

  std::atomic<bool> StopFlag{false};
  std::atomic<uint8_t> StopBits{0};
  std::atomic<bool> AbortFlag{false};
  std::atomic<uint64_t> BytesTransferred{0};

  std::vector<bool> GoodbyeSeen; // router thread only
  std::vector<ProcessRankStatus> Diagnostics;
  std::vector<std::unique_ptr<std::mutex>> WriteMutexes;

  SlotTable *Slots = nullptr;
  obs::MetricsRegistry *Metrics = nullptr;
  obs::Counter *FramesRouted = nullptr;
  obs::Counter *BytesRouted = nullptr;
  obs::Counter *UnexpectedExits = nullptr;
  obs::Counter *Goodbyes = nullptr;
  obs::Counter *StopBroadcasts = nullptr;
  obs::Gauge *CollectorQueueDepth = nullptr;

  /// Writes one encoded frame to worker \p Rank; silently drops it when
  /// the channel is already closed (the peer is dead — same outcome as a
  /// fabric message to a mailbox nobody drains).
  void writeToRank(int Rank, const std::vector<uint8_t> &Encoded) {
    std::lock_guard<std::mutex> Lock(*WriteMutexes[size_t(Rank)]);
    if (!FdOpen[size_t(Rank)])
      return;
    (void)sendAllBytes(ChildFd[size_t(Rank)], Encoded.data(),
                       Encoded.size());
  }

  void closeChannel(int Rank) {
    std::lock_guard<std::mutex> Lock(*WriteMutexes[size_t(Rank)]);
    if (!FdOpen[size_t(Rank)])
      return;
    FdOpen[size_t(Rank)] = 0;
    ::close(ChildFd[size_t(Rank)]);
    ChildFd[size_t(Rank)] = -1;
  }

  /// Broadcast to every open worker channel.
  void broadcastFrame(const Frame &Outgoing) {
    const std::vector<uint8_t> Encoded = encodeFrame(Outgoing);
    for (int Rank = 1; Rank < RankCount; ++Rank)
      writeToRank(Rank, Encoded);
    if (StopBroadcasts)
      StopBroadcasts->add();
  }

  /// Opens the barrier: bump the generation for the root waiter and send
  /// a release frame to every live worker. Caller holds Mutex.
  void releaseBarrierLocked() {
    Arrived = 0;
    ++Generation;
    BarrierCv.notify_all();
    Frame Release;
    Release.Kind = FrameKind::BarrierRelease;
    const std::vector<uint8_t> Encoded = encodeFrame(Release);
    for (int Rank = 1; Rank < RankCount; ++Rank)
      if (!Dead[size_t(Rank)])
        writeToRank(Rank, Encoded);
  }

  /// One rank reached the barrier. Caller holds Mutex.
  void arriveLocked() {
    if (++Arrived >= RankCount - DeadCount)
      releaseBarrierLocked();
  }

  /// Caller holds Mutex.
  void markDeadLocked(int Rank) {
    if (Rank < 0 || Rank >= RankCount || Dead[size_t(Rank)])
      return;
    Dead[size_t(Rank)] = true;
    ++DeadCount;
    // The death may have been the barrier's missing arrival.
    if (Arrived > 0 && Arrived >= RankCount - DeadCount)
      releaseBarrierLocked();
  }

  /// Queues a Data frame addressed to rank 0 in its inbox.
  void deliverToRoot(Frame &&Incoming) {
    RootInbox.push(toMessage(std::move(Incoming)));
    if (CollectorQueueDepth)
      CollectorQueueDepth->set(double(RootInbox.pendingCount()));
  }

  void noteStop(uint8_t ReasonBits) {
    StopBits.fetch_or(ReasonBits, std::memory_order_relaxed);
    StopFlag.store(true, std::memory_order_relaxed);
  }
};

/// Rank 0's communicator: local mailbox fed by the router; sends go
/// straight onto the destination worker's socket.
class RootCommunicator final : public Communicator {
public:
  RootCommunicator(RouterState &State, const EngineOptions &Options)
      : State(State), Hook(Options.FaultHook),
        FaultClock(Options.FaultClock) {
    if (Options.Metrics) {
      MessagesSent = &Options.Metrics->counter("comm.messages_sent");
      BytesSent = &Options.Metrics->counter("comm.bytes_sent");
      SendRetries = &Options.Metrics->counter("comm.send_retries");
      SendsFailed = &Options.Metrics->counter("comm.sends_failed");
    }
  }

  int rank() const override { return 0; }
  int size() const override { return State.RankCount; }

  Status sendReliable(int Destination, int Tag,
                      std::vector<uint8_t> Payload, int MaxAttempts,
                      int64_t BackoffNanos, const Clock *TimeSource,
                      bool Supersedes) override {
    PARMONC_ASSERT(Destination >= 0 && Destination < State.RankCount,
                   "destination rank out of range");
    pumpDelayedFrames();

    SendFault Verdict;
    for (int Attempt = 1;; ++Attempt) {
      Verdict = Hook ? Hook(0, Destination, Tag) : SendFault{};
      if (Verdict.Act != SendFault::Action::Fail)
        break;
      if (Attempt >= MaxAttempts) {
        if (SendsFailed)
          SendsFailed->add();
        return ioError("send from rank 0 to rank " +
                       std::to_string(Destination) + " failed after " +
                       std::to_string(MaxAttempts) + " attempts");
      }
      if (SendRetries)
        SendRetries->add();
      if (TimeSource)
        TimeSource->sleepNanos(BackoffNanos);
    }

    if (MessagesSent)
      MessagesSent->add();
    if (BytesSent)
      BytesSent->add(int64_t(Payload.size()));
    if (Verdict.Act == SendFault::Action::Drop)
      return Status::ok();
    State.BytesTransferred.fetch_add(Payload.size(),
                                     std::memory_order_relaxed);

    Frame Outgoing;
    Outgoing.Kind = FrameKind::Data;
    Outgoing.A = 0;
    Outgoing.B = Destination;
    Outgoing.C = Tag;
    Outgoing.Payload = std::move(Payload);
    Outgoing.Supersedes = Supersedes;
    if (Verdict.Act == SendFault::Action::Delay && FaultClock) {
      std::lock_guard<std::mutex> Lock(DelayedMutex);
      Delayed.push_back(DelayedFrame{FaultClock->nowNanos() +
                                         Verdict.DelayNanos,
                                     std::move(Outgoing)});
      return Status::ok();
    }
    if (Verdict.Act == SendFault::Action::Duplicate)
      deliverFrame(Frame(Outgoing));
    deliverFrame(std::move(Outgoing));
    return Status::ok();
  }

  std::optional<Message> tryReceive(int Tag) override {
    pumpDelayedFrames();
    return State.RootInbox.tryPop(Tag);
  }

  std::optional<Message> receiveWait(int Tag, int64_t TimeoutNanos,
                                     const Clock *TimeSource) override {
    pumpDelayedFrames();
    return State.RootInbox.popWait(Tag, TimeoutNanos, TimeSource);
  }

  bool probe(int Tag) override {
    pumpDelayedFrames();
    return State.RootInbox.contains(Tag);
  }

  void barrier() override {
    std::unique_lock<std::mutex> Lock(State.Mutex);
    const uint64_t MyGeneration = State.Generation;
    State.arriveLocked();
    if (State.Generation != MyGeneration)
      return; // this arrival completed the rendezvous
    State.BarrierCv.wait(Lock, [this, MyGeneration] {
      return State.Generation != MyGeneration;
    });
  }

  void markDead(int DeadRank) override {
    std::lock_guard<std::mutex> Lock(State.Mutex);
    State.markDeadLocked(DeadRank);
  }

  void requestStop(StopReason Reason) override {
    State.noteStop(uint8_t(Reason));
    Frame Stop;
    Stop.Kind = FrameKind::Stop;
    Stop.A = int32_t(uint8_t(Reason));
    State.broadcastFrame(Stop);
  }

  bool stopRequested() const override {
    return State.StopFlag.load(std::memory_order_relaxed);
  }

  void requestAbort() override {
    State.AbortFlag.store(true, std::memory_order_relaxed);
    State.StopFlag.store(true, std::memory_order_relaxed);
    Frame Abort;
    Abort.Kind = FrameKind::Abort;
    State.broadcastFrame(Abort);
  }

  bool abortRequested() const override {
    return State.AbortFlag.load(std::memory_order_relaxed);
  }

private:
  void deliverFrame(Frame Outgoing) {
    if (Outgoing.B == 0) {
      State.deliverToRoot(std::move(Outgoing));
      return;
    }
    State.writeToRank(Outgoing.B, encodeFrame(Outgoing));
  }

  void pumpDelayedFrames() {
    if (!FaultClock)
      return;
    std::vector<DelayedFrame> Due;
    {
      std::lock_guard<std::mutex> Lock(DelayedMutex);
      if (Delayed.empty())
        return;
      const int64_t Now = FaultClock->nowNanos();
      auto FirstDue = std::partition(
          Delayed.begin(), Delayed.end(),
          [Now](const DelayedFrame &Held) { return Held.ReleaseNanos > Now; });
      Due.assign(std::make_move_iterator(FirstDue),
                 std::make_move_iterator(Delayed.end()));
      Delayed.erase(FirstDue, Delayed.end());
    }
    for (DelayedFrame &Release : Due)
      deliverFrame(std::move(Release.Held));
  }

  RouterState &State;
  const SendFaultHook Hook;
  const Clock *FaultClock;
  std::mutex DelayedMutex;
  std::vector<DelayedFrame> Delayed;
  obs::Counter *MessagesSent = nullptr;
  obs::Counter *BytesSent = nullptr;
  obs::Counter *SendRetries = nullptr;
  obs::Counter *SendsFailed = nullptr;
};

/// The parent's router/supervisor loop: polls worker sockets until every
/// channel reached EOF, dispatching frames as they complete.
void routerMain(RouterState &State) {
  std::vector<FrameDecoder> Decoders(size_t(State.RankCount));
  std::vector<bool> StreamDone(size_t(State.RankCount), false);
  for (int Rank = 1; Rank < State.RankCount; ++Rank)
    if (State.ChildFd[size_t(Rank)] < 0)
      StreamDone[size_t(Rank)] = true;

  // Per worker, the newest slot version already handed to rank 0.
  std::vector<uint64_t> SlotDelivered(size_t(State.RankCount), 0);
  // A worker's slot is read at most once per SlotReadIntervalNanos. A
  // doorbell that comes sooner is held: its Pending flag stays set, so the
  // worker rings no more, and it is serviced once the interval has passed
  // or before the next frame of that worker, which keeps send order.
  constexpr int64_t SlotReadIntervalNanos = 1'000'000;
  const auto steadyNanos = [] {
    return int64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now().time_since_epoch())
                       .count());
  };
  std::vector<int64_t> NextSlotRead(size_t(State.RankCount), 0);
  std::vector<bool> DoorbellHeld(size_t(State.RankCount), false);
  auto drainSlot = [&](int Rank) {
    std::optional<SlotValue> Newest = State.Slots->of(Rank).readNewest();
    uint64_t &Delivered = SlotDelivered[size_t(Rank)];
    if (!Newest || Newest->Version <= Delivered)
      return;
    // Every version between the last delivered one and this one was
    // replaced before anyone read it: the slot's share of latest-wins.
    const uint64_t Skipped = Newest->Version - Delivered - 1;
    Delivered = Newest->Version;
    if (Skipped > 0 && State.Metrics)
      State.Metrics->counter("comm.messages_superseded").add(int64_t(Skipped));
    if (State.BytesRouted)
      State.BytesRouted->add(int64_t(Newest->Payload.size()));
    State.BytesTransferred.fetch_add(Newest->Payload.size(),
                                     std::memory_order_relaxed);
    Frame Subtotal;
    Subtotal.A = Rank;
    Subtotal.C = Newest->Tag;
    Subtotal.Payload = std::move(Newest->Payload);
    Subtotal.Supersedes = true;
    State.deliverToRoot(std::move(Subtotal));
  };
  auto answerDoorbell = [&](int Rank) {
    DoorbellHeld[size_t(Rank)] = false;
    State.Slots->of(Rank).takeDoorbell();
    drainSlot(Rank);
    NextSlotRead[size_t(Rank)] = steadyNanos() + SlotReadIntervalNanos;
  };

  auto handleDeath = [&](int Rank) {
    StreamDone[size_t(Rank)] = true;
    // The stream has ended, so nothing more will be published: hand over
    // the last complete value, as a subtotal already queued in the socket
    // would have been — before the death is declared.
    DoorbellHeld[size_t(Rank)] = false;
    drainSlot(Rank);
    if (!State.GoodbyeSeen[size_t(Rank)]) {
      // Died without the orderly-shutdown frame: a real crash. Keep the
      // run alive — drop the rank from barriers so survivors rendezvous
      // and the collector's straggler deadline can declare it dead.
      if (State.UnexpectedExits)
        State.UnexpectedExits->add();
      std::lock_guard<std::mutex> Lock(State.Mutex);
      State.markDeadLocked(Rank);
    }
    State.closeChannel(Rank);
  };

  auto dispatch = [&](int Source, Frame &&Incoming) {
    if (State.FramesRouted)
      State.FramesRouted->add();
    if (DoorbellHeld[size_t(Source)])
      answerDoorbell(Source); // what the worker published came first
    switch (Incoming.Kind) {
    case FrameKind::Hello:
      break; // liveness is implied by the open stream
    case FrameKind::Data:
      if (State.BytesRouted)
        State.BytesRouted->add(int64_t(Incoming.Payload.size()));
      State.BytesTransferred.fetch_add(Incoming.Payload.size(),
                                       std::memory_order_relaxed);
      if (Incoming.B == 0)
        State.deliverToRoot(std::move(Incoming));
      else
        State.writeToRank(Incoming.B, encodeFrame(Incoming));
      break;
    case FrameKind::LatestReady:
      if (steadyNanos() >= NextSlotRead[size_t(Source)])
        answerDoorbell(Source);
      else
        DoorbellHeld[size_t(Source)] = true;
      break;
    case FrameKind::BarrierArrive: {
      std::lock_guard<std::mutex> Lock(State.Mutex);
      State.arriveLocked();
      break;
    }
    case FrameKind::Dead: {
      std::lock_guard<std::mutex> Lock(State.Mutex);
      State.markDeadLocked(Incoming.A);
      break;
    }
    case FrameKind::Stop: {
      State.noteStop(uint8_t(Incoming.A));
      Frame Stop = Incoming;
      State.broadcastFrame(Stop);
      break;
    }
    case FrameKind::Abort: {
      State.AbortFlag.store(true, std::memory_order_relaxed);
      State.StopFlag.store(true, std::memory_order_relaxed);
      Frame Abort;
      Abort.Kind = FrameKind::Abort;
      State.broadcastFrame(Abort);
      break;
    }
    case FrameKind::Goodbye: {
      State.GoodbyeSeen[size_t(Source)] = true;
      if (State.Goodbyes)
        State.Goodbyes->add();
      ProcessRankStatus &Diag = State.Diagnostics[size_t(Source)];
      Diag.GoodbyeReceived = true;
      ByteReader Reader(Incoming.Payload);
      if (Result<int64_t> Value = Reader.readI64())
        Diag.FailedSends = Value.value();
      if (Result<int64_t> Value = Reader.readI64())
        Diag.MessagesSent = Value.value();
      if (Result<int64_t> Value = Reader.readI64())
        Diag.BytesSent = Value.value();
      break;
    }
    case FrameKind::BarrierRelease:
      break; // root-originated only; a worker never sends this
    }
  };

  uint8_t Chunk[65536];
  for (;;) {
    std::vector<pollfd> Polled;
    std::vector<int> PolledRank;
    for (int Rank = 1; Rank < State.RankCount; ++Rank) {
      if (StreamDone[size_t(Rank)])
        continue;
      Polled.push_back(pollfd{State.ChildFd[size_t(Rank)], POLLIN, 0});
      PolledRank.push_back(Rank);
    }
    if (Polled.empty())
      return; // every worker stream closed: the run is over
    // Wake for the earliest held doorbell, or every 100 ms.
    int64_t WakeNanos = steadyNanos() + 100'000'000;
    for (int Rank = 1; Rank < State.RankCount; ++Rank)
      if (DoorbellHeld[size_t(Rank)])
        WakeNanos = std::min(WakeNanos, NextSlotRead[size_t(Rank)]);
    const int TimeoutMillis = int(std::max<int64_t>(
        0, (WakeNanos - steadyNanos() + 999'999) / 1'000'000));
    const int Ready =
        ::poll(Polled.data(), nfds_t(Polled.size()), TimeoutMillis);
    for (int Rank = 1; Rank < State.RankCount; ++Rank)
      if (DoorbellHeld[size_t(Rank)] &&
          steadyNanos() >= NextSlotRead[size_t(Rank)])
        answerDoorbell(Rank);
    if (Ready < 0) {
      if (errno == EINTR)
        continue;
      return; // poll itself failing is unrecoverable
    }
    for (size_t Index = 0; Index < Polled.size(); ++Index) {
      if ((Polled[Index].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
        continue;
      const int Rank = PolledRank[Index];
      const ssize_t Got =
          ::read(State.ChildFd[size_t(Rank)], Chunk, sizeof(Chunk));
      if (Got < 0 && errno == EINTR)
        continue;
      if (Got <= 0) {
        handleDeath(Rank);
        continue;
      }
      FrameDecoder &Decoder = Decoders[size_t(Rank)];
      Decoder.feed(Chunk, size_t(Got));
      bool Corrupt = false;
      for (;;) {
        Result<std::optional<Frame>> Next = Decoder.next();
        if (!Next) {
          Corrupt = true; // framing error: the stream is unusable
          break;
        }
        if (!Next.value())
          break;
        dispatch(Rank, std::move(*Next.value()));
      }
      if (Corrupt)
        handleDeath(Rank);
    }
  }
}

} // namespace

Result<EngineReport>
runProcessEngine(int RankCount,
                 const std::function<void(Communicator &)> &Body,
                 const EngineOptions &Options) {
  if (RankCount < 1)
    return invalidArgument("engine needs at least one rank");

  RouterState State(RankCount);
  SlotTable Slots(RankCount);
  if (Status Mapped = Slots.map(); !Mapped)
    return Mapped;
  State.Slots = &Slots;
  State.Metrics = Options.Metrics;
  if (Options.Metrics) {
    State.FramesRouted = &Options.Metrics->counter("transport.frames_routed");
    State.BytesRouted = &Options.Metrics->counter("transport.bytes_routed");
    State.UnexpectedExits =
        &Options.Metrics->counter("transport.unexpected_exits");
    State.Goodbyes = &Options.Metrics->counter("transport.goodbyes");
    State.StopBroadcasts =
        &Options.Metrics->counter("transport.stop_broadcasts");
    State.CollectorQueueDepth =
        &Options.Metrics->gauge("comm.collector_queue_depth");
    State.RootInbox.countSupersededIn(Options.Metrics);
  }

  // One socket pair per worker, all created before the first fork so
  // every child can close exactly the descriptors it must not hold.
  std::vector<std::array<int, 2>> Pairs(size_t(RankCount), {-1, -1});
  for (int Rank = 1; Rank < RankCount; ++Rank) {
    int Fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0) {
      const Status Failed = ioError(
          std::string("socketpair() failed: ") + std::strerror(errno));
      for (int Opened = 1; Opened < Rank; ++Opened) {
        ::close(Pairs[size_t(Opened)][0]);
        ::close(Pairs[size_t(Opened)][1]);
      }
      return Failed;
    }
    Pairs[size_t(Rank)] = {Fds[0], Fds[1]}; // [0] parent end, [1] child end
  }

  std::vector<pid_t> Pids(size_t(RankCount), -1);
  for (int Rank = 1; Rank < RankCount; ++Rank) {
    const pid_t Pid = ::fork();
    if (Pid < 0) {
      const Status Failed =
          ioError(std::string("fork() failed: ") + std::strerror(errno));
      for (int Forked = 1; Forked < Rank; ++Forked) {
        ::kill(Pids[size_t(Forked)], SIGKILL);
        int Ignored = 0;
        ::waitpid(Pids[size_t(Forked)], &Ignored, 0);
      }
      for (int Opened = 1; Opened < RankCount; ++Opened) {
        ::close(Pairs[size_t(Opened)][0]);
        ::close(Pairs[size_t(Opened)][1]);
      }
      return Failed;
    }
    if (Pid == 0) {
      // Worker process for this rank: keep only our own child-side end.
      for (int Other = 1; Other < RankCount; ++Other) {
        ::close(Pairs[size_t(Other)][0]);
        if (Other != Rank)
          ::close(Pairs[size_t(Other)][1]);
      }
      ChildCommunicator Self(Rank, RankCount, Pairs[size_t(Rank)][1],
                             Slots.of(Rank), Options);
      Self.start();
      Body(Self);
      Self.sendGoodbye();
      // Never return into the caller (a test harness would re-run its
      // epilogue once per worker); skip destructors and exit now. The
      // reader thread dies with the process.
      ::_exit(0);
    }
    Pids[size_t(Rank)] = Pid;
  }
  for (int Rank = 1; Rank < RankCount; ++Rank) {
    ::close(Pairs[size_t(Rank)][1]); // child ends belong to the children
    State.ChildFd[size_t(Rank)] = Pairs[size_t(Rank)][0];
    State.FdOpen[size_t(Rank)] = 1;
  }

  std::thread Router;
  if (RankCount > 1)
    Router = std::thread([&State] { routerMain(State); });

  RootCommunicator Root(State, Options);
  Body(Root);

  // Supervised teardown: wait for each worker to exit on its own within
  // the grace period, then escalate to SIGKILL so a wedged worker cannot
  // hang the run. Reaping closes the worker's socket end, which is what
  // terminates the router loop.
  const auto Deadline =
      std::chrono::steady_clock::now() +
      std::chrono::nanoseconds(Options.TeardownGraceNanos);
  for (int Rank = 1; Rank < RankCount; ++Rank) {
    ProcessRankStatus &Diag = State.Diagnostics[size_t(Rank)];
    int WaitStatus = 0;
    for (;;) {
      const pid_t Reaped =
          ::waitpid(Pids[size_t(Rank)], &WaitStatus, WNOHANG);
      if (Reaped == Pids[size_t(Rank)])
        break;
      if (Reaped < 0 && errno != EINTR)
        break; // already reaped or unwaitable; nothing more to learn
      if (std::chrono::steady_clock::now() >= Deadline) {
        ::kill(Pids[size_t(Rank)], SIGKILL);
        ::waitpid(Pids[size_t(Rank)], &WaitStatus, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (WIFEXITED(WaitStatus)) {
      Diag.ExitCode = WEXITSTATUS(WaitStatus);
      Diag.ExitedCleanly = Diag.ExitCode == 0;
    } else if (WIFSIGNALED(WaitStatus)) {
      Diag.Signaled = true;
      Diag.Signal = WTERMSIG(WaitStatus);
    }
  }
  if (Router.joinable())
    Router.join();
  for (int Rank = 1; Rank < RankCount; ++Rank)
    State.closeChannel(Rank);

  EngineReport Report;
  const uint8_t Bits = State.StopBits.load(std::memory_order_relaxed);
  Report.StopOnTimeLimit = (Bits & uint8_t(StopReason::TimeLimit)) != 0;
  Report.StopOnErrorTarget = (Bits & uint8_t(StopReason::ErrorTarget)) != 0;
  Report.BytesTransferred =
      State.BytesTransferred.load(std::memory_order_relaxed);
  for (int Rank = 1; Rank < RankCount; ++Rank) {
    Report.Ranks.push_back(State.Diagnostics[size_t(Rank)]);
    Report.ChildFailedSends += State.Diagnostics[size_t(Rank)].FailedSends;
  }
  return Report;
}

} // namespace parmonc
