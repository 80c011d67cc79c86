//===- parmonc/mpsim/SocketTransport.h - Ranks as forked processes --------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Processes transport: rank 0 stays in the calling process; ranks
/// 1..N-1 are forked worker processes, each connected to the parent by one
/// Unix-domain socket pair carrying the CRC-framed messages of
/// mpsim/Wire.h in a star topology. A router thread in the parent moves
/// worker frames to their destinations (rank 0's mailbox, or another
/// worker's socket), runs the barrier, fans out stop/abort broadcasts, and
/// supervises the children: HELLO on start, GOODBYE with diagnostics on
/// orderly exit, EOF without GOODBYE = unexpected death (the rank is
/// marked dead so barriers and degraded collection keep working), waitpid
/// reaping with a grace period and SIGKILL escalation on teardown.
///
/// Superseding messages from a worker to rank 0 (Message::Supersedes, the
/// engine's cumulative subtotals) do not cross the socket: each worker
/// owns a shared-memory latest-value slot mapped before the fork, and the
/// socket carries only a LatestReady doorbell while none is outstanding.
/// The router delivers the newest complete value on the doorbell and again
/// when the worker's stream ends, so a published subtotal survives the
/// worker's SIGKILL. See DESIGN.md §11.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_MPSIM_SOCKETTRANSPORT_H
#define PARMONC_MPSIM_SOCKETTRANSPORT_H

#include "parmonc/mpsim/Engine.h"

#include <cstddef>

namespace parmonc {

/// Largest superseding payload a worker's latest-value slot holds; a
/// larger one, and from then on every message of its tag, travels as a
/// socket frame instead. Pages of the slot are touched only as far as the
/// payloads reach.
inline constexpr size_t LatestSlotCapacityBytes = size_t(1) << 20;

/// Hosts \p RankCount ranks with rank 0 on the calling thread and every
/// other rank as a forked process. Returns after rank 0's body finished
/// and all workers were reaped; per-worker exit diagnostics land in the
/// report. Fails with a Status if the process fleet cannot be launched.
[[nodiscard]] Result<EngineReport>
runProcessEngine(int RankCount,
                 const std::function<void(Communicator &)> &Body,
                 const EngineOptions &Options = {});

} // namespace parmonc

#endif // PARMONC_MPSIM_SOCKETTRANSPORT_H
