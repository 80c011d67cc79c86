//===- parmonc/core/CheckpointBridge.h - Shard <-> snapshot glue ----------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns the resume decision (§3.2, res=1) and glues the opaque-payload
/// ckpt store to core's MomentSnapshot world. The store neither parses nor
/// merges moments (it lives below core in the layering DAG); this bridge
/// rebuilds the merged collector snapshot from a committed generation —
/// base first, then every rank shard in ascending rank order, through
/// MomentSnapshot::mergeFrom. That is the collector's own save-time
/// arithmetic replayed in the same order, which makes a sharded restore
/// bit-identical to loading the legacy single-file checkpoint.dat the same
/// run would have written.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_CORE_CHECKPOINTBRIDGE_H
#define PARMONC_CORE_CHECKPOINTBRIDGE_H

#include "parmonc/ckpt/CheckpointStore.h"
#include "parmonc/core/ResultsStore.h"
#include "parmonc/support/Status.h"

namespace parmonc {

/// The state a resumed run starts from.
struct ResumeBase {
  /// Everything earlier runs accumulated, under the resuming run's
  /// sequence number.
  MomentSnapshot Base;
  /// A backup generation was used: manifest.prev, checkpoint.dat.prev, or
  /// checkpoint.dat after every manifest generation was rejected.
  bool ResumedFromBackup = false;
  /// The sharded manifest won the arbitration.
  bool RestoredFromShards = false;
};

/// The resume ladder. A sharded manifest and a legacy checkpoint.dat can
/// coexist — manaver rebuilds checkpoint.dat from the subtotal files after
/// a crash that left mid-run manifests behind — and snapshots are
/// cumulative, so whichever loadable state carries the larger sample
/// volume is the fresher one and wins. Each side falls back to its own
/// previous generation first; a manifest generation is rejected when its
/// manifest, shard bytes or shard *payloads* fail validation. The winner
/// is merged into \p Fresh, the resuming run's empty snapshot, and must
/// match its shape and histogram geometry under a different sequence
/// number.
[[nodiscard]] Result<ResumeBase>
restoreResumeBase(const ResultsStore &Store, const ckpt::CheckpointStore &Ckpt,
                  MomentSnapshot Fresh);

} // namespace parmonc

#endif // PARMONC_CORE_CHECKPOINTBRIDGE_H
