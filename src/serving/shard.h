// Shard state and its single mutation surface.
//
// A shard is one lock domain of the PredictionService: the canonical
// item map (guarded by `mu`), plus -- in async-ingest mode -- the
// bounded MPSC ingest queue, the dedicated applier thread that drains
// it, and the epoch-protected immutable `ShardView` snapshot that
// queries read without taking any lock.
//
// Items are held by shared_ptr so publication is copy-on-write: the
// applier clones an item before mutating it whenever a published view
// still references it (use_count > 1), so a view, once published, is
// frozen.  In sync mode no view is ever built, every use_count stays 1,
// and the apply helpers mutate in place -- bit-for-bit the old behavior
// at the old cost.
//
// MUTATION DISCIPLINE: all writes to `Shard::items` / the items
// themselves go through the Apply* functions defined in shard_apply.cc
// -- the applier's apply path and the control-plane barriers (register,
// retire, restore) share it.  tools/horizon_lint.py rule
// `shard-mutation` rejects direct mutation anywhere else under
// src/serving/, so the DST equivalence argument (every state change is
// a group commit or a drained barrier op) stays enforceable.
#ifndef HORIZON_SERVING_SHARD_H_
#define HORIZON_SERVING_SHARD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/annotations.h"
#include "datagen/profiles.h"
#include "serving/epoch.h"
#include "serving/ingest_queue.h"
#include "stream/cascade_tracker.h"

namespace horizon::serving {

/// One live content item: the O(1)-state tracker plus the static
/// profiles feature extraction needs.
struct Item {
  stream::CascadeTracker tracker;
  datagen::PageProfile page;
  datagen::PostProfile post;
};

using ItemMap = std::unordered_map<int64_t, std::shared_ptr<Item>>;

/// An immutable snapshot of a shard's items, published per group commit
/// and reclaimed through the EpochDomain.  Readers may copy the
/// shared_ptrs out but must never mutate the pointees.
struct ShardView {
  ItemMap items;
};

/// One lock domain: the canonical map under `mu`, plus the async-mode
/// machinery (all null / not running in sync mode).
struct Shard {
  mutable Mutex mu;
  // horizon-lint: allow(serving-status) -- data member, not an entry
  // point; the annotation macro trips the declaration heuristic.
  ItemMap items HORIZON_GUARDED_BY(mu);

  /// Async mode: accepted-but-unapplied events (null in sync mode).
  std::unique_ptr<IngestQueue> queue;
  /// Async mode: the epoch-protected published snapshot; written only
  /// under `mu` (PublishView), read lock-free under an EpochGuard.
  std::atomic<const ShardView*> view{nullptr};
  /// Async mode: the dedicated applier draining `queue`.
  std::thread applier;
};

// --- the mutation surface (shard_apply.cc) -----------------------------

/// Inserts a new item.  False if the id is taken.
bool ApplyRegister(Shard& shard, int64_t id, Item item)
    HORIZON_REQUIRES(shard.mu);

/// Applies `n` engagement events in order; events for unknown ids are
/// counted into `*dropped` (the straggler-drop contract).  Returns the
/// number applied.  Clones copy-on-write when a view still references
/// the item.
size_t ApplyEvents(Shard& shard, const QueuedEvent* events, size_t n,
                   size_t* dropped) HORIZON_REQUIRES(shard.mu);

/// Erases every item for which `dead(id, item)` returns true; returns the
/// count.
size_t ApplyRetireSweep(
    Shard& shard, const std::function<bool(int64_t, const Item&)>& dead)
    HORIZON_REQUIRES(shard.mu);

/// Removes every item (restore swap-in, step 1).
void ApplyClear(Shard& shard) HORIZON_REQUIRES(shard.mu);

/// Inserts an item, replacing any previous one (restore swap-in, step 2).
void ApplyInsert(Shard& shard, int64_t id, Item item)
    HORIZON_REQUIRES(shard.mu);

/// Builds a fresh ShardView from the canonical map, publishes it
/// (seq_cst) and retires the previous view into `epochs`.  Async mode
/// only; called once per group commit / barrier op.
void PublishView(Shard& shard, EpochDomain& epochs)
    HORIZON_REQUIRES(shard.mu);

}  // namespace horizon::serving

#endif  // HORIZON_SERVING_SHARD_H_
