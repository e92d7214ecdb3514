// The one translation unit allowed to mutate Shard item state (enforced
// by tools/horizon_lint.py rule `shard-mutation`).  Everything here runs
// under the shard mutex; the copy-on-write rule in ApplyEvents is what
// keeps published ShardViews frozen without copying untouched items.

#include "serving/shard.h"

#include <utility>

namespace horizon::serving {

bool ApplyRegister(Shard& shard, int64_t id, Item item) {
  return shard.items
      .try_emplace(id, std::make_shared<Item>(std::move(item)))
      .second;
}

size_t ApplyEvents(Shard& shard, const QueuedEvent* events, size_t n,
                   size_t* dropped) {
  size_t applied = 0;
  for (size_t i = 0; i < n; ++i) {
    const QueuedEvent& e = events[i];
    const auto it = shard.items.find(e.item_id);
    if (it == shard.items.end()) {
      ++*dropped;
      continue;
    }
    std::shared_ptr<Item>& ptr = it->second;
    // use_count == 1 means the canonical map is the sole owner: no
    // published view (and no reader that copied one) can see the item,
    // so mutate in place.  Sync mode never builds views, so it always
    // takes this branch.
    if (ptr.use_count() > 1) {
      ptr = std::make_shared<Item>(*ptr);
    }
    ptr->tracker.Observe(e.type, e.time);
    ++applied;
  }
  return applied;
}

size_t ApplyRetireSweep(
    Shard& shard, const std::function<bool(int64_t, const Item&)>& dead) {
  size_t retired = 0;
  for (auto it = shard.items.begin(); it != shard.items.end();) {
    if (dead(it->first, *it->second)) {
      it = shard.items.erase(it);
      ++retired;
    } else {
      ++it;
    }
  }
  return retired;
}

void ApplyClear(Shard& shard) { shard.items.clear(); }

void ApplyInsert(Shard& shard, int64_t id, Item item) {
  shard.items.insert_or_assign(id, std::make_shared<Item>(std::move(item)));
}

void PublishView(Shard& shard, EpochDomain& epochs) {
  // horizon-lint: allow(naked-new) -- ownership passes to the EpochDomain, which deletes the view after the reader grace period
  auto* next = new ShardView{shard.items};  // pointer copies only
  // order: seq_cst publication; readers load shard.view with seq_cst
  // inside an EpochGuard, and the reclamation proof needs this exchange
  // totally ordered against EpochDomain::Enter/Retire (epoch.cc).
  const ShardView* prev = shard.view.exchange(next, std::memory_order_seq_cst);
  if (prev != nullptr) {
    epochs.Retire(const_cast<ShardView*>(prev),
                  // horizon-lint: allow(naked-new) -- the type-erased deleter the EpochDomain runs after the grace period; the RAII owner is the domain itself
                  [](void* p) { delete static_cast<ShardView*>(p); });
  }
  epochs.Advance();
}

}  // namespace horizon::serving
