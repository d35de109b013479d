#ifndef PEREACH_SERVER_EPOCH_GATE_H_
#define PEREACH_SERVER_EPOCH_GATE_H_

#include <atomic>
#include <cstdint>

#include "src/util/sync.h"

namespace pereach {

/// Snapshot gate between query batches (readers) and graph updates
/// (writers). The mutable state behind the gate — the index's
/// Fragmentation, the cluster's FragmentContexts — is only touched by
/// a writer while every reader is drained, so a batch that entered at epoch
/// e evaluates every one of its queries against exactly the first e updates:
/// readers never observe a half-applied update.
///
/// The scheme is deliberately coarse (one SharedMutex, epoch counter
/// advanced by the writer before release): updates are rare relative to
/// queries, batches bound reader hold times, and writers on a shared mutex
/// do not starve behind a stream of readers.
class EpochGate {
 public:
  /// Epoch of the last committed update. Thread-safe without the gate held.
  ///
  /// Memory ordering: the counter is published by Commit() with RELEASE and
  /// read here with ACQUIRE — not the defaulted seq_cst, and not relaxed.
  /// The pairing is load-bearing for the gateless readers (Submit's cache
  /// lookup, Reject's epoch stamp, observability): an acquire load that
  /// observes epoch e synchronizes-with the release increment to e, so it
  /// also sees every index/cache mutation the writer made BEFORE committing
  /// e (the writer holds mu_ exclusively across those writes, and the
  /// fetch_add happens after them in program order). Readers under the
  /// shared lock get the same guarantee from the mutex itself; acquire
  /// keeps the unlocked path correct too. Nothing here needs a total order
  /// across unrelated atomics, which is all seq_cst would add.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Shared (reader) side: hold for the lifetime of one query batch.
  class PEREACH_SCOPED_CAPABILITY Read {
   public:
    explicit Read(EpochGate* gate) PEREACH_ACQUIRE_SHARED(gate->mu_)
        : gate_(gate) {
      gate_->mu_.LockShared();
      epoch_ = gate_->epoch();
    }
    ~Read() PEREACH_RELEASE_GENERIC() { gate_->mu_.UnlockShared(); }

    /// The snapshot this reader is pinned to. Stable while the lock is
    /// held — writers are excluded.
    uint64_t epoch() const { return epoch_; }

   private:
    PEREACH_DISALLOW_COPY_AND_ASSIGN(Read);

    EpochGate* const gate_;
    uint64_t epoch_;
  };

  /// Exclusive (writer) side: hold while mutating the fragmentation and
  /// invalidating caches. Call Commit() once the update is fully applied;
  /// a destructed uncommitted writer leaves the epoch unchanged (the
  /// update path CHECK-failed or threw — readers keep the old snapshot).
  class PEREACH_SCOPED_CAPABILITY Write {
   public:
    explicit Write(EpochGate* gate) PEREACH_ACQUIRE(gate->mu_) : gate_(gate) {
      gate_->mu_.Lock();
    }
    ~Write() PEREACH_RELEASE() { gate_->mu_.Unlock(); }

    /// Publishes the applied update; returns the new epoch. The RELEASE
    /// increment is the other half of epoch()'s acquire pairing: it fences
    /// every mutation this writer made under the exclusive lock before the
    /// new value, so a gateless acquire reader that sees the new epoch
    /// sees the fully-applied update.
    uint64_t Commit() {
      return gate_->epoch_.fetch_add(1, std::memory_order_release) + 1;
    }

   private:
    PEREACH_DISALLOW_COPY_AND_ASSIGN(Write);

    EpochGate* const gate_;
  };

 private:
  SharedMutex mu_{LockRank::kEpochGate};
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace pereach

#endif  // PEREACH_SERVER_EPOCH_GATE_H_
