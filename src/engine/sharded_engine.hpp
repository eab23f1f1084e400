/// \file sharded_engine.hpp
/// \brief Variant-generic, multi-producer sharded ingestion for F0 sketches.
///
/// `ShardedEngine<Sketch, Item>` spreads a heavy item stream across N
/// worker threads. Each worker owns a *private* replica built by the same
/// factory — same params, same seed, hence identical hash functions — so
/// the replicas stay mergeable (sketch_merge.hpp) and, because every
/// sketch operation is a set union, the merged result is exactly the
/// sketch a single-threaded pass over the whole stream would have
/// produced, no matter how items are split across shards or producers.
///
/// The engine is generic over the sketch and its item type through ADL
/// customization points:
///
///   * `AbsorbBatch(Sketch&, span<const Item>)` — how a replica ingests
///     one queue batch (raw: `F0Estimator::Add(span)`). The generic
///     fallback calls `AbsorbItem(Sketch&, const Item&)` per item
///     (structured: dispatch a `StructuredItem` variant to AddTerms /
///     AddRange / AddAffine / AddElement);
///   * `Merge(Sketch&, const Sketch&)` — the exact union the replicas are
///     folded with on query (already defined for both sketch kinds).
///
/// `ShardedF0Engine` (raw `uint64_t` element streams) and
/// `ShardedStructuredEngine` (§5 structured set streams: DNF term groups,
/// ranges, affine spaces, singletons) are aliases of one thin template.
///
/// Ingestion is *multi-producer* and goes through handles only: any
/// number of threads may each hold a `Producer` (MakeProducer()). A
/// handle buffers items privately and hands whole batches to one bounded
/// FIFO shared by every worker; whichever worker is free absorbs the
/// oldest batch, so a slow replica simply takes fewer batches instead of
/// stalling the others. The bound gives backpressure instead of
/// unbounded memory. Every batch carries a ticket from one engine-wide
/// sequence, so `Producer::Flush()` waits for exactly its own (and
/// earlier) batches while other producers keep streaming.
///
/// Queries merge-on-demand and are safe while producers are mid-stream.
/// All of them are served by one incrementally maintained union: each
/// shard publishes an absorb generation, the cache remembers the
/// generation vector it was folded from, and a query refolds only the
/// shards whose generation advanced (see `cache_rebuilds()` /
/// `cache_partial_rebuilds()`). Batches that are merely *queued* do not
/// invalidate anything — absorb generations, not enqueue totals, are
/// what the folded replicas actually contain — so a steady-state poll
/// under live ingestion is O(changed shards), and a poll with no new
/// absorbs is a pure cache hit that takes no shard lock at all.
///   * `Estimate()` / `MergedSketch()` drain everything dispatched so
///     far, then refresh the union from the dirty shards only;
///   * `SnapshotSketch()` / `SnapshotEstimate()` skip the drain and
///     refresh from whatever each shard has absorbed so far — a
///     consistent-per-shard snapshot that never stops ingestion.
///
/// Destruction order: every external `Producer` must be flushed or
/// destroyed before its engine (handle destructors dispatch their tail
/// buffer; the engine's workers drain the queue before honoring stop).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.hpp"
#include "common/status.hpp"
#include "engine/sketch_merge.hpp"
#include "obs/metrics.hpp"
#include "formula/formula.hpp"
#include "setstream/range.hpp"
#include "setstream/structured_f0.hpp"
#include "streaming/f0_sketch.hpp"

namespace mcf0 {

namespace engine_obs {

/// Registry handles for the engine hot paths, resolved once. Shared by
/// every ShardedEngine instantiation in the process — the registry is
/// process-wide, so two live engines sum into the same counters
/// (docs/observability.md).
struct Metrics {
  obs::Counter* items_absorbed;
  obs::Counter* cache_rebuilds;
  obs::Counter* cache_partial_rebuilds;
  obs::Counter* enqueue_blocks;
  obs::Gauge* queue_depth;
  obs::Histogram* enqueue_block_us;
  obs::Histogram* absorb_batch_us;
};

inline Metrics& Get() {
  static Metrics metrics{
      obs::Registry::Global().GetCounter("mcf0_engine_items_absorbed_total"),
      obs::Registry::Global().GetCounter("mcf0_engine_cache_rebuilds_total"),
      obs::Registry::Global().GetCounter(
          "mcf0_engine_cache_partial_rebuilds_total"),
      obs::Registry::Global().GetCounter("mcf0_engine_enqueue_blocks_total"),
      obs::Registry::Global().GetGauge("mcf0_engine_queue_depth"),
      obs::Registry::Global().GetHistogram("mcf0_engine_enqueue_block_us"),
      obs::Registry::Global().GetHistogram("mcf0_engine_absorb_batch_us")};
  return metrics;
}

}  // namespace engine_obs

/// Batch-absorb customization point: how a worker ingests a whole queue
/// batch into its replica. This generic fallback replays AbsorbItem in
/// order, so any sketch that works item-by-item works batched with
/// identical bytes; sketches with a faster span surface overload it
/// (F0Estimator below routes to the gf2k-batched span-Add).
template <typename Sketch, typename Item>
inline void AbsorbBatch(Sketch& sketch, std::span<const Item> items) {
  for (const Item& item : items) AbsorbItem(sketch, item);
}

/// The generic queue/worker/backpressure core; see the file comment.
template <typename Sketch, typename Item>
class ShardedEngine {
 public:
  /// Builds one shard replica. Called num_shards times at construction
  /// and once more, on the first query, for the cached union; every call
  /// must produce sketches that are mutually mergeable (in practice:
  /// construct from one shared params value, so all replicas sample
  /// identical hash functions).
  using ReplicaFactory = std::function<Sketch()>;

  /// A single-threaded ingestion front end; see MakeProducer(). Handles
  /// may be moved but not copied, and must not outlive the engine.
  ///
  /// Lifecycle state machine (docs/engine.md): a handle is *open* from
  /// MakeProducer() until Close(), move-from, or destruction makes it
  /// *detached*. Open: Add/AddBatch accept items, Flush waits for them.
  /// Detached: Add/AddBatch return kFailedPrecondition, Flush and Close
  /// are no-ops. Close() = flush-and-detach, idempotent — the
  /// deterministic teardown a dropped network connection needs: once it
  /// returns, every item this handle accepted is absorbed, and nothing
  /// can slip in afterwards.
  class Producer {
   public:
    Producer(Producer&& o) noexcept
        : engine_(std::exchange(o.engine_, nullptr)),
          pending_(std::move(o.pending_)),
          last_ticket_(o.last_ticket_) {}
    Producer& operator=(Producer&& o) noexcept {
      if (this != &o) {
        DispatchPending();
        engine_ = std::exchange(o.engine_, nullptr);
        pending_ = std::move(o.pending_);
        last_ticket_ = o.last_ticket_;
      }
      return *this;
    }
    Producer(const Producer&) = delete;
    Producer& operator=(const Producer&) = delete;

    /// Hands the tail buffer to the queue; does not wait (the engine's
    /// destructor drains the queue before joining).
    ~Producer() { DispatchPending(); }

    /// Buffers one item; dispatched to the queue once the batch fills (or
    /// on Flush). kFailedPrecondition on a detached (closed or moved-from)
    /// handle — the item is not accepted.
    Status Add(Item item) {
      if (engine_ == nullptr) return Detached();
      if (pending_.capacity() < engine_->batch_size_) {
        pending_.reserve(engine_->batch_size_);
      }
      pending_.push_back(std::move(item));
      engine_->items_.fetch_add(1, std::memory_order_relaxed);
      if (pending_.size() >= engine_->batch_size_) DispatchPending();
      return Status::Ok();
    }

    /// The bulk hot path: queues the whole span as one batch. Copies the
    /// span, so the caller may reuse its buffer immediately.
    /// kFailedPrecondition on a detached handle.
    Status AddBatch(std::span<const Item> items) {
      if (engine_ == nullptr) return Detached();
      if (items.empty()) return Status::Ok();
      engine_->items_.fetch_add(items.size(), std::memory_order_relaxed);
      last_ticket_ =
          engine_->Dispatch(std::vector<Item>(items.begin(), items.end()));
      return Status::Ok();
    }

    /// Dispatches the tail buffer and blocks until every batch *this
    /// producer* dispatched has been absorbed by a replica. Safe while
    /// other producers are mid-stream: the wait covers only batches
    /// ticketed no later than this producer's last one, never work other
    /// producers dispatch afterwards. A no-op on a moved-from handle
    /// (like the destructor).
    void Flush() {
      if (engine_ == nullptr) return;
      DispatchPending();
      std::unique_lock<std::mutex> lock(engine_->mu_);
      engine_->AwaitAbsorbedLocked(last_ticket_, lock);
    }

    /// Flush-and-detach: dispatches the tail buffer, waits for every batch
    /// this handle dispatched, then detaches it from the engine. After
    /// Close() returns, Add/AddBatch return kFailedPrecondition and
    /// further Close()/Flush() calls are no-ops (idempotent). Always OK —
    /// the Status return leaves room for bounded-wait variants.
    Status Close() {
      if (engine_ == nullptr) return Status::Ok();
      Flush();
      engine_ = nullptr;
      return Status::Ok();
    }

    /// True once the handle is detached (closed or moved-from).
    bool closed() const { return engine_ == nullptr; }

   private:
    static Status Detached() {
      return Status::FailedPrecondition(
          "producer handle is closed (or moved-from); items are no longer "
          "accepted");
    }

    friend class ShardedEngine;
    explicit Producer(ShardedEngine* engine) : engine_(engine) {}

    void DispatchPending() {
      if (engine_ == nullptr || pending_.empty()) return;
      last_ticket_ = engine_->Dispatch(std::move(pending_));
      pending_.clear();  // moved-from: restore a definite empty state
    }

    ShardedEngine* engine_;
    std::vector<Item> pending_;  // Add() buffer, not yet dispatched
    uint64_t last_ticket_ = 0;   // ticket of the last dispatch; 0 = none
  };

  /// Spawns `num_shards` workers, each with a private replica from
  /// `factory`. num_shards >= 1; 1 degenerates to background
  /// single-thread ingestion. `batch_size` is how many items
  /// Producer::Add() buffers before it dispatches a batch: large enough
  /// to amortize the queue handoff, small enough to keep shards busy.
  ShardedEngine(ReplicaFactory factory, int num_shards,
                size_t batch_size = 2048)
      : factory_(std::move(factory)), batch_size_(batch_size) {
    MCF0_CHECK(num_shards >= 1);
    MCF0_CHECK(batch_size_ >= 1);
    shards_.reserve(num_shards);
    for (int i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(factory_()));
    }
    // Replicas first, threads second: if a sketch constructor throws
    // there are no workers to unwind.
    for (auto& shard : shards_) {
      shard->thread =
          std::thread(&ShardedEngine::WorkerLoop, this, shard.get());
    }
  }

  /// Joins the workers after they drain the queue; producers must have
  /// been flushed or destroyed first (their destructors dispatch any tail
  /// buffer, and workers drain before honoring stop, so nothing ingested
  /// is dropped).
  ~ShardedEngine() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_ready_.notify_all();
    for (auto& shard : shards_) shard->thread.join();
  }

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// A new ingestion handle, usable from exactly one thread at a time.
  /// Thread-safe.
  Producer MakeProducer() { return Producer(this); }

  /// Blocks until every batch dispatched before this call has been
  /// absorbed by a replica. Safe to call while other producers keep
  /// streaming (their later batches are not waited for). Items still in a
  /// producer's private buffer are not yet part of the stream; flush the
  /// producer to include them.
  void Flush() {
    std::unique_lock<std::mutex> lock(mu_);
    AwaitAbsorbedLocked(issued_, lock);
  }

  /// Flush + merge-on-query: the union of all shard replicas, exactly
  /// the sketch a sequential pass over the same items would hold. A copy
  /// of the cached union, which is refreshed incrementally (see
  /// cache_rebuilds()). It carries the hashes_canonical attestation (the
  /// cache starts as a fresh replica and Merge preserves it), so
  /// encoding it takes the codec's O(state) seed-elided fast path.
  Sketch MergedSketch() {
    Flush();
    return SnapshotSketch();
  }

  /// MergedSketch().Estimate() without materializing a copy: reads the
  /// cached union directly, so repeated queries with no absorbs in
  /// between are pure cache hits, whatever sits in the queue.
  double Estimate() {
    Flush();
    return SnapshotEstimate();
  }

  /// Merge-without-drain: the union of each shard's absorbed prefix,
  /// without waiting for queued batches. A copy of the same incremental
  /// cache Estimate() reads: a poll refolds only shards that absorbed
  /// something since the last query (O(changed), and no shard lock at
  /// all when ingestion is quiescent), so live dashboards can poll while
  /// producers saturate the queue.
  Sketch SnapshotSketch() {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    return RefreshCacheLocked();
  }

  /// SnapshotSketch().Estimate() without materializing a copy.
  double SnapshotEstimate() {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    return RefreshCacheLocked().Estimate();
  }

  /// Items accepted across all producers (including any still in a
  /// producer's private buffer).
  uint64_t items_ingested() const {
    return items_.load(std::memory_order_relaxed);
  }

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// How many queries had to fold at least one shard replica into the
  /// cached union — observability for the validity rule (and its
  /// tests): queries with no completed absorb in between must not add
  /// to this, even with batches sitting in the queue.
  uint64_t cache_rebuilds() const {
    return cache_rebuilds_.load(std::memory_order_relaxed);
  }

  /// The subset of cache_rebuilds() that refolded strictly fewer than
  /// num_shards replicas — the O(changed) incremental refreshes. The
  /// first build after construction never counts, so
  /// `cache_rebuilds() - cache_partial_rebuilds() == 1` once warm means
  /// every steady-state refresh was partial.
  uint64_t cache_partial_rebuilds() const {
    return cache_partial_rebuilds_.load(std::memory_order_relaxed);
  }

  /// Batches dispatched but not yet absorbed (queued or mid-absorb) — the
  /// engine's backpressure signal, from which `mcf0 serve` derives
  /// protocol credit grants on every ack. Point-in-time, not a fence.
  uint64_t queued_batches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return issued_ - absorbed_;
  }

  /// Batches the queue holds before dispatch blocks: num_shards *
  /// kQueuedBatchesPerShard. Constant over the engine's life.
  uint64_t queue_capacity() const {
    return static_cast<uint64_t>(shards_.size()) * kQueuedBatchesPerShard;
  }

 private:
  /// Queue bound per worker: enough to keep every worker fed through a
  /// producer's burst, small enough that a stalled engine holds bounded
  /// memory.
  static constexpr uint64_t kQueuedBatchesPerShard = 64;

  struct QueuedBatch {
    uint64_t ticket = 0;
    std::vector<Item> items;
  };

  struct Shard {
    explicit Shard(Sketch replica) : sketch(std::move(replica)) {}

    /// Ticket of the batch this worker is absorbing, 0 while idle.
    /// Guarded by the engine's mu_: a flush waits on it for batches that
    /// have left the queue but are not yet in the replica.
    uint64_t absorbing = 0;

    /// Batches absorbed into `sketch` — the replica's publish
    /// generation. Bumped (release) after the batch's items are in, so
    /// a reader that loads it (acquire) *before* folding the replica
    /// provably folds at least that many batches. This is what the
    /// merge cache stamps and compares: queue state never appears in
    /// the validity rule.
    std::atomic<uint64_t> replica_gen{0};

    std::mutex sketch_mu;  // guards sketch: worker absorb vs query merge
    Sketch sketch;
    std::thread thread;
  };

  static void MergeOrDie(Sketch& into, const Sketch& from) {
    const Status status = Merge(into, from);
    MCF0_CHECK(status.ok());  // replicas share params by construction
  }

  void WorkerLoop(Shard* self) {
    for (;;) {
      QueuedBatch batch;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop requested, queue drained
        batch = std::move(queue_.front());
        queue_.pop_front();
        self->absorbing = batch.ticket;
      }
      // The pop made room; backpressured producers wait on queue length,
      // not completions, so wake them now rather than after the
      // (possibly long) absorb.
      progress_.notify_all();
      {
        obs::ScopedLatencyUs absorb_timer(engine_obs::Get().absorb_batch_us);
        std::lock_guard<std::mutex> sketch_lock(self->sketch_mu);
        AbsorbBatch(self->sketch, std::span<const Item>(batch.items));
      }
      // Publish the replica change before the slot clears: a flush the
      // clear releases must find these items in its next cache refresh.
      self->replica_gen.fetch_add(1, std::memory_order_release);
      engine_obs::Get().items_absorbed->Increment(batch.items.size());
      {
        std::lock_guard<std::mutex> lock(mu_);
        self->absorbing = 0;
        ++absorbed_;
        engine_obs::Get().queue_depth->Add(-1);
      }
      progress_.notify_all();
    }
  }

  /// Appends one batch to the shared queue, blocking while it is full
  /// (backpressure). Returns the batch's ticket. Thread-safe.
  uint64_t Dispatch(std::vector<Item> batch) {
    std::unique_lock<std::mutex> lock(mu_);
    if (queue_.size() >= queue_capacity()) {
      engine_obs::Get().enqueue_blocks->Increment();
      obs::ScopedLatencyUs wait_timer(engine_obs::Get().enqueue_block_us);
      progress_.wait(lock,
                     [this] { return queue_.size() < queue_capacity(); });
    }
    const uint64_t ticket = ++issued_;
    queue_.push_back(QueuedBatch{ticket, std::move(batch)});
    engine_obs::Get().queue_depth->Add(1);
    lock.unlock();
    work_ready_.notify_one();
    return ticket;
  }

  /// Requires mu_, held by `lock`. Blocks until every batch with a ticket
  /// <= `ticket` has been absorbed. Tickets rise front to back in the
  /// FIFO, so such a batch is pending exactly when it is still at the
  /// queue front or sits in some worker's `absorbing` slot; later
  /// batches never hold the wait up.
  void AwaitAbsorbedLocked(uint64_t ticket,
                           std::unique_lock<std::mutex>& lock) {
    progress_.wait(lock, [this, ticket] {
      if (!queue_.empty() && queue_.front().ticket <= ticket) return false;
      for (const auto& shard : shards_) {
        if (shard->absorbing != 0 && shard->absorbing <= ticket) return false;
      }
      return true;
    });
  }

  /// Requires cache_mu_. Incremental validity rule (docs/engine.md):
  /// the cache is the exact union of every shard replica at the
  /// generation recorded in cache_shard_gen_ (each generation loaded
  /// *before* folding its replica, so the replica provably contained at
  /// least that many batches — a concurrent absorb just leaves the
  /// stamp conservative and the shard dirty for the next query).
  /// Because a replica's item set only ever grows and Merge is an exact
  /// set union, folding a dirty shard's *current* replica into the
  /// cached union yields exactly the union of the new per-shard states:
  /// no subtraction, no from-scratch rebuild, O(changed shards) per
  /// refresh. A query that finds no generation advanced returns the
  /// cache untouched without taking any shard lock — queued-but-
  /// unabsorbed batches never invalidate, because absorb generations,
  /// not enqueue totals, are what the folded replicas actually contain.
  const Sketch& RefreshCacheLocked() {
    if (!cached_.has_value()) {
      cached_.emplace(factory_());
      cache_shard_gen_.assign(shards_.size(), 0);
    }
    size_t folded = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
      Shard& shard = *shards_[i];
      const uint64_t gen = shard.replica_gen.load(std::memory_order_acquire);
      if (gen == cache_shard_gen_[i]) continue;
      {
        std::lock_guard<std::mutex> sketch_lock(shard.sketch_mu);
        MergeOrDie(*cached_, shard.sketch);
      }
      cache_shard_gen_[i] = gen;
      ++folded;
    }
    if (folded == 0 && cache_built_) return *cached_;  // pure hit
    cache_rebuilds_.fetch_add(1, std::memory_order_relaxed);
    engine_obs::Get().cache_rebuilds->Increment();
    if (cache_built_ && folded < shards_.size()) {
      cache_partial_rebuilds_.fetch_add(1, std::memory_order_relaxed);
      engine_obs::Get().cache_partial_rebuilds->Increment();
    }
    cache_built_ = true;
    return *cached_;
  }

  ReplicaFactory factory_;
  const size_t batch_size_;
  std::atomic<uint64_t> items_{0};

  mutable std::mutex mu_;  // guards the queue state below + Shard::absorbing
  std::condition_variable work_ready_;  // producers -> workers
  std::condition_variable progress_;    // workers -> blocked producers, flush
  std::deque<QueuedBatch> queue_;       // tickets rise front to back
  uint64_t issued_ = 0;                 // last ticket issued
  uint64_t absorbed_ = 0;               // batches fully absorbed
  bool stop_ = false;

  // After the queue state: the workers use it until joined.
  std::vector<std::unique_ptr<Shard>> shards_;

  std::mutex cache_mu_;  // guards cached_, cache_shard_gen_, cache_built_
  std::optional<Sketch> cached_;
  std::vector<uint64_t> cache_shard_gen_;  // per shard: replica_gen folded
  bool cache_built_ = false;
  std::atomic<uint64_t> cache_rebuilds_{0};
  std::atomic<uint64_t> cache_partial_rebuilds_{0};
};

/// AbsorbBatch fast path for raw element streams: the span-Add surface
/// runs each row's hashes over the whole batch through the gf2k batch
/// kernels. Byte-identical to the item-by-item fallback.
inline void AbsorbBatch(F0Estimator& sketch, std::span<const uint64_t> items) {
  sketch.Add(items);
}

/// One §5 structured stream item for `ShardedStructuredEngine`: the
/// affine space {x : a x = b} of Theorem 7.
struct AffineSpaceItem {
  Gf2Matrix a;
  BitVec b;
};

/// The §5 item alphabet: a set given as DNF terms (Theorem 5 — one term,
/// or a whole formula's worth), a multidimensional range / arithmetic
/// progression (Theorem 6 / Corollary 1), an affine space (Theorem 7), or
/// a singleton element (the traditional stream as a special case).
using StructuredItem =
    std::variant<std::vector<Term>, MultiDimRange, AffineSpaceItem, BitVec>;

/// AbsorbItem customization point for structured streams: dispatches the
/// variant to the matching StructuredF0 adder.
void AbsorbItem(StructuredF0& sketch, const StructuredItem& item);

/// A `ShardedEngine` whose replicas are all `Sketch(params)` — one seed,
/// hence identical hash functions — dispatching `kBatchSize`-item
/// batches. Producers, queries and counters are the core's.
template <typename Sketch, typename Item, typename Params, size_t kBatchSize>
class SeededShardedEngine : public ShardedEngine<Sketch, Item> {
 public:
  /// Spawns `num_shards` workers, each with a private replica built from
  /// `params`. num_shards >= 1.
  SeededShardedEngine(const Params& params, int num_shards)
      : ShardedEngine<Sketch, Item>([params] { return Sketch(params); },
                                    num_shards, kBatchSize),
        params_(params) {}

  const Params& params() const { return params_; }

  /// Always 0: the shared queue has no batch owner to steal from. Kept
  /// only for bench/mcf0_bench/layers.cpp.
  uint64_t batches_stolen() const { return 0; }

 private:
  Params params_;
};

/// Sharded ingestion of raw u64 element streams.
using ShardedF0Engine =
    SeededShardedEngine<F0Estimator, uint64_t, F0Params, 2048>;

/// Sharded ingestion of §5 structured set streams. A structured item is
/// a whole set whose per-item work dwarfs the queue handoff, so batches
/// stay small to keep every shard busy.
using ShardedStructuredEngine =
    SeededShardedEngine<StructuredF0, StructuredItem, StructuredF0Params, 16>;

}  // namespace mcf0
