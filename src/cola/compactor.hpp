// The tiered fold engine: the one fold job every tiered fold runs, and the
// process-shared executor that takes jobs off the mutating thread
// (cola.hpp gathers, decides, and installs, and keeps every STRUCTURAL
// mutation on the writer thread — a job only ever computes over immutable
// inputs).
//
// One job, two places to run it. A FoldJob is a pure function over sorted
// input spans: the one serial kernel (kern::collapse_spans, once per range
// partition), the tombstone strip when the fold lands past all older
// data, and the output's Bloom filter — all without touching the owning
// Gcola. An inline fold is that job run on the writer thread over spans
// that alias the live segments and the incoming run (nothing copied,
// writer-owned scratch reused); a deferred fold is the same job with its
// input segments pinned by refcount, run by a pool worker. Either way the
// writer installs the finished planes as a new segment — a deferred one at
// its next mutation (an atomic-with-respect-to-readers segment-set swap +
// epoch bump) — so single-writer discipline is preserved end to end and
// the durable tier's WAL-synced-before-install invariant holds for free:
// the spill observer always fires on the writer thread, inside a mutator.
//
// Failures stay on the job. A job that throws (allocation, a throwing key
// compare, a failed sub-merge) records the failure and stays pending with
// its inputs pinned, so reads stay coherent; the writer re-runs it inline
// at its next blocking install point, and only a failure there reaches
// the mutator's caller.
//
// Intra-fold parallelism. Large folds are cut at key pivots (taken from
// the largest input run) into independent sub-ranges: every input span is
// split at the pivots with a lower_bound per cut, so all copies of a key
// land in the same sub-range and the newest-wins tie-break (higher span
// index wins) is preserved per sub-range. Sub-merges run on the pool with
// the SUBMITTING thread participating (it claims unclaimed sub-tasks), so
// nested parallelism can never deadlock the pool.
//
// One pool per process. Every Gcola — including the S shards of a
// ShardedDictionary — shares Pool::instance(), sized to the LARGEST
// compaction_threads any structure asked for (capped at the hardware
// thread count), so S shards with 2 compaction threads each contend for
// one bounded pool instead of oversubscribing S*2 cores. The queue is
// bounded; a saturated queue rejects the submit and the writer folds
// inline (writer-assist backpressure — compaction debt can never grow
// unboundedly). Forced folds (tombstone/staleness pressure) jump the
// queue: they are the retention policy's correctness valve, not an
// optimization.
//
// COSTREAM_COMPACTION=sync is the escape hatch: it clamps every structure
// to inline folds, which must be (and is CI-verified to be) behaviorally
// identical to background mode on the differential suites.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "cola/kernels.hpp"
#include "common/filter.hpp"
#include "common/simd.hpp"
#include "common/snapshot.hpp"

namespace costream::cola::compact {

/// Process-wide escape hatch: COSTREAM_COMPACTION=sync forces every fold
/// inline regardless of configuration (differential CI, bisection).
inline bool sync_forced() noexcept {
  static const bool v = [] {
    const char* e = std::getenv("COSTREAM_COMPACTION");
    return e != nullptr && std::string_view(e) == "sync";
  }();
  return v;
}

/// The process-shared compaction pool: grow-only worker set, bounded
/// two-priority queue, and a cooperative batch runner for intra-fold
/// sub-merges. Thread-safe; one instance per process (leaked on purpose —
/// detached workers live until process exit, so no static-destruction
/// join ordering problems).
class Pool {
 public:
  static Pool& instance() {
    static Pool* p = new Pool();  // intentionally leaked (reachable)
    return *p;
  }

  /// Grow the worker set to at least n threads (capped at the hardware
  /// thread count). Called from every Gcola constructor that enables
  /// background compaction, so the pool is sized to the largest request.
  void ensure_threads(unsigned n) {
    if (n == 0) return;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    n = std::min(n, hw);
    std::lock_guard<std::mutex> lk(m_);
    while (workers_ < n) {
      spawn_worker();
      ++workers_;
    }
  }

  unsigned threads() const {
    std::lock_guard<std::mutex> lk(m_);
    return workers_;
  }

  /// Enqueue a job runner. Returns false when there are no workers or the
  /// queue is saturated — the caller must then run the work inline
  /// (writer-assist backpressure). `forced` jobs (retention-pressure
  /// folds) jump the queue and ignore the bound: there is at most one
  /// in-flight fold per structure, so forced depth is bounded by the
  /// number of live structures. `depth_out`, when non-null, receives the
  /// queue depth right after the push (per-structure peak tracking). `fn`
  /// must not throw — workers run it bare; FoldJob::run and the batch
  /// helpers record their failures instead.
  bool submit(std::function<void()> fn, bool forced,
              std::uint64_t* depth_out) {
    {
      std::lock_guard<std::mutex> lk(m_);
      if (workers_ == 0) return false;
      if (!forced && q_.size() >= queue_cap()) return false;
      if (forced) {
        q_.push_front(std::move(fn));
      } else {
        q_.push_back(std::move(fn));
      }
      queue_peak_ = std::max<std::uint64_t>(queue_peak_, q_.size());
      if (depth_out != nullptr) *depth_out = q_.size();
    }
    cv_.notify_one();
    return true;
  }

  /// Run `tasks` to completion using idle workers AND the calling thread:
  /// the caller claims unclaimed tasks itself, so this completes even when
  /// every worker is busy (including when the caller IS a worker running a
  /// fold that fans out sub-merges — nested use cannot deadlock). A task
  /// that throws still counts as finished; once every task has finished,
  /// the first exception is rethrown here, on the caller — never on a
  /// worker, and never while a helper may still read `tasks`.
  void run_batch(std::vector<std::function<void()>>& tasks) {
    const std::size_t n = tasks.size();
    if (n == 0) return;
    if (n == 1) {
      tasks[0]();
      return;
    }
    auto batch = std::make_shared<Batch>();
    batch->tasks = &tasks;
    batch->n = n;
    std::size_t helpers = 0;
    {
      std::lock_guard<std::mutex> lk(m_);
      helpers = std::min<std::size_t>(workers_, n - 1);
      for (std::size_t i = 0; i < helpers; ++i) {
        // Front of the queue: sub-merges extend a fold already holding a
        // worker; starving them behind whole queued folds inverts priority.
        q_.push_front([batch] { batch->drain(); });
      }
      queue_peak_ = std::max<std::uint64_t>(queue_peak_, q_.size());
    }
    if (helpers > 0) cv_.notify_all();
    batch->drain();
    batch->wait();
    if (batch->error) std::rethrow_exception(batch->error);
  }

  /// High-water queue depth since process start (observability).
  std::uint64_t queue_peak() const {
    std::lock_guard<std::mutex> lk(m_);
    return queue_peak_;
  }

 private:
  Pool() = default;

  struct Batch {
    std::vector<std::function<void()>>* tasks = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex m;
    std::condition_variable cv;
    std::exception_ptr error;  // first task failure; written under m

    void drain() noexcept {
      for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
        try {
          (*tasks)[i]();
        } catch (...) {
          std::lock_guard<std::mutex> lk(m);
          if (!error) error = std::current_exception();
        }
        if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
          std::lock_guard<std::mutex> lk(m);
          cv.notify_all();
        }
      }
    }
    void wait() {
      std::unique_lock<std::mutex> lk(m);
      cv.wait(lk, [&] { return done.load(std::memory_order_acquire) >= n; });
    }
  };

  std::size_t queue_cap() const { return 2 * workers_ + 2; }

  void spawn_worker() {
    std::thread([this] {
      for (;;) {
        std::function<void()> fn;
        {
          std::unique_lock<std::mutex> lk(m_);
          cv_.wait(lk, [&] { return !q_.empty(); });
          fn = std::move(q_.front());
          q_.pop_front();
        }
        fn();
      }
    }).detach();
  }

  mutable std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> q_;
  unsigned workers_ = 0;
  std::uint64_t queue_peak_ = 0;
};

/// Newest-wins fold of `spans` (ordered oldest -> newest, `total`
/// elements in all) into `out`: kern::collapse_spans, once per range
/// partition. When `ways > 1` and the fold reaches kern::kOnePassCutoff,
/// the key range is cut at pivots drawn from the largest span into up to
/// `ways` disjoint sub-ranges — every span split at the same pivots by
/// lower_bound, so all copies of a key share a sub-range and per-range
/// span order (and therefore the newest-wins tie-break) is untouched —
/// merged independently on the pool, and the output planes stitched back
/// in key order. `final_dups` sums the sub-merges' duplicate samples (keys
/// never straddle a cut).
template <class K, class V>
void fold_spans(const std::vector<kern::RunView<K, V>>& spans,
                std::size_t total, unsigned ways, simd::Isa isa,
                kern::RunBuf<K, V>& out, kern::CollapseScratch<K, V>& scratch,
                std::uint64_t& final_dups) {
  // Pivots: evenly spaced keys of the largest span (the best single proxy
  // for the fold's key distribution). Equal pivots collapse, so skewed
  // inputs degrade to fewer, larger sub-ranges — never to wrong ones.
  std::vector<K> pivots;
  if (ways > 1 && total >= kern::kOnePassCutoff && spans.size() >= 2) {
    std::size_t largest = 0;
    for (std::size_t i = 1; i < spans.size(); ++i) {
      if (spans[i].n > spans[largest].n) largest = i;
    }
    for (unsigned p = 1; p < ways; ++p) {
      const K& k = spans[largest].keys[spans[largest].n * p / ways];
      if (pivots.empty() || pivots.back() < k) pivots.push_back(k);
    }
  }
  if (pivots.empty()) {
    kern::collapse_spans(spans, total, isa, out, scratch, final_dups);
    return;
  }
  const std::size_t parts = pivots.size() + 1;
  struct Part {
    std::vector<kern::RunView<K, V>> spans;
    std::size_t total = 0;
    kern::RunBuf<K, V> out;
    kern::CollapseScratch<K, V> scratch;
    std::uint64_t dups = 0;
  };
  std::vector<Part> part(parts);
  for (const kern::RunView<K, V>& sp : spans) {
    // Cut b..e of this span belongs to part p; lower_bound at each pivot
    // sends every copy of the pivot key right, uniformly across spans.
    std::size_t b = 0;
    for (std::size_t p = 0; p < parts; ++p) {
      const K* cut = p + 1 < parts
                         ? std::lower_bound(sp.keys, sp.keys + sp.n, pivots[p])
                         : sp.keys + sp.n;
      const std::size_t e = static_cast<std::size_t>(cut - sp.keys);
      if (b != e) {  // empty sub-spans are skipped; order of the rest is kept
        part[p].spans.push_back(kern::RunView<K, V>{sp.keys + b, sp.vals + b,
                                                    sp.flags + b, e - b});
        part[p].total += e - b;
      }
      b = e;
    }
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(parts);
  for (Part& pp : part) {
    tasks.push_back([&pp, isa] {
      kern::collapse_spans(pp.spans, pp.total, isa, pp.out, pp.scratch, pp.dups);
    });
  }
  Pool::instance().run_batch(tasks);
  std::size_t w = 0;
  final_dups = 0;
  for (const Part& pp : part) {
    w += pp.out.size();
    final_dups += pp.dups;
  }
  out.resize(w);
  std::size_t at = 0;
  for (const Part& pp : part) {
    std::copy_n(pp.out.keys.data(), pp.out.size(), out.keys.data() + at);
    std::copy_n(pp.out.vals.data(), pp.out.size(), out.vals.data() + at);
    std::copy_n(pp.out.flags.data(), pp.out.size(), out.flags.data() + at);
    at += pp.out.size();
  }
}

/// One tiered fold — every fold a structure runs, inline or deferred: a
/// pure function from sorted input spans to one output run and its Bloom
/// filter that never touches the owning structure. The writer fills the
/// inputs; run() executes wherever the job is run — on the writer itself
/// (inline folds, writer assists, retries) or on a pool worker — and the
/// writer installs the output. A deferred job pins what its spans read in
/// `inputs`, so it stays valid whatever the writer does meanwhile,
/// destroying the structure included (the pool's shared_ptr keeps the job
/// alive). A claimed/finished state machine lets a saturated or impatient
/// writer claim a queued job back (writer assist) without racing the
/// pool worker.
template <class K, class V>
class FoldJob {
 public:
  // -- inputs, filled by the writer (immutable while the job runs) --
  std::vector<kern::RunView<K, V>> spans;        // oldest -> newest
  std::vector<snap::SegmentRef<K, V>> inputs;    // deferred: what spans read
  std::uint64_t total = 0;                       // elements across spans
  bool drop_tombstones = false;
  bool mint_filter = false;
  simd::Isa isa = simd::Isa::kScalar;
  unsigned ways = 1;  // intra-fold sub-merge parallelism
  // Writer bookkeeping run() never reads: spilled segment ids the fold
  // consumes, reported to the spill observer at install.
  std::vector<std::uint64_t> consumed;

  // -- outputs, valid once the job finished without failing --
  kern::RunBuf<K, V> out;
  filt::Words filter_words;
  std::uint64_t final_dups = 0;
  std::uint64_t tombstones_dropped = 0;
  std::uint64_t fold_ns = 0;
  std::exception_ptr error;  // why the last run failed

  /// Exactly one runner wins the claim (pool worker vs assisting writer).
  bool try_claim() {
    int expected = kQueued;
    return state_.compare_exchange_strong(expected, kRunning,
                                          std::memory_order_acq_rel);
  }

  bool done() const { return state_.load(std::memory_order_acquire) == kDone; }
  bool failed() const {
    return state_.load(std::memory_order_acquire) == kFailed;
  }

  /// Block until the (already claimed, by someone) run finishes.
  void wait_finished() {
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [&] { return state_.load(std::memory_order_acquire) >= kDone; });
  }

  /// Execute the fold; never throws. A failure (allocation, a throwing
  /// key compare, a failed sub-merge) is recorded in `error` and leaves
  /// the job failed: its inputs are untouched and it may be run again.
  void run() noexcept {
    const auto t0 = std::chrono::steady_clock::now();
    error = nullptr;
    try {
      fold_spans(spans, total, ways, isa, out, scratch_, final_dups);
      tombstones_dropped = drop_tombstones ? kern::strip_tombstones(out) : 0;
      filter_words.clear();
      if constexpr (filt::filter_hashable_v<K>) {
        if (mint_filter && !out.empty()) {
          filter_words = filt::build_filter(out.keys.data(), out.keys.size());
        }
      }
    } catch (...) {
      error = std::current_exception();
    }
    fold_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    {
      std::lock_guard<std::mutex> lk(m_);
      state_.store(error ? kFailed : kDone, std::memory_order_release);
    }
    cv_.notify_all();
  }

 private:
  enum : int { kQueued = 0, kRunning = 1, kDone = 2, kFailed = 3 };

  kern::CollapseScratch<K, V> scratch_;
  std::atomic<int> state_{kQueued};
  std::mutex m_;
  std::condition_variable cv_;
};

}  // namespace costream::cola::compact
