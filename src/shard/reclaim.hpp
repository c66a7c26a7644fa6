// Epoch-based reclamation for the sharded facade's published read state.
//
// The facade's barrier-free find() (shard/sharded_dictionary.hpp) reads
// immutable objects per shard through raw pointers: the shard worker's
// published view and the runs queued for the worker. A replaced view, an
// applied run or a run merged into a newer one is RETIRED here instead of
// freed, and freed once no reader can still hold it. A reader writes only
// its own cache line and performs no read-modify-write:
//
//   * Every thread that reads takes a Slot — one cache line holding the
//     reclamation epoch it reads at, 0 while it holds nothing — from a
//     process-wide, grow-only registry. It keeps the slot for its lifetime
//     and hands it back at thread exit, so any number of reader threads
//     works and exited threads' slots are reused, not leaked. The registry
//     is a list in index order and a new thread takes the LOWEST free
//     index, so slot indices stay as dense as the live reader threads.
//   * A ReadGuard loads the global epoch E and announces it in the slot
//     BEFORE the reader loads a protected pointer, and clears the slot once
//     the reader is done with everything it loaded.
//   * A writer unlinks an object (pointer exchange) first, then stamps it
//     with E and bumps E. An object stamped e is freed once no slot
//     announces an epoch <= e: a reader announcing a > e loaded E after the
//     bump, so it loaded the pointer after the unlink and cannot hold the
//     object. Announcements, pointer loads, the bump, the links of the
//     registry list and a retirer's walk of them are seq_cst operations on
//     the atomics themselves — no standalone fences, which ThreadSanitizer
//     does not model — and the argument is the single total order of
//     seq_cst operations: a new thread links its slot before it announces,
//     so a retirer's walk that follows the announcement in that order finds
//     the slot (with acquire/release links the walk could miss it — the
//     store-buffering shape). The clear is a release store: a retirer's
//     seq_cst load that reads it acquires the reader's accesses.
//   * Writers never wait: retire() frees what it can and keeps the rest,
//     and the owning thread runs collect() while the list is not empty, so
//     a stalled reader delays frees, never a publish, and a retired object
//     is freed soon after the last reader that could hold it leaves, with
//     no further retire. With no reader inside a guard, a retire frees
//     everything at once.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace costream::reclaim {

/// One reader thread's announcement, alone on its cache line.
struct alignas(64) Slot {
  std::atomic<std::uint64_t> announced{0};  // epoch read at; 0 = none held
  std::atomic<bool> in_use{false};
  std::size_t index = 0;            // registry position: 0, 1, 2, ...
  std::atomic<Slot*> next{nullptr};  // registry link, set once
};

/// The process-wide slot list and epoch clock. Trivially destructible, so
/// it outlives every thread: a thread that exits after main() returns can
/// still hand its slot back. Slots are never freed, only reused.
class Registry {
 public:
  static Registry& instance() noexcept {
    static Registry r;
    return r;
  }

  std::atomic<std::uint64_t>& clock() noexcept { return epoch_; }

  /// The free slot with the lowest index for the calling thread, appended
  /// at the tail when every slot is taken.
  Slot& acquire() {
    Slot* fresh = nullptr;
    std::atomic<Slot*>* link = &head_;
    std::size_t index = 0;
    for (;;) {
      Slot* s = link->load(std::memory_order_seq_cst);
      if (s == nullptr) {
        if (fresh == nullptr) {
          fresh = new Slot;
          fresh->in_use.store(true, std::memory_order_relaxed);
        }
        fresh->index = index;
        if (link->compare_exchange_strong(s, fresh, std::memory_order_seq_cst)) {
          return *fresh;
        }
        // Another thread appended first; `s` is its slot, walk on.
      }
      bool expected = false;
      if (!s->in_use.load(std::memory_order_relaxed) &&
          s->in_use.compare_exchange_strong(expected, true, std::memory_order_acquire)) {
        delete fresh;
        return *s;
      }
      index = s->index + 1;
      link = &s->next;
    }
  }

  static void release(Slot& s) noexcept {
    s.announced.store(0, std::memory_order_release);
    s.in_use.store(false, std::memory_order_release);
  }

  /// The oldest epoch any reader announces, or the maximum when none does.
  std::uint64_t oldest_reader() const noexcept {
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (const Slot* s = head_.load(std::memory_order_seq_cst); s != nullptr;
         s = s->next.load(std::memory_order_seq_cst)) {
      const std::uint64_t a = s->announced.load(std::memory_order_seq_cst);
      if (a != 0 && a < oldest) oldest = a;
    }
    return oldest;
  }

 private:
  std::atomic<std::uint64_t> epoch_{1};  // 0 is the "holds nothing" mark
  std::atomic<Slot*> head_{nullptr};
};

namespace detail {

inline Slot*& tls_slot() noexcept {
  static thread_local Slot* s = nullptr;
  return s;
}

/// Hands the thread's slot back when the thread exits.
struct SlotReturn {
  ~SlotReturn() {
    if (Slot* s = tls_slot()) {
      Registry::release(*s);
      tls_slot() = nullptr;
    }
  }
};

inline Slot& first_slot() {
  static thread_local SlotReturn on_exit;  // registers the exit hook once
  (void)on_exit;
  tls_slot() = &Registry::instance().acquire();
  return *tls_slot();
}

}  // namespace detail

/// The calling thread's slot, taken from the registry on first use.
inline Slot& this_thread_slot() {
  Slot* s = detail::tls_slot();
  return s != nullptr ? *s : detail::first_slot();
}

/// Protects every object the calling thread loads through a retiring
/// pointer while the guard lives. Guards nest: an inner guard keeps the
/// outer one's older announcement, which protects everything the inner
/// one would, and leaves clearing it to the outer guard.
class ReadGuard {
 public:
  ReadGuard()
      : slot_(this_thread_slot()),
        outer_(slot_.announced.load(std::memory_order_relaxed) != 0) {
    if (!outer_) {
      slot_.announced.store(Registry::instance().clock().load(std::memory_order_seq_cst),
                            std::memory_order_seq_cst);
    }
  }
  ~ReadGuard() {
    if (!outer_) slot_.announced.store(0, std::memory_order_release);
  }
  ReadGuard(const ReadGuard&) = delete;
  ReadGuard& operator=(const ReadGuard&) = delete;

  /// The slot's registry index (per-thread counter stripes).
  std::size_t slot_index() const noexcept { return slot_.index; }

 private:
  Slot& slot_;
  bool outer_;  // a guard further out already announces
};

/// Objects one thread unlinked and has not freed yet, of any types.
/// Single-threaded: one thread retires into a list and runs its collects.
class RetireList {
 public:
  RetireList() = default;
  RetireList(const RetireList&) = delete;
  RetireList& operator=(const RetireList&) = delete;
  ~RetireList() {
    for (const Retired& r : items_) r.free(r.obj);
  }

  /// Take `old`, already unlinked from everywhere a reader could load it,
  /// then collect().
  template <class T>
  void retire(const T* old) {
    if (old == nullptr) return;
    items_.push_back(Retired{Registry::instance().clock().fetch_add(1, std::memory_order_seq_cst),
                             old, [](const void* p) { delete static_cast<const T*>(p); }});
    collect();
  }

  /// Free every object on the list no reader can still hold.
  void collect() {
    if (items_.empty()) return;
    const std::uint64_t oldest = Registry::instance().oldest_reader();
    std::size_t kept = 0;
    for (const Retired& r : items_) {
      if (r.epoch < oldest) {
        r.free(r.obj);
      } else {
        items_[kept++] = r;
      }
    }
    items_.resize(kept);
  }

  bool empty() const noexcept { return items_.empty(); }

 private:
  struct Retired {
    std::uint64_t epoch;
    const void* obj;
    void (*free)(const void*);
  };
  std::vector<Retired> items_;
};

}  // namespace costream::reclaim
