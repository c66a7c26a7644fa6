// Bench-side trace layer for costream_e2e.
//
// Every span here is recorded from OUTSIDE the library, around a call into
// one layer's public functions:
//   * TracedShard — the ShardedDictionary `Inner`, forwarding to a
//     DurableDictionary: times the worker-side apply, flush and view
//     publish (snapshot()) calls, and marks applies during which
//     DurableStats::checkpoints advanced.
//   * TimedEnv — a StorageEnv / WritableFile / RandomReadFile decorator
//     over PosixEnv: times appends (split by file kind), fsyncs, directory
//     fsyncs and reads.
// Spans go into per-thread buffers (no lock on the hot path) and are dumped
// at exit as Chrome trace-event JSON. A layer's self time is its span
// minus the child spans on the same thread.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/entry.hpp"
#include "common/snapshot.hpp"
#include "common/span.hpp"
#include "storage/durable_dict.hpp"
#include "storage/env.hpp"

namespace e2e {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class SpanKind : std::uint8_t {
  kPhaseSetup,
  kPhaseTimed,
  kPhaseCheck,
  kPhaseReopen,
  kPhaseVerify,
  kClientWrite,
  kClientScan,
  kShardApply,
  kShardFlush,
  kShardPublish,
  kCheckpoint,  // marker: same interval as the apply it happened in
  kWalAppend,
  kSegAppend,
  kMetaAppend,
  kFsync,
  kDirSync,
  kRead,
  kCount
};

inline const char* span_name(SpanKind k) {
  static constexpr const char* kNames[] = {
      "phase.setup",        "phase.timed",        "phase.check",
      "phase.reopen",       "phase.verify",       "client.write",
      "client.scan",        "shard.apply",        "shard.flush",
      "shard.publish",      "storage.checkpoint", "storage.wal_append",
      "storage.seg_append", "storage.meta_append", "storage.fsync",
      "storage.dir_sync",   "storage.read"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<std::size_t>(SpanKind::kCount));
  return kNames[static_cast<std::size_t>(k)];
}

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t arg = 0;     // bytes for appends/reads, ops for applies
  std::int32_t parent = -1;  // index in the same thread's buffer
  SpanKind kind = SpanKind::kCount;
};

/// Process-wide span store. `enabled` is set once, before any thread
/// records; with it off every hook is a single branch.
class Tracer {
 public:
  struct ThreadBuf {
    std::uint32_t tid = 0;
    std::vector<Span> spans;
    std::vector<std::int32_t> open;  // stack of unfinished span indices
  };

  static Tracer& instance() {
    static Tracer t;
    return t;
  }

  bool enabled() const noexcept { return enabled_; }
  void enable() { enabled_ = true; }

  std::int32_t begin(SpanKind k, std::uint64_t arg = 0) {
    ThreadBuf& b = local();
    Span s;
    s.kind = k;
    s.arg = arg;
    s.parent = b.open.empty() ? -1 : b.open.back();
    s.start_ns = now_ns();
    b.spans.push_back(s);
    const auto idx = static_cast<std::int32_t>(b.spans.size() - 1);
    b.open.push_back(idx);
    return idx;
  }

  void end(std::int32_t idx) {
    ThreadBuf& b = local();
    b.spans[static_cast<std::size_t>(idx)].end_ns = now_ns();
    b.open.pop_back();
  }

  void set_arg(std::int32_t idx, std::uint64_t arg) {
    local().spans[static_cast<std::size_t>(idx)].arg = arg;
  }

  /// A marker span covering exactly the interval of span `of` on this
  /// thread, as its sibling (so it never counts against `of`'s self time).
  void mark_like(std::int32_t of, SpanKind k) {
    ThreadBuf& b = local();
    Span s = b.spans[static_cast<std::size_t>(of)];
    s.kind = k;
    b.spans.push_back(s);
  }

  /// Visit every thread's buffer. Callers must be quiescent with respect
  /// to the recording threads (the benchmark only aggregates after a drain).
  template <class Fn>
  void for_each_thread(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : bufs_) fn(*b);
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds relative
  /// to the first span). Open in chrome://tracing or ui.perfetto.dev.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::uint64_t t0 = ~std::uint64_t{0};
    for_each_thread([&](const ThreadBuf& b) {
      for (const Span& s : b.spans) t0 = std::min(t0, s.start_ns);
    });
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    bool first = true;
    for_each_thread([&](const ThreadBuf& b) {
      for (std::size_t i = 0; i < b.spans.size(); ++i) {
        const Span& s = b.spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                     "\"parent\":%d,\"arg\":%llu}}",
                     first ? "" : ",\n", span_name(s.kind), b.tid,
                     static_cast<double>(s.start_ns - t0) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                     s.parent, static_cast<unsigned long long>(s.arg));
        first = false;
      }
    });
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  ThreadBuf& local() {
    thread_local ThreadBuf* tl = nullptr;
    if (tl == nullptr) {
      auto b = std::make_unique<ThreadBuf>();
      // Preallocated so steady-state recording never reallocates mid-run
      // (a round records a few thousand spans per thread).
      b->spans.reserve(1u << 15);
      b->open.reserve(16);
      std::lock_guard<std::mutex> lock(mu_);
      b->tid = static_cast<std::uint32_t>(bufs_.size());
      tl = b.get();
      bufs_.push_back(std::move(b));
    }
    return *tl;
  }

  bool enabled_ = false;
  mutable std::mutex mu_;  // guards bufs_ (registration and dump only)
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// RAII span: records only when tracing is enabled.
class SpanScope {
 public:
  explicit SpanScope(SpanKind k, std::uint64_t arg = 0) {
    Tracer& t = Tracer::instance();
    if (t.enabled()) idx_ = t.begin(k, arg);
  }
  ~SpanScope() {
    if (idx_ >= 0) Tracer::instance().end(idx_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::int32_t index() const noexcept { return idx_; }
  void set_arg(std::uint64_t arg) {
    if (idx_ >= 0) Tracer::instance().set_arg(idx_, arg);
  }

 private:
  std::int32_t idx_ = -1;
};

// -- TimedEnv ----------------------------------------------------------------

namespace storage = costream::storage;

class TimedWritableFile final : public storage::WritableFile {
 public:
  TimedWritableFile(std::unique_ptr<storage::WritableFile> f, SpanKind kind)
      : f_(std::move(f)), kind_(kind) {}

  void append(const void* data, std::size_t n) override {
    SpanScope s(kind_, n);
    f_->append(data, n);
  }
  void sync() override {
    SpanScope s(SpanKind::kFsync);
    f_->sync();
  }
  std::uint64_t size() const noexcept override { return f_->size(); }
  void truncate_to(std::uint64_t size) override { f_->truncate_to(size); }

 private:
  std::unique_ptr<storage::WritableFile> f_;
  SpanKind kind_;
};

class TimedReadFile final : public storage::RandomReadFile {
 public:
  explicit TimedReadFile(std::unique_ptr<storage::RandomReadFile> f)
      : f_(std::move(f)) {}

  std::size_t read(std::uint64_t offset, void* buf, std::size_t n) override {
    SpanScope s(SpanKind::kRead);
    const std::size_t got = f_->read(offset, buf, n);
    s.set_arg(got);
    return got;
  }
  std::uint64_t size() override { return f_->size(); }

 private:
  std::unique_ptr<storage::RandomReadFile> f_;
};

class TimedEnv final : public storage::StorageEnv {
 public:
  explicit TimedEnv(std::unique_ptr<storage::StorageEnv> inner)
      : inner_(std::move(inner)) {}

  std::unique_ptr<storage::WritableFile> create(const std::string& name) override {
    return std::make_unique<TimedWritableFile>(inner_->create(name),
                                               kind_of(name));
  }
  std::unique_ptr<storage::RandomReadFile> open_read(
      const std::string& name) override {
    return std::make_unique<TimedReadFile>(inner_->open_read(name));
  }
  bool exists(const std::string& name) override { return inner_->exists(name); }
  std::vector<std::string> list() override { return inner_->list(); }
  void rename_file(const std::string& from, const std::string& to) override {
    inner_->rename_file(from, to);
  }
  void remove_file(const std::string& name) override {
    inner_->remove_file(name);
  }
  void truncate_file(const std::string& name, std::uint64_t size) override {
    inner_->truncate_file(name, size);
  }
  void sync_dir() override {
    SpanScope s(SpanKind::kDirSync);
    inner_->sync_dir();
  }
  void sleep_us(std::uint64_t us) override { inner_->sleep_us(us); }

 private:
  // File-name prefixes written by storage/wal.hpp ("wal-") and
  // storage/segment_file.hpp ("seg-"); everything else is manifest state.
  static SpanKind kind_of(const std::string& name) {
    if (name.rfind("wal-", 0) == 0) return SpanKind::kWalAppend;
    if (name.rfind("seg-", 0) == 0) return SpanKind::kSegAppend;
    return SpanKind::kMetaAppend;
  }

  std::unique_ptr<storage::StorageEnv> inner_;
};

// -- TracedShard -------------------------------------------------------------

/// Pass-through `Inner` for ShardedDictionary that times the calls the
/// facade's worker makes. It forwards the part of DurableDictionary's
/// surface the facade and the benchmark use and never adds a member
/// DurableDictionary lacks that the facade probes for with a
/// requires-expression (publish_view, ...): the traced stack must take the
/// same code paths as the untraced one (static_asserts below).
class TracedShard {
  using Durable = storage::DurableDictionary;
  using Key = costream::Key;
  using Value = costream::Value;

 public:
  explicit TracedShard(Durable d) : d_(std::move(d)) {}

  void apply_batch(costream::Span<costream::Op<>> ops) {
    const std::uint64_t cps = d_.storage_stats().checkpoints;
    std::int32_t idx = -1;
    {
      SpanScope s(SpanKind::kShardApply, ops.size());
      idx = s.index();
      d_.apply_batch(ops);
    }
    ops_applied_ += ops.size();
    if (idx >= 0 && d_.storage_stats().checkpoints != cps) {
      Tracer::instance().mark_like(idx, SpanKind::kCheckpoint);
    }
  }

  void flush_stage() {
    SpanScope s(SpanKind::kShardFlush);
    d_.flush_stage();
  }
  void sync() { d_.sync(); }

  /// The facade's per-job view publish lands here (snap::publish_view
  /// falls back to snapshot() because DurableDictionary has no
  /// publish_view()).
  costream::snap::Snapshot<Key, Value> snapshot() const {
    SpanScope s(SpanKind::kShardPublish);
    return d_.snapshot();
  }

  auto make_cursor() const { return d_.make_cursor(); }  // check_invariants

  const storage::DurableStats& storage_stats() const noexcept {
    return d_.storage_stats();
  }
  const auto& inner() const noexcept { return d_.inner(); }
  bool read_only() const noexcept { return d_.read_only(); }
  void check_invariants() const { d_.check_invariants(); }

  /// Ops this shard's worker applied (bench-side count for imbalance).
  std::uint64_t ops_applied() const noexcept { return ops_applied_; }

 private:
  Durable d_;
  std::uint64_t ops_applied_ = 0;
};

template <class D>
concept ProbesPublishView = requires(const D& d) { d.publish_view(); };
template <class D>
concept ProbesSnapshot = requires(const D& d) { d.snapshot(); };
template <class D>
concept ProbesFlushStage = requires(D& d) { d.flush_stage(); };
template <class D>
concept ProbesCheckInvariants = requires(const D& d) { d.check_invariants(); };

static_assert(ProbesPublishView<TracedShard> ==
              ProbesPublishView<storage::DurableDictionary>);
static_assert(ProbesSnapshot<TracedShard> ==
              ProbesSnapshot<storage::DurableDictionary>);
static_assert(ProbesFlushStage<TracedShard> ==
              ProbesFlushStage<storage::DurableDictionary>);
static_assert(ProbesCheckInvariants<TracedShard> ==
              ProbesCheckInvariants<storage::DurableDictionary>);

}  // namespace e2e
