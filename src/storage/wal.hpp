// Record-oriented write-ahead log for the durable dictionary.
//
// One WAL record per mutation call (insert / erase / *_batch), stamped with
// the last sequence number the call consumed. Framing per record:
//
//   [u32 crc32c(payload)] [u32 payload_len] [payload]
//   payload = [u64 last_seqno] [u8 kind=1] [u32 count]
//             count x { u64 key, u64 value, u8 flags }   (flags bit0 = delete)
//
// count and payload_len are u32s, so a call of more than kMaxRecordEntries
// entries is refused with std::length_error before anything is framed.
//
// Group commit: appends accumulate in a user-space buffer and reach the
// file when the buffer crosses group_commit_bytes (or on sync()). The
// fsync policy decides durability: kAlways fsyncs every record, kBatch
// fsyncs when a flushed group crosses the threshold, kNever leaves
// durability to the OS. Files rotate at wal_segment_bytes ("wal-<n>.log",
// monotonically numbered); old files are deleted by checkpoint once the
// manifest covers their records.
//
// Replay walks files in numeric order. A record that fails its CRC (or is
// cut short) splits into two cases by the durable boundary the caller
// vouches for (the manifest's durable_seqno): if an intact record AT OR
// BELOW that boundary follows the break, a sync barrier covered the broken
// region — that is mid-log corruption and replay throws rather than
// silently truncating acknowledged-durable records. Otherwise everything
// past the break was never promised durable, so the break is a legal torn
// tail: replay truncates it in place (a tear in a non-final file also
// drops all later files in tolerant mode; strict mode throws).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "storage/env.hpp"

namespace costream::storage {

enum class FsyncPolicy : int {
  kAlways = 0,  // fsync after every record — maximal durability
  kBatch = 1,   // fsync when a flushed group crosses group_commit_bytes
  kNever = 2,   // no explicit fsync — OS decides (fastest, weakest)
};

struct WalRecord {
  std::uint64_t last_seqno = 0;
  // flags bit0 set = tombstone (delete), clear = put.
  struct Entry {
    std::uint64_t key;
    std::uint64_t value;
    std::uint8_t flags;
  };
  std::vector<Entry> entries;
};

namespace wal_detail {

inline constexpr std::uint8_t kRecordKindOps = 1;
inline constexpr std::size_t kHeaderBytes = 8;     // crc + len
inline constexpr std::size_t kEntryBytes = 17;     // key + value + flags
inline constexpr std::size_t kPayloadFixed = 13;   // seqno + kind + count
// Most entries one record can frame: its count and payload length are u32s.
inline constexpr std::size_t kMaxRecordEntries =
    (std::numeric_limits<std::uint32_t>::max() - kPayloadFixed) / kEntryBytes;

inline void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out.append(b, 4);
}

inline void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}

inline std::uint32_t get_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline std::uint64_t get_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline std::string wal_name(std::uint64_t no) {
  return "wal-" + std::to_string(no) + ".log";
}

/// Parses "wal-<n>.log" -> n; returns false for any other name.
inline bool parse_wal_name(const std::string& name, std::uint64_t& no) {
  if (name.size() < 9 || name.compare(0, 4, "wal-") != 0 ||
      name.compare(name.size() - 4, 4, ".log") != 0) {
    return false;
  }
  no = 0;
  for (std::size_t i = 4; i + 4 < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    no = no * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return true;
}

}  // namespace wal_detail

struct WalOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kBatch;
  std::size_t group_commit_bytes = 64u << 10;
  std::size_t wal_segment_bytes = 4u << 20;
};

class WalWriter {
 public:
  /// Starts a fresh WAL file numbered `file_no`. The file NAME is made
  /// durable immediately (create + sync_dir) so recovery can find it.
  WalWriter(StorageEnv& env, WalOptions opts, std::uint64_t file_no)
      : env_(env), opts_(opts), file_no_(file_no) {
    open_fresh();
  }

  /// Clean close: flush + sync the group-commit arena so a clean shutdown
  /// never drops acknowledged records — without this, up to
  /// group_commit_bytes of buffered appends would vanish on destruction
  /// under kBatch/kNever. Best-effort (destructors must not throw): after
  /// a failure or an injected crash the records are simply not durable,
  /// which is exactly the loss the fsync policy already permits there.
  ~WalWriter() {
    if (poisoned_ || !file_) return;
    try {
      flush_buffer();
      file_->sync();
      durable_seqno_ = last_seqno_;
    } catch (...) {
    }
  }

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Encode and append one record. Returns after the record is at least
  /// buffered; durability follows the fsync policy.
  void append_record(const WalRecord& rec) {
    const WalRecord::Entry* e = rec.entries.data();
    append_encoded(rec.last_seqno, rec.entries.size(), [e](char* p, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i, p += wal_detail::kEntryBytes) {
        std::memcpy(p, &e[i].key, 8);
        std::memcpy(p + 8, &e[i].value, 8);
        p[16] = static_cast<char>(e[i].flags);
      }
    });
  }

  /// Encode one record straight from an op array — the durable
  /// dictionary's hot path, skipping the WalRecord staging copy. `OpT`
  /// needs `key`/`value` (8 bytes each) and a bool-convertible `erase`.
  template <class OpT>
  void append_ops(std::uint64_t last_seqno, const OpT* ops, std::size_t n) {
    append_encoded(last_seqno, n, [ops](char* p, std::size_t cnt) {
      for (std::size_t i = 0; i < cnt; ++i, p += wal_detail::kEntryBytes) {
        std::memcpy(p, &ops[i].key, 8);
        std::memcpy(p + 8, &ops[i].value, 8);
        p[16] = ops[i].erase ? 1 : 0;
      }
    });
  }

  /// Encode one record straight from a put-only entry array (flags = 0 for
  /// every entry) — the pure-insert bulk path, skipping both the WalRecord
  /// staging copy and any Entry -> Op widening. `EntryT` needs `key` and
  /// `value` (8 bytes each).
  template <class EntryT>
  void append_puts(std::uint64_t last_seqno, const EntryT* entries,
                   std::size_t n) {
    append_encoded(last_seqno, n, [entries](char* p, std::size_t cnt) {
      for (std::size_t i = 0; i < cnt; ++i, p += wal_detail::kEntryBytes) {
        std::memcpy(p, &entries[i].key, 8);
        std::memcpy(p + 8, &entries[i].value, 8);
        p[16] = 0;
      }
    });
  }

  /// Reject a call too large for one record with std::length_error — a
  /// wrapped length would read back as a CRC break and lose the call.
  /// Callers check before they read an entry or touch their own state.
  static void check_record_entries(std::size_t count) {
    if (count > wal_detail::kMaxRecordEntries) {
      throw std::length_error("wal: " + std::to_string(count) +
                              " entries in one call; a record holds at most " +
                              std::to_string(wal_detail::kMaxRecordEntries));
    }
  }

  /// Force everything buffered onto the device (group-commit barrier).
  void sync() {
    if (poisoned_) {
      throw IOError("wal: epoch poisoned by an earlier failed append");
    }
    flush_buffer();
    file_->sync();
    durable_seqno_ = last_seqno_;
  }

  /// Close the current file (synced) and start "wal-<n+1>.log". Used at
  /// segment-size rollover and by checkpoint to open a new epoch.
  /// Transactional: the writer switches to the new file only once its NAME
  /// is durable (create + sync_dir both succeeded) — otherwise a crash
  /// would silently erase every "durable" record appended after the
  /// switch. On failure the old file (and its number) stay current.
  void rotate() {
    sync();
    const std::uint64_t next = file_no_ + 1;
    auto f = env_.create(wal_detail::wal_name(next));
    env_.sync_dir();
    file_ = std::move(f);
    file_no_ = next;
    buf_len_ = 0;
  }

  /// Highest seqno known durable under the policy (kNever: only what an
  /// explicit sync() covered).
  std::uint64_t durable_seqno() const noexcept { return durable_seqno_; }
  std::uint64_t bytes_logged() const noexcept { return bytes_logged_; }
  std::uint64_t file_no() const noexcept { return file_no_; }
  /// True once a failed append could not be unwound from the device; the
  /// epoch is dead (all writes throw) and the owner must reopen.
  bool poisoned() const noexcept { return poisoned_; }

 private:
  /// Shared append core: frame `count` entries written by `fill(dst,
  /// count)` into the group-commit buffer in one pass (raw stores into
  /// the arena, header patched once the payload CRC is known — per-entry
  /// string appends and resize() zero-fills are measurable at WAL-on
  /// ingest rates), then run the fsync policy with exactly-once unwind on
  /// failure. A call past the record size bound throws before anything is
  /// framed.
  template <class Fill>
  void append_encoded(std::uint64_t last_seqno, std::size_t count,
                      Fill&& fill) {
    check_record_entries(count);
    if (poisoned_) {
      throw IOError("wal: epoch poisoned by an earlier failed append");
    }
    const std::size_t buf_before = buf_len_;
    const std::uint64_t file_before = file_->size();
    const std::size_t payload_len =
        wal_detail::kPayloadFixed + count * wal_detail::kEntryBytes;
    const std::size_t framed_size = wal_detail::kHeaderBytes + payload_len;
    if (buf_len_ + framed_size > buf_.size()) {
      buf_.resize(std::max(buf_len_ + framed_size, buf_.size() * 2 + 4096));
    }
    char* base = buf_.data() + buf_before;
    buf_len_ += framed_size;
    char* p = base + wal_detail::kHeaderBytes;
    std::memcpy(p, &last_seqno, 8);
    p[8] = static_cast<char>(wal_detail::kRecordKindOps);
    const std::uint32_t count32 = static_cast<std::uint32_t>(count);
    std::memcpy(p + 9, &count32, 4);
    fill(p + wal_detail::kPayloadFixed, count);
    const std::uint32_t crc = crc32c(p, payload_len);
    const std::uint32_t len32 = static_cast<std::uint32_t>(payload_len);
    std::memcpy(base, &crc, 4);
    std::memcpy(base + 4, &len32, 4);
    bytes_logged_ += framed_size;
    try {
      switch (opts_.fsync_policy) {
        case FsyncPolicy::kAlways:
          flush_buffer();
          file_->sync();
          durable_seqno_ = last_seqno;
          break;
        case FsyncPolicy::kBatch:
          if (buf_len_ >= opts_.group_commit_bytes) {
            flush_buffer();
            file_->sync();
            durable_seqno_ = last_seqno;
          }
          break;
        case FsyncPolicy::kNever:
          if (buf_len_ >= opts_.group_commit_bytes) flush_buffer();
          break;
      }
    } catch (const CrashError&) {
      throw;  // power cut: the record's fate is decided by torn-tail replay
    } catch (...) {
      // The caller is about to be told the append FAILED, so the framed
      // record must not be able to reach replay: a surviving record would
      // carry a last_seqno the dictionary will hand out again (it never
      // advanced), and two records claiming the same seqno range make
      // recovery ambiguous. Unwind exactly this record — from the buffer
      // if it never flushed, from the file tail if flush succeeded but the
      // sync failed. If even the unwind fails, poison the epoch: every
      // later append/sync/rotate on it throws, which keeps the phantom
      // record terminal (no later record can collide with it) until the
      // owner reopens with a fresh recovery.
      bytes_logged_ -= framed_size;
      try {
        if (buf_len_ > 0) {
          buf_len_ = buf_before;
          if (file_->size() > file_before) file_->truncate_to(file_before);
        } else {
          file_->truncate_to(file_->size() - framed_size);
        }
      } catch (...) {
        poisoned_ = true;
      }
      throw;
    }
    last_seqno_ = last_seqno;
    if (file_->size() + buf_len_ >= opts_.wal_segment_bytes) {
      try {
        rotate();
      } catch (const CrashError&) {
        throw;
      } catch (...) {
        // The record is already acknowledged per policy; a failed rollover
        // is retried by the next append's size check (a create that burned
        // a file number just leaves a legal numbering gap).
      }
    }
  }

  void open_fresh() {
    auto f = env_.create(wal_detail::wal_name(file_no_));
    env_.sync_dir();  // name durable before any record lands in the file
    file_ = std::move(f);
    buf_len_ = 0;
  }

  void flush_buffer() {
    if (buf_len_ == 0) return;
    const std::uint64_t before = file_->size();
    try {
      file_->append(buf_.data(), buf_len_);
    } catch (const CrashError&) {
      throw;
    } catch (...) {
      // A partial append would leave garbage mid-stream that a LATER flush
      // of the still-intact buffer would then follow with a second copy —
      // replay would stop at the garbage and silently drop synced records
      // behind it. Undo the partial bytes (or poison if we can't).
      if (file_->size() > before) {
        try {
          file_->truncate_to(before);
        } catch (...) {
          poisoned_ = true;
        }
      }
      throw;
    }
    buf_len_ = 0;
  }

  StorageEnv& env_;
  WalOptions opts_;
  std::uint64_t file_no_;
  std::unique_ptr<WritableFile> file_;
  // Group-commit arena: buf_[0, buf_len_) holds the framed records not
  // yet flushed; buf_.size() is just capacity (never shrunk, grown
  // without the zero-fill a resize-per-record would pay).
  std::string buf_;
  std::size_t buf_len_ = 0;
  std::uint64_t last_seqno_ = 0;
  std::uint64_t durable_seqno_ = 0;
  std::uint64_t bytes_logged_ = 0;
  bool poisoned_ = false;
};

struct WalReplayResult {
  std::uint64_t last_seqno = 0;    // highest seqno successfully replayed
  std::uint64_t next_file_no = 0;  // 1 + highest WAL file seen (0 if none)
  std::uint64_t records = 0;
  bool tore = false;  // a torn/corrupt tail was detected (and handled)
};

namespace wal_detail {

/// True when a fully intact, record-shaped frame starts at `off`: header
/// fits, payload in bounds, CRC matches, kind/count consistent, and the
/// stamped seqno lies in (min_seqno, max_seqno] — seqnos are globally
/// monotone, which kills the ~2^-32-per-offset chance of a CRC collision
/// in garbage, and max_seqno bounds the search to records a sync barrier
/// made durable.
inline bool intact_record_at(const std::string& d, std::size_t off,
                             std::uint64_t min_seqno,
                             std::uint64_t max_seqno) {
  if (off + kHeaderBytes > d.size()) return false;
  const std::uint32_t crc = get_u32(d.data() + off);
  const std::uint32_t len = get_u32(d.data() + off + 4);
  const std::size_t body = off + kHeaderBytes;
  if (len < kPayloadFixed || len > d.size() || body + len > d.size()) {
    return false;
  }
  if (crc32c(d.data() + body, len) != crc) return false;
  const std::uint8_t kind = static_cast<std::uint8_t>(d[body + 8]);
  const std::uint32_t count = get_u32(d.data() + body + 9);
  if (kind != kRecordKindOps ||
      kPayloadFixed + count * static_cast<std::size_t>(kEntryBytes) != len) {
    return false;
  }
  const std::uint64_t s = get_u64(d.data() + body);
  return s > min_seqno && s <= max_seqno;
}

/// Scan every byte offset in [from, end) for an intact frame. Only runs on
/// the corruption path, so the O(bytes) cost never touches normal replay.
inline bool intact_record_after(const std::string& d, std::size_t from,
                                std::uint64_t min_seqno,
                                std::uint64_t max_seqno) {
  for (std::size_t o = from; o + kHeaderBytes <= d.size(); ++o) {
    if (intact_record_at(d, o, min_seqno, max_seqno)) return true;
  }
  return false;
}

}  // namespace wal_detail

/// Replay every WAL file in `env` in numeric order, invoking `apply` for
/// each intact record whose last_seqno exceeds `covered_seqno`.
///
/// `durable_seqno` is the fsync boundary the caller can vouch for (the
/// manifest records it at install time; 0 when no manifest exists). It
/// splits CRC breaks into two classes:
///
/// * MID-LOG CORRUPTION — an intact record with seqno <= durable_seqno
///   follows the break. That region was covered by a sync barrier, so a
///   crash cannot have torn it; truncating would silently lose
///   acknowledged-durable records. Always throws CorruptionError (the
///   durable tier degrades to read-only on the consistent prefix in
///   tolerant mode).
/// * TORN TAIL — everything after the break is garbage or records never
///   covered by a barrier (a crash may legally tear, reorder, or drop
///   unsynced appends). Truncated in place; a tear in a non-final file
///   drops all later files (tolerant) or throws (strict).
inline WalReplayResult replay_wal(
    StorageEnv& env, std::uint64_t covered_seqno, std::uint64_t durable_seqno,
    bool strict, const std::function<void(const WalRecord&)>& apply) {
  std::vector<std::uint64_t> nos;
  for (const auto& name : env.list()) {
    std::uint64_t no;
    if (wal_detail::parse_wal_name(name, no)) nos.push_back(no);
  }
  std::sort(nos.begin(), nos.end());

  WalReplayResult res;
  for (std::size_t fi = 0; fi < nos.size(); ++fi) {
    const std::string name = wal_detail::wal_name(nos[fi]);
    auto file = env.open_read(name);
    const std::uint64_t fsize = file->size();
    std::string data(static_cast<std::size_t>(fsize), '\0');
    if (fsize > 0) read_fully(*file, 0, data.data(), data.size());

    std::size_t off = 0;
    bool tore_here = false;
    while (off + wal_detail::kHeaderBytes <= data.size()) {
      const std::uint32_t crc = wal_detail::get_u32(data.data() + off);
      const std::uint32_t len = wal_detail::get_u32(data.data() + off + 4);
      const std::size_t body = off + wal_detail::kHeaderBytes;
      if (len < wal_detail::kPayloadFixed || body + len > data.size() ||
          crc32c(data.data() + body, len) != crc) {
        tore_here = true;
        break;
      }
      const std::uint8_t kind = static_cast<std::uint8_t>(data[body + 8]);
      const std::uint32_t count = wal_detail::get_u32(data.data() + body + 9);
      if (kind != wal_detail::kRecordKindOps ||
          wal_detail::kPayloadFixed + count * wal_detail::kEntryBytes != len) {
        tore_here = true;
        break;
      }
      WalRecord rec;
      rec.last_seqno = wal_detail::get_u64(data.data() + body);
      rec.entries.reserve(count);
      const char* p = data.data() + body + wal_detail::kPayloadFixed;
      for (std::uint32_t i = 0; i < count; ++i, p += wal_detail::kEntryBytes) {
        rec.entries.push_back({wal_detail::get_u64(p), wal_detail::get_u64(p + 8),
                               static_cast<std::uint8_t>(p[16])});
      }
      if (rec.last_seqno > covered_seqno) {
        apply(rec);
        ++res.records;
      }
      res.last_seqno = std::max(res.last_seqno, rec.last_seqno);
      off = body + len;
    }
    if (off < data.size()) tore_here = true;

    if (tore_here) {
      // Tear vs corruption: look for an intact frame after the break —
      // in the rest of this file, then in any later file.
      bool intact_later = wal_detail::intact_record_after(
          data, off + 1, res.last_seqno, durable_seqno);
      for (std::size_t fj = fi + 1; !intact_later && fj < nos.size(); ++fj) {
        auto lf = env.open_read(wal_detail::wal_name(nos[fj]));
        std::string ldata(static_cast<std::size_t>(lf->size()), '\0');
        if (!ldata.empty()) read_fully(*lf, 0, ldata.data(), ldata.size());
        intact_later = wal_detail::intact_record_after(ldata, 0, res.last_seqno,
                                                       durable_seqno);
      }
      if (intact_later) {
        throw CorruptionError(
            "wal: corrupt record mid-log in " + name +
            " (intact records follow the break; refusing to truncate)");
      }
      res.tore = true;
      const bool final_file = fi + 1 == nos.size();
      if (!final_file && strict) {
        throw CorruptionError("wal: corrupt record in non-final file " + name);
      }
      env.truncate_file(name, off);
      // Anything after a tear is unordered garbage relative to the
      // consistent prefix — drop later files entirely.
      for (std::size_t fj = fi + 1; fj < nos.size(); ++fj) {
        env.remove_file(wal_detail::wal_name(nos[fj]));
      }
      env.sync_dir();
      res.next_file_no = nos[fi] + 1;
      return res;
    }
  }
  res.next_file_no = nos.empty() ? 0 : nos.back() + 1;
  return res;
}

}  // namespace costream::storage
