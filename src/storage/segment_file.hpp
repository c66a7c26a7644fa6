// Immutable checksummed segment spill files — the on-disk form of one
// sorted Gcola segment once a fold past spill_depth (or a checkpoint) lands
// it on storage, and the form reopen adopts back into memory.
//
// Layout:
//   [u64 magic "COSSEG01"]
//   block*   : [u32 crc32c(body)] [u32 count] count x { u64 k, u64 v, u8 f }
//   index    : per block { u64 offset, u32 count, u64 min_key, u64 max_key }
//   tail(32) : { u64 index_offset, u32 index_crc, u32 block_count,
//                u64 total_count, u64 magic }
//
// Entries are strictly ascending by key across the whole file; flags bit0
// marks a tombstone. The blocks follow one another with no gaps, and the
// per-block (min_key, max_key) fences in the footer must equal each
// block's first and last key.
//
// A file is only ever read whole: reopen decodes it in one pass into the
// key/value/flag planes of an in-memory segment (read_segment_file), which
// validates every CRC and every structural claim before trusting a byte;
// any mismatch throws CorruptionError (never UB on a bit-flipped file).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "common/snapshot.hpp"
#include "storage/env.hpp"

namespace costream::storage {

inline constexpr std::uint64_t kSegmentMagic = 0x434f535345473031ULL;  // COSSEG01

struct SegmentEntry {
  std::uint64_t key;
  std::uint64_t value;
  std::uint8_t flags;  // bit0 = tombstone
};

inline constexpr std::uint8_t kEntryTombstone = 1;
// The in-memory segment's tombstone flag (snap::Item), which decoded planes
// carry in place of the file's bit0.
inline constexpr std::uint8_t kPlaneTombstone = snap::Item<>::kFlagTombstone;

namespace seg_detail {

inline constexpr std::size_t kEntryBytes = 17;
inline constexpr std::size_t kBlockHeaderBytes = 8;
inline constexpr std::size_t kIndexEntryBytes = 28;
inline constexpr std::size_t kTailBytes = 32;

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

inline std::string segment_name(std::uint64_t seg_id) {
  return "seg-" + std::to_string(seg_id) + ".seg";
}

}  // namespace seg_detail

/// Streams ascending entries into a segment file. finish() writes the
/// footer and fsyncs; the caller still owns making the NAME durable
/// (sync_dir) before referencing the file from the manifest.
class SegmentWriter {
 public:
  SegmentWriter(StorageEnv& env, const std::string& name,
                std::size_t block_bytes = 4096)
      : file_(env.create(name)),
        entries_per_block_(std::max<std::size_t>(
            1, (block_bytes - seg_detail::kBlockHeaderBytes) /
                   seg_detail::kEntryBytes)) {
    out_.resize(kWriteChunkBytes);
    std::memcpy(out_.data(), &kSegmentMagic, 8);
    out_len_ = 8;
  }

  /// Entries arrive in ascending key order. They are encoded in place
  /// into a staging buffer that reaches the file in large chunks — at
  /// spill rates, per-entry string appends and a write(2) pair per block
  /// cost more than the encode itself.
  void add(const SegmentEntry& e) {
    if (in_block_ == 0) {
      begin_block();
      block_min_ = e.key;
    }
    std::memcpy(p_, &e.key, 8);
    std::memcpy(p_ + 8, &e.value, 8);
    p_[16] = static_cast<char>(e.flags);
    p_ += seg_detail::kEntryBytes;
    block_max_ = e.key;
    ++in_block_;
    ++total_count_;
    if (in_block_ >= entries_per_block_) end_block();
  }

  /// Flush the last block, write index + tail, fsync the file.
  void finish() {
    end_block();
    const std::uint64_t index_offset = flushed_ + out_len_;
    std::string index;
    index.reserve(index_.size() * seg_detail::kIndexEntryBytes);
    for (const auto& b : index_) {
      seg_detail::put_u64(index, b.offset);
      seg_detail::put_u32(index, b.count);
      seg_detail::put_u64(index, b.min_key);
      seg_detail::put_u64(index, b.max_key);
    }
    std::string tail;
    seg_detail::put_u64(tail, index_offset);
    seg_detail::put_u32(tail, crc32c(index.data(), index.size()));
    seg_detail::put_u32(tail, static_cast<std::uint32_t>(index_.size()));
    seg_detail::put_u64(tail, total_count_);
    seg_detail::put_u64(tail, kSegmentMagic);
    if (out_len_ > 0) file_->append(out_.data(), out_len_);
    out_len_ = 0;
    file_->append(index.data(), index.size());
    file_->append(tail.data(), tail.size());
    file_->sync();
  }

 private:
  struct BlockMeta {
    std::uint64_t offset;
    std::uint32_t count;
    std::uint64_t min_key;
    std::uint64_t max_key;
  };

  // Staged bytes reach the file in chunks of this size (plus whatever
  // finish() still holds) — one write(2) per ~16 blocks at the default
  // block size instead of two per block.
  static constexpr std::size_t kWriteChunkBytes = 256u << 10;

  /// Open a block: header placeholder plus room for a full block's
  /// entries. `p_` walks the entry region (stable until end_block — no
  /// resize happens while a block is open).
  void begin_block() {
    block_start_ = out_len_;
    const std::size_t need = seg_detail::kBlockHeaderBytes +
                             entries_per_block_ * seg_detail::kEntryBytes;
    if (out_len_ + need > out_.size()) {
      out_.resize(std::max(out_len_ + need, out_.size() * 2));
    }
    p_ = out_.data() + block_start_ + seg_detail::kBlockHeaderBytes;
  }

  /// Close the open block: trim to the entries actually written, patch
  /// the CRC/count header, record the fence keys, maybe drain the buffer.
  void end_block() {
    if (in_block_ == 0) return;
    const std::size_t body_len = in_block_ * seg_detail::kEntryBytes;
    out_len_ = block_start_ + seg_detail::kBlockHeaderBytes + body_len;
    char* base = out_.data() + block_start_;
    const std::uint32_t crc =
        crc32c(base + seg_detail::kBlockHeaderBytes, body_len);
    const std::uint32_t count32 = static_cast<std::uint32_t>(in_block_);
    std::memcpy(base, &crc, 4);
    std::memcpy(base + 4, &count32, 4);
    index_.push_back({flushed_ + block_start_, count32, block_min_, block_max_});
    in_block_ = 0;
    if (out_len_ >= kWriteChunkBytes) {
      file_->append(out_.data(), out_len_);
      flushed_ += out_len_;
      out_len_ = 0;
    }
  }

  std::unique_ptr<WritableFile> file_;
  std::size_t entries_per_block_;
  // Staging arena: out_[0, out_len_) holds encoded blocks not yet written;
  // out_.size() is capacity only (no zero-filling resize per block).
  std::string out_;
  std::size_t out_len_ = 0;
  std::uint64_t flushed_ = 0;
  std::size_t block_start_ = 0;
  char* p_ = nullptr;
  std::size_t in_block_ = 0;
  std::uint64_t block_min_ = 0;
  std::uint64_t block_max_ = 0;
  std::vector<BlockMeta> index_;
  std::uint64_t total_count_ = 0;
};

/// One segment file decoded into the in-memory segment's plane layout:
/// keys strictly ascending, vals[i] belonging to keys[i], and flags[i]
/// carrying snap::Item's tombstone bit — ready to move into a
/// snap::Segment without another copy.
struct SegmentPlanes {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> vals;
  std::vector<std::uint8_t> flags;
};

/// Read one whole segment file and decode it into planes. Nothing is
/// trusted before it is checked: the magic at both ends, the footer's
/// geometry, the index CRC, blocks that tile the data region exactly in
/// index order, each block's CRC and count, keys strictly ascending within
/// and across blocks, and fences equal to each block's first and last key.
/// Any mismatch throws CorruptionError (never UB on a bit-flipped file); a
/// file that cannot be opened or read throws the env's IOError.
inline SegmentPlanes read_segment_file(StorageEnv& env, const std::string& name) {
  using namespace seg_detail;
  const auto corrupt = [&](const char* what) {
    return CorruptionError("segment " + name + ": " + what);
  };
  const std::unique_ptr<RandomReadFile> file = env.open_read(name);
  const std::uint64_t fsize = file->size();
  if (fsize < 8 + kTailBytes) throw corrupt("file too small");
  const auto data = std::make_unique_for_overwrite<char[]>(fsize);
  read_fully(*file, 0, data.get(), fsize);
  const char* d = data.get();
  const char* tail = d + fsize - kTailBytes;
  if (get_u64(d) != kSegmentMagic) throw corrupt("bad magic");
  if (get_u64(tail + 24) != kSegmentMagic) throw corrupt("bad tail magic");
  const std::uint64_t index_offset = get_u64(tail);
  const std::uint32_t block_count = get_u32(tail + 12);
  const std::uint64_t index_bytes =
      static_cast<std::uint64_t>(block_count) * kIndexEntryBytes;
  if (index_offset < 8 || index_offset > fsize ||
      fsize - index_offset != index_bytes + kTailBytes) {
    throw corrupt("inconsistent footer");
  }
  const char* index = d + index_offset;
  if (crc32c(index, index_bytes) != get_u32(tail + 8)) {
    throw corrupt("index CRC mismatch");
  }
  // The blocks must tile [8, index_offset) in index order, so every data
  // byte sits under a block CRC, and the total count is bounded by the
  // file size before anything is allocated for it.
  std::uint64_t at = 8, total = 0;
  for (std::uint32_t b = 0; b < block_count; ++b) {
    const char* m = index + b * kIndexEntryBytes;
    const std::uint32_t count = get_u32(m + 8);
    const std::uint64_t bytes = kBlockHeaderBytes + std::uint64_t{count} * kEntryBytes;
    if (get_u64(m) != at || count == 0 || index_offset - at < bytes) {
      throw corrupt("invalid block index");
    }
    at += bytes;
    total += count;
  }
  if (at != index_offset) throw corrupt("blocks do not tile the data region");
  if (total != get_u64(tail + 16)) throw corrupt("entry count mismatch");
  SegmentPlanes out;
  out.keys.resize(total);
  out.vals.resize(total);
  out.flags.resize(total);
  std::size_t i = 0;
  for (std::uint32_t b = 0; b < block_count; ++b) {
    const char* m = index + b * kIndexEntryBytes;
    const char* block = d + get_u64(m);
    const std::uint32_t count = get_u32(m + 8);
    const char* body = block + kBlockHeaderBytes;
    if (get_u32(block + 4) != count ||
        crc32c(body, count * kEntryBytes) != get_u32(block)) {
      throw corrupt("block CRC mismatch");
    }
    const std::size_t first = i;
    for (const char* e = body; e != body + count * kEntryBytes; e += kEntryBytes, ++i) {
      out.keys[i] = get_u64(e);
      out.vals[i] = get_u64(e + 8);
      out.flags[i] = (e[16] & kEntryTombstone) != 0 ? kPlaneTombstone : 0;
      if (i > 0 && out.keys[i] <= out.keys[i - 1]) throw corrupt("unsorted entries");
    }
    if (out.keys[first] != get_u64(m + 12) || out.keys[i - 1] != get_u64(m + 20)) {
      throw corrupt("fence/block mismatch");
    }
  }
  return out;
}

}  // namespace costream::storage
