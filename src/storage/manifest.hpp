// Manifest: the single source of truth tying a WAL epoch to the live
// segment set. One small file, rewritten whole and installed atomically:
//
//   MANIFEST.tmp  <- encode + fsync
//   rename(MANIFEST.tmp, MANIFEST)
//   sync_dir()    <- the commit point
//
// Format:
//   [u64 magic "COSMAN01"] [u64 covered_seqno] [u64 durable_seqno]
//   [u64 next_file_no]
//   [u32 nsegs] nsegs x { u32 name_len, name, u64 seg_id, u32 level,
//                         u64 count }
//   [u32 crc32c(everything before)]
//
// covered_seqno: every op with seqno <= covered is fully represented by
// the listed segments; recovery replays only WAL records beyond it.
// durable_seqno: the WAL was fsynced through this seqno when the manifest
// was installed (every install happens right after a WAL sync barrier).
// Replay uses it to tell mid-log corruption (a CRC break below this
// boundary with intact records after it — durable data, never truncated)
// from a torn unsynced tail (safe to truncate; it was never acknowledged).
// Segments are listed in content-age order, oldest first: a checkpoint
// lists the deepest level first and each level's oldest segment first, and
// a spill appends its segment, the newest, after every file it keeps. So
// adopting them newest first, each below everything adopted before it
// (Gcola::adopt), reconstructs the exact pre-crash merge view. A segment's
// level is the one it had when the manifest was written — a spill's
// manifest is not rewritten when a later trivial move relocates the
// segment — so reopen reads it as a floor, not a placement; its count is
// checked against the file's.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "storage/env.hpp"

namespace costream::storage {

inline constexpr std::uint64_t kManifestMagic = 0x434f534d414e3031ULL;  // COSMAN01
inline constexpr const char* kManifestName = "MANIFEST";
inline constexpr const char* kManifestTmpName = "MANIFEST.tmp";
// No COLA geometry has this many levels: at g >= 2 the last one alone would
// hold more than 2^64 entries. A recorded level at or past it is corrupt.
inline constexpr std::uint32_t kManifestLevelLimit = 64;

struct SegmentMeta {
  std::string name;
  std::uint64_t seg_id = 0;
  std::uint32_t level = 0;
  std::uint64_t count = 0;
};

struct Manifest {
  std::uint64_t covered_seqno = 0;
  std::uint64_t durable_seqno = 0;  // WAL fsynced through here at install
  std::uint64_t next_file_no = 0;  // next WAL file number to allocate
  std::vector<SegmentMeta> segments;  // content-age order, oldest first
};

namespace manifest_detail {

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

}  // namespace manifest_detail

inline std::string encode_manifest(const Manifest& m) {
  std::string out;
  manifest_detail::put_u64(out, kManifestMagic);
  manifest_detail::put_u64(out, m.covered_seqno);
  manifest_detail::put_u64(out, m.durable_seqno);
  manifest_detail::put_u64(out, m.next_file_no);
  manifest_detail::put_u32(out, static_cast<std::uint32_t>(m.segments.size()));
  for (const auto& s : m.segments) {
    manifest_detail::put_u32(out, static_cast<std::uint32_t>(s.name.size()));
    out += s.name;
    manifest_detail::put_u64(out, s.seg_id);
    manifest_detail::put_u32(out, s.level);
    manifest_detail::put_u64(out, s.count);
  }
  manifest_detail::put_u32(out, crc32c(out.data(), out.size()));
  return out;
}

inline Manifest decode_manifest(const std::string& data) {
  if (data.size() < 40) throw CorruptionError("manifest: truncated");
  const std::uint32_t stored =
      manifest_detail::get_u32(data.data() + data.size() - 4);
  if (crc32c(data.data(), data.size() - 4) != stored) {
    throw CorruptionError("manifest: CRC mismatch");
  }
  if (manifest_detail::get_u64(data.data()) != kManifestMagic) {
    throw CorruptionError("manifest: bad magic");
  }
  Manifest m;
  m.covered_seqno = manifest_detail::get_u64(data.data() + 8);
  m.durable_seqno = manifest_detail::get_u64(data.data() + 16);
  m.next_file_no = manifest_detail::get_u64(data.data() + 24);
  const std::uint32_t nsegs = manifest_detail::get_u32(data.data() + 32);
  std::size_t off = 36;
  m.segments.reserve(nsegs);
  for (std::uint32_t i = 0; i < nsegs; ++i) {
    if (off + 4 > data.size() - 4) throw CorruptionError("manifest: truncated");
    const std::uint32_t nlen = manifest_detail::get_u32(data.data() + off);
    off += 4;
    if (nlen > 4096 || off + nlen + 20 > data.size() - 4) {
      throw CorruptionError("manifest: truncated");
    }
    SegmentMeta s;
    s.name.assign(data.data() + off, nlen);
    off += nlen;
    s.seg_id = manifest_detail::get_u64(data.data() + off);
    s.level = manifest_detail::get_u32(data.data() + off + 8);
    s.count = manifest_detail::get_u64(data.data() + off + 12);
    off += 20;
    if (s.level >= kManifestLevelLimit) {
      throw CorruptionError("manifest: level out of range");
    }
    m.segments.push_back(std::move(s));
  }
  if (off != data.size() - 4) throw CorruptionError("manifest: trailing bytes");
  return m;
}

/// Write + fsync MANIFEST.tmp, atomically rename over MANIFEST, commit
/// the namespace. On return (no exception) the manifest is durable.
inline void install_manifest(StorageEnv& env, const Manifest& m) {
  const std::string bytes = encode_manifest(m);
  auto f = env.create(kManifestTmpName);
  f->append(bytes.data(), bytes.size());
  f->sync();
  f.reset();
  env.rename_file(kManifestTmpName, kManifestName);
  env.sync_dir();
}

/// Load the current manifest; nullopt when none exists (fresh directory).
/// CorruptionError propagates — the caller decides strict vs read-only.
inline std::optional<Manifest> load_manifest(StorageEnv& env) {
  if (!env.exists(kManifestName)) return std::nullopt;
  auto f = env.open_read(kManifestName);
  std::string data(static_cast<std::size_t>(f->size()), '\0');
  if (!data.empty()) read_fully(*f, 0, data.data(), data.size());
  return decode_manifest(data);
}

}  // namespace costream::storage
