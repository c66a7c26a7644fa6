// Inputs, samples and process probes for costream_e2e: key/value encoding,
// the Zipf generator, latency sample sets, and the /proc and getrusage
// readers behind the write-amplification and CPU metrics.
#pragma once

#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/entry.hpp"
#include "common/rng.hpp"

namespace e2e {

using costream::Key;
using costream::Value;

// -- keys and values -----------------------------------------------------------

/// Keys are mix64(rank ^ salt): mix64 is a bijection on 64-bit words, so
/// distinct ranks give distinct keys, spread uniformly over the key space.
/// The salt comes from the seed and the round, so the seed reaches the
/// library only through the generated keys.
struct KeyGen {
  std::uint64_t salt = 0;
  Key key(std::uint64_t rank) const noexcept {
    return costream::mix64(rank ^ salt);
  }
};

/// Values encode (rank, version), so every read can be checked.
inline Value encode(std::uint64_t rank, std::uint32_t version) noexcept {
  return (rank << 24) | version;
}
inline std::uint64_t rank_of(Value v) noexcept { return v >> 24; }
inline std::uint32_t version_of(Value v) noexcept {
  return static_cast<std::uint32_t>(v & 0xffffff);
}

/// Order-independent digest of a dictionary's contents.
inline std::uint64_t digest_entry(Key k, Value v) noexcept {
  return costream::mix64(k ^ costream::mix64(v));
}

/// Zipfian ranks over [0, n) (Gray et al., "Quickly generating
/// billion-record synthetic databases", the YCSB generator). Rank 0 is the
/// hottest; keys are hashed from ranks, so hot keys scatter over the key
/// space.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : n_(n) {
    double zetan = 0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan);
    second_ = zeta2;
  }

  std::uint64_t next(costream::Xoshiro256& rng) const {
    const double u = rng.unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < second_) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

 private:
  std::uint64_t n_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0, second_ = 0;
};

// -- latency samples -------------------------------------------------------------

/// Exact latency samples in nanoseconds. When the buffer fills it keeps
/// every second sample and doubles its stride, so a long run stays bounded
/// in memory while the kept samples still span the whole run evenly.
class Samples {
 public:
  explicit Samples(std::size_t cap = std::size_t{1} << 22) : cap_(cap) {
    v_.reserve(std::min<std::size_t>(cap, 1u << 16));
  }

  void add(std::uint64_t ns) {
    if (++seen_ % stride_ != 0) return;
    if (v_.size() == cap_) {
      std::size_t j = 0;
      for (std::size_t i = 1; i < v_.size(); i += 2) v_[j++] = v_[i];
      v_.resize(j);
      stride_ *= 2;
    }
    v_.push_back(static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, UINT32_MAX)));
  }

  void merge(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  void clear() {
    v_.clear();
    seen_ = 0;
    stride_ = 1;
  }
  std::size_t size() const noexcept { return v_.size(); }
  bool empty() const noexcept { return v_.empty(); }

  /// Nearest-rank percentile in nanoseconds (0 when empty).
  double percentile_ns(double p) const {
    if (v_.empty()) return 0;
    std::vector<std::uint32_t> s(v_);
    const auto idx = static_cast<std::size_t>(
        std::max(0.0, std::ceil(p * static_cast<double>(s.size())) - 1));
    std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(idx),
                     s.end());
    return static_cast<double>(s[idx]);
  }

 private:
  std::vector<std::uint32_t> v_;
  std::size_t cap_;
  std::uint64_t seen_ = 0;
  std::uint64_t stride_ = 1;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Each round's p50 and p99; a run reports the median over rounds, so a
/// burst of interference from other tenants of a shared host that spans a
/// minority of rounds does not move the result.
struct RoundPercentiles {
  std::vector<double> p50_us, p99_us;
  std::uint64_t samples = 0;

  void take(const Samples& s) {
    if (s.empty()) return;
    p50_us.push_back(s.percentile_ns(0.50) / 1e3);
    p99_us.push_back(s.percentile_ns(0.99) / 1e3);
    samples += s.size();
  }
};

// -- process probes ----------------------------------------------------------------

/// Bytes this process passed to write(2) and friends (/proc/self/io).
inline std::uint64_t proc_wchar() {
  std::ifstream in("/proc/self/io");
  std::string k;
  std::uint64_t v = 0;
  while (in >> k >> v) {
    if (k == "wchar:") return v;
  }
  return 0;
}

inline std::uint64_t thread_cpu_ns() {
  struct timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

struct ProcUsage {
  double cpu_s = 0;
  long minflt = 0, nvcsw = 0, nivcsw = 0;
  double peak_rss_mb = 0;

  static ProcUsage now() {
    struct rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    ProcUsage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
    u.minflt = ru.ru_minflt;
    u.nvcsw = ru.ru_nvcsw;
    u.nivcsw = ru.ru_nivcsw;
    u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
    return u;
  }
};

/// Total size of the regular files under `dir`.
inline std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

/// The filesystem type under `dir`: tmpfs makes fsync free, so every
/// result records where its data directory lived.
inline std::string fs_type(const std::string& dir) {
  struct statfs s{};
  if (::statfs(dir.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

/// Whether the kernel lets this process count hardware cache misses. VMs
/// without a virtual PMU refuse with ENOENT; the benchmark then reports
/// only software-side metrics.
inline std::string probe_hw_counters() {
  struct perf_event_attr a{};
  a.type = PERF_TYPE_HARDWARE;
  a.size = sizeof a;
  a.config = PERF_COUNT_HW_CACHE_MISSES;
  a.disabled = 1;
  a.exclude_kernel = 1;
  a.exclude_hv = 1;
  const long fd = ::syscall(SYS_perf_event_open, &a, 0, -1, -1, 0);
  if (fd < 0) {
    const char* name = ::strerrorname_np(errno);
    return std::string("unavailable (") + (name != nullptr ? name : "?") + ")";
  }
  ::close(static_cast<int>(fd));
  return "available (not sampled)";
}

}  // namespace e2e
