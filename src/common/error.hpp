// Typed error hierarchy for the durable tier.
//
// The split matters operationally: CorruptionError means bytes failed an
// integrity check (a CRC, magic, or structural validation) — retrying will
// not help and the caller must decide between strict failure and read-only
// degradation; IOError means the device said no; TransientIOError is the
// retryable subset (storage::with_retry backs off and retries those);
// CrashError is the fault-injection env's scheduled power-cut, and
// ReadOnlyError is the surface a degraded dictionary presents to mutators.
#pragma once

#include <stdexcept>
#include <string>

namespace costream {

/// Data failed an integrity check: bad magic, CRC mismatch, truncation,
/// or structurally invalid content. Never retryable.
class CorruptionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A storage operation failed permanently (or exhausted its retries).
class IOError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A storage operation failed transiently (EIO-style); the caller may
/// retry with backoff — see storage::with_retry.
class TransientIOError : public IOError {
 public:
  using IOError::IOError;
};

/// The fault-injection environment reached its scheduled crash point: the
/// simulated machine has lost power. Every subsequent operation on that
/// env throws until the harness applies the crash and reopens.
class CrashError : public IOError {
 public:
  using IOError::IOError;
};

/// The dictionary recovered in read-only mode after unrecoverable
/// corruption; mutations are rejected with this error, reads still work.
class ReadOnlyError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

}  // namespace costream
