#ifndef MMDB_STORAGE_ENV_H_
#define MMDB_STORAGE_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace mmdb {

/// Kinds of raw file operations an `Env` performs. The fault-injecting
/// wrapper scripts faults against these, and logs every operation as one.
enum class IoOp : uint8_t {
  kOpen,
  kRead,
  kWrite,
  kSync,
  kTruncate,
};

/// Stable lowercase name for `op` ("open", "read", ...).
std::string_view IoOpName(IoOp op);

/// A random-access file handle. All offsets are absolute (pread/pwrite
/// style; no shared cursor), so callers never depend on seek state.
/// Implementations retry transparently on EINTR and on short reads and
/// writes; a short read at end-of-file is an error (callers always know
/// how many bytes they expect).
class File {
 public:
  virtual ~File() = default;

  /// Reads exactly `n` bytes at `offset` into `dst`.
  virtual Status ReadAt(uint64_t offset, void* dst, size_t n) = 0;

  /// Writes exactly `n` bytes from `src` at `offset`, extending the file
  /// as needed.
  virtual Status WriteAt(uint64_t offset, const void* src, size_t n) = 0;

  /// Current file size in bytes.
  virtual Result<uint64_t> Size() const = 0;

  /// Durably flushes all written data (fsync).
  virtual Status Sync() = 0;

  /// Truncates (or extends with zeros) to `size` bytes.
  virtual Status Truncate(uint64_t size) = 0;

  /// Closes the handle; further operations fail. The destructor closes
  /// best-effort for handles never explicitly closed.
  virtual Status Close() = 0;
};

/// The seam between the storage stack and the operating system: every
/// byte `DiskManager`, `Journal`, and `DiskObjectStore` move to or from
/// disk goes through an `Env`. Production uses the process-wide POSIX
/// environment (`Env::Default`); tests wrap it in a `FaultInjectingEnv`
/// to script failures the real kernel produces rarely and never on cue.
class Env {
 public:
  virtual ~Env() = default;

  /// Opens `path` read-write, creating it only when it does not exist
  /// (ENOENT). Never truncates: a transient open failure (EMFILE, EACCES,
  /// ...) must not destroy an existing file, so creation is a single
  /// O_CREAT open rather than an open-then-create fallback.
  virtual Result<std::unique_ptr<File>> OpenFile(const std::string& path) = 0;

  /// Removes `path` (NotFound if absent).
  virtual Status DeleteFile(const std::string& path) = 0;

  /// True iff `path` exists.
  virtual bool FileExists(const std::string& path) const = 0;

  /// The process-wide POSIX environment. Never null; not owned.
  static Env* Default();
};

/// An `Env` decorator with a scriptable fault plan, modeled on
/// Tarantool's error-injection machinery: every durability claim gets a
/// scripted fault that tries to break it. All faults address the shared
/// program-order sequence of operations across every file the env opened
/// (indices are 1-based); the sequence is also logged, so a test can run
/// a workload once, locate the operation it wants to break (e.g. "the
/// journal fsync of the second commit"), and re-run with the fault armed.
///
/// Not thread-safe. A `DiskObjectStore` serializes its own I/O, so one
/// store's concurrent readers may share an env; arm or clear faults only
/// while no call is in flight.
class FaultInjectingEnv final : public Env {
 public:
  /// One logged operation: its kind and the file it addressed.
  struct OpRecord {
    IoOp op;
    std::string path;
  };

  /// Wraps `base` (not owned; must outlive this env).
  explicit FaultInjectingEnv(Env* base);

  Result<std::unique_ptr<File>> OpenFile(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  bool FileExists(const std::string& path) const override;

  // --- Fault scripting -------------------------------------------------

  /// The `n`-th operation of kind `op` from now fails with IoError
  /// without touching the file. One-shot.
  void FailNth(IoOp op, int64_t n);

  /// The `n`-th write from now persists only its first `keep_bytes`
  /// bytes, then fails — a torn write. One-shot.
  void TornNthWrite(int64_t n, size_t keep_bytes);

  /// The `n`-th read from now succeeds but returns its payload with one
  /// bit flipped: bit `bit & 7` of byte `byte_offset % length`. One-shot.
  void FlipBitOnNthRead(int64_t n, size_t byte_offset, int bit);

  /// The next `count` reads each fail with IoError("injected transient
  /// read failure"), then reads succeed again — the fault class a retry
  /// loop is supposed to absorb (contrast `FailNth(kRead, n)`, which
  /// fails one scripted read and stays quiet before it).
  void TransientReadFailures(int64_t count);

  /// The `n`-th operation of kind `op` from now sleeps `seconds` before
  /// proceeding normally — a stalling disk, for deadline tests. One-shot.
  void StallNth(IoOp op, int64_t n, double seconds);

  /// After `k` more operations complete, the simulated machine dies: the
  /// on-disk file image freezes, and every subsequent operation on every
  /// file fails with IoError("injected crash") without effect. Reopening
  /// the files through a clean env then observes exactly what a reboot
  /// would. `k = 0` crashes immediately.
  void CrashAfterOps(int64_t k);

  /// Clears every armed fault and the crashed state (the operation
  /// counter and log keep running).
  void ClearFaults();

  /// Operations performed (or refused) so far, in program order.
  const std::vector<OpRecord>& log() const { return log_; }

  /// Count of operations so far (equals `log().size()`).
  int64_t op_count() const { return static_cast<int64_t>(log_.size()); }

  /// True once a scripted crash point has fired.
  bool crashed() const { return crashed_; }

 private:
  friend class FaultInjectingFile;

  /// Records one operation and decides its fate. Returns OK to let it
  /// through; the out-params carry torn-write / bit-flip modifiers.
  Status Account(IoOp op, const std::string& path, bool* torn,
                 size_t* torn_keep, bool* flip, size_t* flip_byte,
                 int* flip_bit);

  Env* base_;
  std::vector<OpRecord> log_;
  bool crashed_ = false;
  int64_t crash_after_ = -1;  // Ops remaining before the crash; -1 = unarmed.
  // One-shot countdowns; -1 = unarmed. Indexed per fault, not per kind.
  int64_t fail_open_ = -1;
  int64_t fail_read_ = -1;
  int64_t fail_write_ = -1;
  int64_t fail_sync_ = -1;
  int64_t fail_truncate_ = -1;
  int64_t torn_write_ = -1;
  size_t torn_keep_ = 0;
  int64_t flip_read_ = -1;
  size_t flip_byte_ = 0;
  int flip_bit_ = 0;
  /// Reads remaining in the current transient-failure burst.
  int64_t transient_reads_ = 0;
  IoOp stall_op_ = IoOp::kRead;
  int64_t stall_countdown_ = -1;
  double stall_seconds_ = 0.0;
};

}  // namespace mmdb

#endif  // MMDB_STORAGE_ENV_H_
