// Plumbing shared by the benchmark workloads: command-line arguments, a
// small ordered JSON builder, correctness checks, process accounting
// (/proc/<pid>/io, getrusage), canonical answer bytes, registry deltas,
// scratch directories and spawned-daemon control.
//
// The harness measures the library from outside: it times calls into
// public functions and reads what the program already emits (registry
// snapshots, tracer spans, /proc). It prints ONE line on stdout, a JSON
// object of raw samples that benchmark/run.py reduces to metrics.

#ifndef OPTRULES_BENCHMARK_HARNESS_H_
#define OPTRULES_BENCHMARK_HARNESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "storage/relation.h"

namespace optrules::harness {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 10.0;
  /// Per-layer pass: tracer on, registry deltas and span forests recorded.
  bool traced = false;
  /// Small tables and few sessions: every correctness gate in seconds.
  bool smoke = false;
  /// Parent of the scratch data directory (mkdtemp'd, removed on exit).
  std::string workdir;
  /// Where traced runs write their span forests.
  std::string trace_dir;
};

/// Seconds on the steady clock.
double Now();

/// JSON object builder; keys keep insertion order. Numbers print with
/// every significant digit; non-finite values print as null.
class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double value);
  JsonObject& Int(std::string_view key, int64_t value);
  JsonObject& Bool(std::string_view key, bool value);
  JsonObject& Str(std::string_view key, std::string_view value);
  JsonObject& Nums(std::string_view key, const std::vector<double>& values);
  /// `json` must already be valid JSON.
  JsonObject& Raw(std::string_view key, std::string_view json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(std::string_view key);
  std::string body_;
};

/// Named pass/fail correctness gates; a failure is also logged to stderr
/// as it happens.
class Checks {
 public:
  void Expect(bool ok, const std::string& name,
              const std::string& detail = "");
  bool all_ok() const;
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Entry> entries_;
};

/// Everything one workload run hands back to main().
struct WorkloadResult {
  JsonObject raw;
  int64_t attempted = 0;
  int64_t failed = 0;
  Checks checks;
};

WorkloadResult RunSessionWorkload(const Args& args,
                                  const std::string& data_dir);
WorkloadResult RunServeWorkload(const Args& args,
                                const std::string& data_dir);

/// The Sec 6.1 table every workload mines: datagen::GenerateTable with
/// `rows` rows of 8 uniform numeric and 8 Boolean (p = 0.3) attributes.
storage::Relation GenerateSeededTable(int64_t rows, uint64_t seed);

// ------------------------------------------------ process accounting ----

/// `rchar` of /proc/<pid>/io (pid 0 = this process): bytes the process
/// asked read-like syscalls for, page cache or not. `own_bytes`, when
/// given, receives the bytes this very read consumed, which the kernel
/// charges to the reading process after the value was rendered.
Result<int64_t> ReadRchar(pid_t pid, int64_t* own_bytes = nullptr);

/// Lowers this process's peak resident set (VmHWM) to its current size, so
/// a later PeakRssKb(0) covers only what ran after the call. Returns false
/// when the kernel refused; the peak then covers the whole process life.
bool ResetPeakRss();

/// Peak resident set in KiB: VmHWM of /proc/<pid>/status (pid 0 = this
/// process).
Result<int64_t> PeakRssKb(pid_t pid);

/// Peak resident set in KiB of the largest reaped child (RUSAGE_CHILDREN).
int64_t PeakChildRssKb();

/// Best-effort eviction of `path` from the OS page cache (fdatasync, then
/// POSIX_FADV_DONTNEED).
void DropPageCache(const std::string& path);

/// Bytes of a regular file, or of every regular file under a directory.
int64_t StoredBytes(const std::string& path);

// ------------------------------------------------- canonical answers ----

/// The wire encoding of `reply` with its per-delivery fields (session id,
/// generation, coalesced flag) zeroed: doubles travel as raw bits, so two
/// answers are bit-identical exactly when these bytes are equal.
std::vector<uint8_t> CanonicalBytes(const serve::SessionReply& reply);
uint64_t Digest(const serve::SessionReply& reply);
std::string HexDigest(uint64_t digest);

// -------------------------------------------------- registry deltas ----

int64_t CounterDelta(const obs::MetricsSnapshot& before,
                     const obs::MetricsSnapshot& after,
                     const std::string& name);
/// (count, sum) deltas of one histogram.
std::pair<int64_t, double> HistogramDelta(const obs::MetricsSnapshot& before,
                                          const obs::MetricsSnapshot& after,
                                          const std::string& name);
/// {"counters":{name:delta},"histograms":{name:{"count":n,"sum":s}}} over
/// every instrument that moved.
std::string RegistryDeltaJson(const obs::MetricsSnapshot& before,
                              const obs::MetricsSnapshot& after);

// ------------------------------------------------------------ spans ----

/// Durations of the spans named `name` whose parent is `parent_id`.
std::vector<double> ChildDurations(const std::vector<obs::SpanRecord>& spans,
                                   uint64_t parent_id,
                                   std::string_view name);
/// The first span named `name`, or nullptr.
const obs::SpanRecord* FindSpan(const std::vector<obs::SpanRecord>& spans,
                                std::string_view name);

// ---------------------------------------------- scratch + processes ----

/// mkdtemp'd directory, removed with its contents on destruction.
class ScratchDir {
 public:
  static Result<ScratchDir> Create(const std::string& parent);
  ScratchDir(ScratchDir&& other) noexcept;
  ScratchDir& operator=(ScratchDir&&) = delete;
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir();

  const std::string& path() const { return path_; }

 private:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {}
  std::string path_;
};

/// A spawned daemon whose stdout is a pipe to us. It gets SIGTERM if this
/// process dies; Stop() (or the destructor, on every other exit path)
/// sends SIGTERM and reaps it, escalating to SIGKILL after a grace period.
class Daemon {
 public:
  /// Spawns `argv` with `extra_env` ("NAME=value") added to our
  /// environment and waits up to `timeout_s` for a first stdout line that
  /// starts with "LISTENING ". Returns the daemon with the address that
  /// follows it.
  static Result<Daemon> SpawnListening(
      const std::vector<std::string>& argv,
      const std::vector<std::string>& extra_env, double timeout_s);
  Daemon(Daemon&& other) noexcept;
  Daemon& operator=(Daemon&&) = delete;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon();

  pid_t pid() const { return pid_; }
  const std::string& address() const { return address_; }

  /// SIGTERM + waitpid. Ok when the daemon exited 0 within the grace
  /// period.
  Status Stop();

 private:
  Daemon(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string address_;
};

}  // namespace optrules::harness

#endif  // OPTRULES_BENCHMARK_HARNESS_H_
