#include "harness.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/bytes.h"
#include "common/rng.h"
#include "datagen/table_generator.h"

extern char** environ;

namespace optrules::harness {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// -------------------------------------------------------------- JSON ----

namespace {

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void JsonObject::Key(std::string_view key) {
  if (!body_.empty()) body_ += ',';
  body_ += JsonString(key);
  body_ += ':';
}

JsonObject& JsonObject::Num(std::string_view key, double value) {
  Key(key);
  body_ += JsonNumber(value);
  return *this;
}

JsonObject& JsonObject::Int(std::string_view key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Bool(std::string_view key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Str(std::string_view key, std::string_view value) {
  Key(key);
  body_ += JsonString(value);
  return *this;
}

JsonObject& JsonObject::Nums(std::string_view key,
                             const std::vector<double>& values) {
  Key(key);
  body_ += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) body_ += ',';
    body_ += JsonNumber(values[i]);
  }
  body_ += ']';
  return *this;
}

JsonObject& JsonObject::Raw(std::string_view key, std::string_view json) {
  Key(key);
  body_ += json;
  return *this;
}

// ------------------------------------------------------------ checks ----

void Checks::Expect(bool ok, const std::string& name,
                    const std::string& detail) {
  if (!ok) {
    std::fprintf(stderr, "optrules_bench: CHECK FAILED %s %s\n", name.c_str(),
                 detail.c_str());
  }
  entries_.push_back({name, ok, detail});
}

bool Checks::all_ok() const {
  for (const Entry& entry : entries_) {
    if (!entry.ok) return false;
  }
  return true;
}

std::string Checks::ToJson() const {
  std::string out = "[";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i != 0) out += ',';
    out += JsonObject()
               .Str("name", entries_[i].name)
               .Bool("ok", entries_[i].ok)
               .Str("detail", entries_[i].detail)
               .str();
  }
  return out + "]";
}

storage::Relation GenerateSeededTable(int64_t rows, uint64_t seed) {
  datagen::TableConfig config;
  config.num_rows = rows;
  Rng rng(seed);
  return datagen::GenerateTable(config, rng);
}

// ------------------------------------------------ process accounting ----

Result<int64_t> ReadRchar(pid_t pid, int64_t* own_bytes) {
  const std::string path =
      pid == 0 ? "/proc/self/io" : "/proc/" + std::to_string(pid) + "/io";
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open " + path);
  char buf[1024];
  const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (n <= 0) return Status::IoError("cannot read " + path);
  buf[n] = '\0';
  if (own_bytes != nullptr) *own_bytes = n;
  const char* field = std::strstr(buf, "rchar:");
  if (field == nullptr) return Status::Corruption("no rchar in " + path);
  return static_cast<int64_t>(std::strtoll(field + 6, nullptr, 10));
}

bool ResetPeakRss() {
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool reset = ::write(fd, "5", 1) == 1;
  ::close(fd);
  return reset;
}

Result<int64_t> PeakRssKb(pid_t pid) {
  const std::string path = pid == 0
                               ? "/proc/self/status"
                               : "/proc/" + std::to_string(pid) + "/status";
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open " + path);
  char buf[4096];
  const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (n <= 0) return Status::IoError("cannot read " + path);
  buf[n] = '\0';
  const char* field = std::strstr(buf, "VmHWM:");
  if (field == nullptr) return Status::Corruption("no VmHWM in " + path);
  return static_cast<int64_t>(std::strtoll(field + 6, nullptr, 10));
}

int64_t PeakChildRssKb() {
  struct rusage usage {};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<int64_t>(usage.ru_maxrss);
}

void DropPageCache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  (void)::fdatasync(fd);
  (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

int64_t StoredBytes(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_regular_file(path, ec)) {
    return static_cast<int64_t>(fs::file_size(path, ec));
  }
  int64_t total = 0;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(path, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

// ------------------------------------------------- canonical answers ----

std::vector<uint8_t> CanonicalBytes(const serve::SessionReply& reply) {
  serve::SessionReply canonical;
  canonical.answers = reply.answers;
  std::vector<uint8_t> bytes;
  serve::EncodeSessionResult(canonical, &bytes);
  return bytes;
}

uint64_t Digest(const serve::SessionReply& reply) {
  bytes::Fnv1a hash;
  hash.Mix(CanonicalBytes(reply));
  return hash.digest();
}

std::string HexDigest(uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
  return buf;
}

// -------------------------------------------------- registry deltas ----

int64_t CounterDelta(const obs::MetricsSnapshot& before,
                     const obs::MetricsSnapshot& after,
                     const std::string& name) {
  const auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  const auto b = before.counters.find(name);
  return a->second - (b == before.counters.end() ? 0 : b->second);
}

std::pair<int64_t, double> HistogramDelta(const obs::MetricsSnapshot& before,
                                          const obs::MetricsSnapshot& after,
                                          const std::string& name) {
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return {0, 0.0};
  const auto b = before.histograms.find(name);
  if (b == before.histograms.end()) return {a->second.count, a->second.sum};
  return {a->second.count - b->second.count, a->second.sum - b->second.sum};
}

std::string RegistryDeltaJson(const obs::MetricsSnapshot& before,
                              const obs::MetricsSnapshot& after) {
  JsonObject counters;
  for (const auto& [name, value] : after.counters) {
    const int64_t delta = CounterDelta(before, after, name);
    if (delta != 0) counters.Int(name, delta);
  }
  JsonObject histograms;
  for (const auto& [name, value] : after.histograms) {
    const auto [count, sum] = HistogramDelta(before, after, name);
    if (count != 0) {
      histograms.Raw(name, JsonObject().Int("count", count).Num("sum", sum)
                               .str());
    }
  }
  return JsonObject()
      .Raw("counters", counters.str())
      .Raw("histograms", histograms.str())
      .str();
}

// ------------------------------------------------------------ spans ----

std::vector<double> ChildDurations(const std::vector<obs::SpanRecord>& spans,
                                   uint64_t parent_id,
                                   std::string_view name) {
  std::vector<double> out;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent_id == parent_id && span.name == name) {
      out.push_back(span.duration_seconds);
    }
  }
  return out;
}

const obs::SpanRecord* FindSpan(const std::vector<obs::SpanRecord>& spans,
                                std::string_view name) {
  for (const obs::SpanRecord& span : spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

// ------------------------------------------------------- scratch dir ----

Result<ScratchDir> ScratchDir::Create(const std::string& parent) {
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  std::string pattern = parent + "/optrules_bench_XXXXXX";
  if (::mkdtemp(pattern.data()) == nullptr) {
    return Status::IoError("mkdtemp failed under " + parent);
  }
  return ScratchDir(pattern);
}

ScratchDir::ScratchDir(ScratchDir&& other) noexcept
    : path_(std::move(other.path_)) {
  other.path_.clear();
}

ScratchDir::~ScratchDir() {
  if (path_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

// ------------------------------------------------------------ daemon ----

namespace {

/// waitpid with a deadline; true when the child was reaped (exit status
/// in *wstatus).
bool WaitWithDeadline(pid_t pid, double timeout_s, int* wstatus) {
  const double deadline = Now() + timeout_s;
  for (;;) {
    const pid_t done = ::waitpid(pid, wstatus, WNOHANG);
    if (done == pid) return true;
    if (done < 0 && errno != EINTR) return true;  // nothing left to reap
    if (Now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

Result<Daemon> Daemon::SpawnListening(
    const std::vector<std::string>& argv,
    const std::vector<std::string>& extra_env, double timeout_s) {
  // Everything the child needs is built before fork(): between fork and
  // exec a multithreaded parent's child may only make async-signal-safe
  // calls.
  std::vector<char*> child_argv;
  for (const std::string& arg : argv) {
    child_argv.push_back(const_cast<char*>(arg.c_str()));
  }
  child_argv.push_back(nullptr);
  std::vector<char*> child_env;
  for (char** e = environ; *e != nullptr; ++e) child_env.push_back(*e);
  for (const std::string& e : extra_env) {
    child_env.push_back(const_cast<char*>(e.c_str()));
  }
  child_env.push_back(nullptr);

  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    return Status::IoError("pipe2 failed");
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return Status::IoError("fork failed");
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::execve(child_argv[0], child_argv.data(), child_env.data());
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  Daemon daemon(pid, out_pipe[0]);

  std::string line;
  const double deadline = Now() + timeout_s;
  while (line.find('\n') == std::string::npos) {
    const double left = deadline - Now();
    if (left <= 0) return Status::DeadlineExceeded("daemon never listened");
    struct pollfd pfd {daemon.stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1e3) + 1);
    if (ready <= 0) continue;
    char buf[256];
    const ssize_t n = ::read(daemon.stdout_fd_, buf, sizeof(buf));
    if (n <= 0) return Status::IoError("daemon exited before listening");
    line.append(buf, static_cast<size_t>(n));
  }
  line.resize(line.find('\n'));
  constexpr std::string_view kPrefix = "LISTENING ";
  if (line.rfind(kPrefix, 0) != 0) {
    return Status::Corruption("unexpected daemon handshake: " + line);
  }
  daemon.address_ = line.substr(kPrefix.size());
  return daemon;
}

Daemon::Daemon(Daemon&& other) noexcept
    : pid_(other.pid_),
      stdout_fd_(other.stdout_fd_),
      address_(std::move(other.address_)) {
  other.pid_ = -1;
  other.stdout_fd_ = -1;
}

Status Daemon::Stop() {
  if (pid_ <= 0) return Status::Ok();
  ::kill(pid_, SIGTERM);
  int wstatus = 0;
  bool reaped = WaitWithDeadline(pid_, 20.0, &wstatus);
  if (!reaped) {
    ::kill(pid_, SIGKILL);
    reaped = WaitWithDeadline(pid_, 5.0, &wstatus);
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  if (!reaped) return Status::Internal("daemon could not be reaped");
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("daemon did not exit cleanly on SIGTERM");
  }
  return Status::Ok();
}

Daemon::~Daemon() { (void)Stop(); }

}  // namespace optrules::harness
