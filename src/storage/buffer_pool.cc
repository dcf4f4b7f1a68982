#include "storage/buffer_pool.h"

#include <sys/stat.h>

#include <cstdlib>
#include <utility>

#include "common/env.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace optrules::storage {

namespace {

/// Registry instruments, resolved once. The pool keeps its own Stats
/// struct for the public accessor; the registry mirrors it so the serve
/// daemon and benches export the same numbers.
struct PoolMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  obs::Histogram* load_seconds;

  static const PoolMetrics& Get() {
    static const PoolMetrics metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return PoolMetrics{reg.GetCounter("bufferpool.hits"),
                         reg.GetCounter("bufferpool.misses"),
                         reg.GetCounter("bufferpool.evictions"),
                         reg.GetHistogram("bufferpool.load_seconds")};
    }();
    return metrics;
  }
};

}  // namespace

// ------------------------------------------------------------------ Pin ----

BufferPool::Pin::Pin(Pin&& other) noexcept
    : pool_(other.pool_), frame_(other.frame_) {
  other.pool_ = nullptr;
  other.frame_ = nullptr;
}

BufferPool::Pin& BufferPool::Pin::operator=(Pin&& other) noexcept {
  if (this != &other) {
    Reset();
    pool_ = other.pool_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
    other.frame_ = nullptr;
  }
  return *this;
}

BufferPool::Pin::~Pin() { Reset(); }

void BufferPool::Pin::Reset() {
  if (frame_ != nullptr) {
    pool_->Release(static_cast<Frame*>(frame_));
    pool_ = nullptr;
    frame_ = nullptr;
  }
}

const uint8_t* BufferPool::Pin::data() const {
  return static_cast<const Frame*>(frame_)->bytes.data();
}

size_t BufferPool::Pin::size() const {
  return static_cast<const Frame*>(frame_)->bytes.size();
}

// ----------------------------------------------------------------- pool ----

BufferPool::BufferPool(size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

BufferPool::~BufferPool() {
  // All pins must be released before the pool dies (readers are destroyed
  // before the sources that own the pool reference).
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, frame] : frames_) {
    OPTRULES_CHECK(frame->pins == 0 && !frame->loading);
  }
}

Result<uint64_t> BufferPool::RegisterFile(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IoError("buffer pool cannot stat file: " + path);
  }
  const int64_t mtime_ns =
      static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
      static_cast<int64_t>(st.st_mtim.tv_nsec);
  const FileKey key{static_cast<uint64_t>(st.st_dev),
                    static_cast<uint64_t>(st.st_ino)};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(key);
  if (it != files_.end() && it->second.size == st.st_size &&
      it->second.mtime_ns == mtime_ns) {
    return it->second.id;
  }
  // New file, or the identity changed since the last registration: hand
  // out a fresh id so frames of the previous generation are unreachable
  // (they age out of the LRU on their own).
  const FileEntry entry{next_file_id_++, static_cast<int64_t>(st.st_size),
                        mtime_ns};
  files_[key] = entry;
  return entry.id;
}

void BufferPool::InvalidateFile(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return;
  const FileKey key{static_cast<uint64_t>(st.st_dev),
                    static_cast<uint64_t>(st.st_ino)};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(key);
  if (it == files_.end()) return;
  const uint64_t stale_id = it->second.id;
  files_.erase(it);
  // Purge the stale generation's unpinned frames eagerly; pinned ones (a
  // reader still mid-scan over the old bytes) are left to their readers.
  for (auto frame_it = frames_.begin(); frame_it != frames_.end();) {
    Frame* frame = frame_it->second.get();
    if (frame->key.file_id == stale_id && frame->pins == 0 &&
        !frame->loading) {
      lru_.erase(frame->lru_pos);
      bytes_used_ -= frame->bytes.size();
      frame_it = frames_.erase(frame_it);
    } else {
      ++frame_it;
    }
  }
}

Result<BufferPool::Pin> BufferPool::Fetch(uint64_t file_id,
                                          int64_t page_index,
                                          size_t page_bytes,
                                          const Loader& loader,
                                          bool* was_hit) {
  const FrameKey key{file_id, page_index};
  std::unique_lock<std::mutex> lock(mu_);
  bool waited = false;
  for (;;) {
    auto it = frames_.find(key);
    if (it == frames_.end()) break;
    Frame* frame = it->second.get();
    if (frame->loading) {
      // Another fetcher (or the prefetch hint) is filling this frame; wait
      // for that load instead of issuing a duplicate read. The wait is
      // charged as a miss: the disk read is happening NOW, on behalf of
      // this fetch -- only an already-loaded frame is a hit.
      waited = true;
      load_cv_.wait(lock);
      continue;  // the frame may have been dropped on load failure
    }
    OPTRULES_CHECK(frame->bytes.size() == page_bytes);
    if (frame->in_lru) {
      lru_.erase(frame->lru_pos);
      frame->in_lru = false;
    }
    ++frame->pins;
    if (waited) {
      ++stats_.misses;
      PoolMetrics::Get().misses->Add();
    } else {
      ++stats_.hits;
      PoolMetrics::Get().hits->Add();
    }
    if (was_hit != nullptr) *was_hit = !waited;
    return Pin(this, frame);
  }

  // Miss: install a loading frame (pinned by this fetch) and fill it with
  // the mutex dropped, so concurrent fetches of other pages proceed and
  // concurrent fetches of THIS page wait on load_cv_.
  ++stats_.misses;
  PoolMetrics::Get().misses->Add();
  if (was_hit != nullptr) *was_hit = false;
  Frame* frame = AdmitLoadingFrameLocked(key, page_bytes);

  lock.unlock();
  WallTimer load_timer;
  const Status loaded = loader(frame->bytes.data());
  PoolMetrics::Get().load_seconds->Observe(load_timer.ElapsedSeconds());
  lock.lock();

  frame->loading = false;
  if (!loaded.ok()) {
    bytes_used_ -= frame->bytes.size();
    frames_.erase(key);
    load_cv_.notify_all();
    return loaded;
  }
  load_cv_.notify_all();
  return Pin(this, frame);
}

void BufferPool::Prefetch(uint64_t file_id, int64_t page_index,
                          size_t page_bytes, const Loader& loader) {
  const FrameKey key{file_id, page_index};
  std::unique_lock<std::mutex> lock(mu_);
  if (frames_.find(key) != frames_.end()) return;  // resident or in flight
  // Hints are invisible to the hit/miss counters: they measure what the
  // DEMAND fetches experienced, so a cold double-buffered scan does not
  // masquerade as cache-friendly just because its own prefetcher primed
  // every page.
  Frame* frame = AdmitLoadingFrameLocked(key, page_bytes);

  lock.unlock();
  const Status loaded = loader(frame->bytes.data());
  lock.lock();

  frame->loading = false;
  frame->pins = 0;
  if (!loaded.ok()) {
    // Swallow: the consumer's own Fetch will re-attempt and surface it.
    bytes_used_ -= frame->bytes.size();
    frames_.erase(key);
  } else {
    frame->lru_pos = lru_.insert(lru_.end(), frame);
    frame->in_lru = true;
    EvictLocked();
  }
  load_cv_.notify_all();
}

void BufferPool::Release(Frame* frame) {
  std::lock_guard<std::mutex> lock(mu_);
  OPTRULES_CHECK(frame->pins > 0);
  --frame->pins;
  if (frame->pins == 0) {
    frame->lru_pos = lru_.insert(lru_.end(), frame);
    frame->in_lru = true;
    EvictLocked();
  }
}

BufferPool::Frame* BufferPool::AdmitLoadingFrameLocked(const FrameKey& key,
                                                       size_t page_bytes) {
  // Evict BEFORE admitting: the same victims as admitting first and then
  // trimming back under budget, but a victim whose buffer has the right
  // size is recycled instead of freed, so a cold scan neither allocates
  // and zero-fills a page per miss nor holds newcomer and victim at once.
  std::unique_ptr<Frame> owned;
  while (bytes_used_ + page_bytes > capacity_bytes_ && !lru_.empty()) {
    std::unique_ptr<Frame> victim = EvictFrontLocked();
    if (victim->bytes.size() == page_bytes) owned = std::move(victim);
  }
  if (owned == nullptr) {
    owned = std::make_unique<Frame>();
    owned->bytes.resize(page_bytes);
  }
  Frame* frame = owned.get();
  frame->key = key;
  frame->pins = 1;
  frame->loading = true;
  bytes_used_ += page_bytes;
  frames_.emplace(key, std::move(owned));
  return frame;
}

std::unique_ptr<BufferPool::Frame> BufferPool::EvictFrontLocked() {
  Frame* victim = lru_.front();
  lru_.pop_front();
  victim->in_lru = false;
  bytes_used_ -= victim->bytes.size();
  ++stats_.evictions;
  PoolMetrics::Get().evictions->Add();
  return std::move(frames_.extract(victim->key).mapped());
}

void BufferPool::EvictLocked() {
  while (bytes_used_ > capacity_bytes_ && !lru_.empty()) EvictFrontLocked();
}

size_t BufferPool::bytes_used() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_used_;
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

BufferPool* BufferPool::Default() {
  // Strict parse: "64abc" and "-1" are rejected (warning + 64 MiB default),
  // never half-parsed into a bogus budget. "0" = a zero-capacity pool.
  static BufferPool instance(static_cast<size_t>(env::ReadEnvNonNegativeInt(
      "OPTRULES_BUFFER_POOL_BYTES", kDefaultBufferPoolBytes)));
  return &instance;
}

}  // namespace optrules::storage
