// Shared LRU page cache for the paged read path.
//
// Every disk-resident scan used to fread its pages into private buffers:
// two readers over the same file -- or the same reader across two mining
// sessions -- paid the full table I/O again. BufferPool caches page images
// in memory, keyed by (file, page index), in the spirit of the classic
// buffer-manager design (clock/LRU frame table with pin counts; see
// SNIPPETS.md Snippet 2 for the TDengine SDiskbasedBuf variant of the same
// idea): readers PIN the frame holding their current page, hand out spans
// pointing straight into it, and UNPIN when they move on. Unpinned frames
// stay resident until the capacity budget evicts them least-recently-used,
// so a warm re-scan never touches the disk.
//
// Concurrency: one mutex guards the frame table, LRU list, and counters.
// Page loads run OUTSIDE the mutex -- a frame being filled is marked
// loading, and every other fetcher of the same page waits on a condition
// variable instead of issuing a duplicate read. That is what turns the
// double-buffered prefetch thread into a cache-warming hint: the
// prefetcher starts the load of page N+1, the consumer's later Fetch of
// the same page blocks on the in-flight load (not on the disk) and then
// pins the shared frame.
//
// Capacity is a SOFT budget: pinned frames are never evicted, so when the
// working set of simultaneously pinned pages exceeds the budget the pool
// overshoots instead of deadlocking (a zero-capacity pool still serves any
// number of concurrent readers; it evicts each frame when its last pin
// drops, so it caches nothing).
//
// Files are identified by stat identity (device, inode, size, mtime):
// re-registering a path whose identity changed -- e.g. a writer truncated
// and rewrote the same inode -- yields a fresh file id, so stale frames of
// the old generation can never be served for the new bytes.

#ifndef OPTRULES_STORAGE_BUFFER_POOL_H_
#define OPTRULES_STORAGE_BUFFER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace optrules::storage {

/// Default capacity when OPTRULES_BUFFER_POOL_BYTES is unset: 64 MiB.
inline constexpr size_t kDefaultBufferPoolBytes = size_t{64} << 20;

class BufferPool {
 public:
  /// Cumulative counters (monotone; read under the pool mutex).
  struct Stats {
    int64_t hits = 0;       ///< fetches served from a resident frame
    int64_t misses = 0;     ///< fetches that had to load from disk
    int64_t evictions = 0;  ///< frames dropped to stay inside the budget
  };

  /// Fills `dest` (exactly the page size passed to Fetch) with the page
  /// bytes; runs without the pool mutex held.
  using Loader = std::function<Status(uint8_t* dest)>;

  explicit BufferPool(size_t capacity_bytes);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// RAII pin on one cached page frame. The frame's bytes stay valid and
  /// immutable until the pin is released; releasing makes the frame
  /// evictable again.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept;
    Pin& operator=(Pin&& other) noexcept;
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin();

    explicit operator bool() const { return frame_ != nullptr; }
    const uint8_t* data() const;
    size_t size() const;

    /// Releases the pin early (idempotent).
    void Reset();

   private:
    friend class BufferPool;
    Pin(BufferPool* pool, void* frame) : pool_(pool), frame_(frame) {}
    BufferPool* pool_ = nullptr;
    void* frame_ = nullptr;
  };

  /// Resolves `path` to a pool-wide file id. Two paths naming the same
  /// unchanged file (same device/inode/size/mtime) share one id -- and
  /// therefore share frames; a path whose identity changed since the last
  /// registration gets a fresh id.
  Result<uint64_t> RegisterFile(const std::string& path);

  /// Returns a pin on the frame holding page `page_index` of `file_id`
  /// (`page_bytes` is that page's fixed on-disk image size). On a miss the
  /// frame is filled by `loader` outside the pool mutex; concurrent
  /// fetchers of the same page wait for the in-flight load instead of
  /// re-reading. `was_hit`, when non-null, reports whether this fetch
  /// found the page resident or in flight (no disk read of its own).
  Result<Pin> Fetch(uint64_t file_id, int64_t page_index, size_t page_bytes,
                    const Loader& loader, bool* was_hit = nullptr);

  /// Cache-warming hint: loads the page into the pool (if absent) and
  /// leaves it unpinned. Load errors are swallowed -- the consumer's
  /// demand Fetch will surface them.
  void Prefetch(uint64_t file_id, int64_t page_index, size_t page_bytes,
                const Loader& loader);

  /// Drops the registration of `path` (and purges its unpinned frames),
  /// so the next RegisterFile sees a fresh generation even when the stat
  /// identity did not observably change -- file timestamps use the coarse
  /// kernel clock, so an in-process truncate-and-rewrite within one tick
  /// would otherwise serve stale frames. PagedFileWriter calls this on the
  /// default pool whenever it (re)creates or finalizes a file.
  void InvalidateFile(const std::string& path);

  size_t capacity_bytes() const { return capacity_bytes_; }
  /// Bytes currently held in frames (may exceed the budget while the
  /// pinned working set does).
  size_t bytes_used() const;
  Stats stats() const;

  /// The process-wide pool configured by OPTRULES_BUFFER_POOL_BYTES
  /// (unset -> 64 MiB; "0" -> a zero-capacity pool that caches nothing).
  /// Never nullptr. The environment is read once, on first use.
  static BufferPool* Default();

 private:
  struct FileKey {
    uint64_t dev = 0;
    uint64_t ino = 0;
    bool operator==(const FileKey&) const = default;
  };
  struct FileKeyHash {
    size_t operator()(const FileKey& k) const {
      return std::hash<uint64_t>()(k.dev * 1000003u ^ k.ino);
    }
  };
  /// Stat identity of a registered file; a mismatch on re-registration
  /// bumps the file to a fresh id (generation change).
  struct FileEntry {
    uint64_t id = 0;
    int64_t size = 0;
    int64_t mtime_ns = 0;
  };

  struct FrameKey {
    uint64_t file_id = 0;
    int64_t page_index = 0;
    bool operator==(const FrameKey&) const = default;
  };
  struct FrameKeyHash {
    size_t operator()(const FrameKey& k) const {
      return std::hash<uint64_t>()(k.file_id * 1000003u ^
                                   static_cast<uint64_t>(k.page_index));
    }
  };

  struct Frame {
    FrameKey key;
    std::vector<uint8_t> bytes;
    int pins = 0;
    bool loading = false;  ///< a fetcher is filling `bytes` off-mutex
    /// Position in lru_ when pins == 0 && !loading; invalid otherwise.
    std::list<Frame*>::iterator lru_pos;
    bool in_lru = false;
  };

  /// Installs a pinned, loading frame for `key`, first evicting unpinned
  /// frames (least recently used first) while the page would not fit the
  /// budget, and reusing a victim's buffer when its size matches. Caller
  /// holds mu_.
  Frame* AdmitLoadingFrameLocked(const FrameKey& key, size_t page_bytes);
  /// Drops the least recently used unpinned frame and hands it back.
  /// Caller holds mu_; lru_ must not be empty.
  std::unique_ptr<Frame> EvictFrontLocked();
  /// Evicts unpinned frames (least recently used first) while over budget.
  /// Caller holds mu_.
  void EvictLocked();
  /// Unpin path used by Pin::Reset/~Pin.
  void Release(Frame* frame);

  const size_t capacity_bytes_;

  mutable std::mutex mu_;
  std::condition_variable load_cv_;
  std::unordered_map<FrameKey, std::unique_ptr<Frame>, FrameKeyHash> frames_;
  /// Unpinned, fully loaded frames; front = least recently used.
  std::list<Frame*> lru_;
  size_t bytes_used_ = 0;
  Stats stats_;

  std::unordered_map<FileKey, FileEntry, FileKeyHash> files_;
  uint64_t next_file_id_ = 1;
};

}  // namespace optrules::storage

#endif  // OPTRULES_STORAGE_BUFFER_POOL_H_
