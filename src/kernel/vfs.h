// An in-memory VFS with a page cache backed by the simulated NVMe device.
//
// This is the storage half of the traditional architecture in Figure 1: applications
// reach it through syscalls, data moves through copies, and persistence goes through
// the kernel's block layer. Experiment E3 contrasts this write path with the Catfish
// libOS writing the device's SQ/CQ directly.
//
// Model: each file is an extent of 4 KiB pages; pages live in the cache (always
// readable once written) and are assigned device LBAs lazily. Fsync flushes dirty
// pages to the device. DropCaches() evicts clean pages so subsequent reads must go to
// the device (for cold-read experiments).

#ifndef SRC_KERNEL_VFS_H_
#define SRC_KERNEL_VFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/result.h"

namespace demi {

struct FsNode {
  std::string path;
  std::size_t size = 0;
  // Page index -> cached contents (4 KiB each; last page may be partial via `size`).
  std::map<std::uint32_t, std::vector<std::byte>> cached_pages;
  // Page index -> device LBA (allocated on first flush of that page).
  std::map<std::uint32_t, std::uint64_t> page_lba;
  std::unordered_set<std::uint32_t> dirty_pages;
};

class Vfs {
 public:
  static constexpr std::size_t kPageSize = 4096;

  // Creates a file; fails if it exists.
  Result<FsNode*> Create(const std::string& path);
  // Opens an existing file.
  Result<FsNode*> Lookup(const std::string& path);
  // Creates if missing, otherwise returns the existing node.
  FsNode* OpenOrCreate(const std::string& path);
  bool Exists(const std::string& path) const { return nodes_.contains(path); }
  std::size_t file_count() const { return nodes_.size(); }

  // Writes `data` at `offset`, extending the file as needed. Touched pages become
  // dirty cache pages. Returns the number of pages touched.
  std::size_t WriteAt(FsNode* node, std::size_t offset, std::span<const std::byte> data);

  // Reads [offset, offset+out.size()) from cache. Every byte must be cache-resident;
  // use MissingPages + page fill for cold reads. Returns bytes read (clamped at size).
  std::size_t ReadAt(FsNode* node, std::size_t offset, std::span<std::byte> out);

  // Pages in [offset, offset+len) that are not cache-resident (need device reads).
  std::vector<std::uint32_t> MissingPages(const FsNode* node, std::size_t offset,
                                          std::size_t len) const;
  // Installs a page read back from the device into the cache (clean).
  void FillPage(FsNode* node, std::uint32_t page, std::span<const std::byte> data);

  // Allocates an LBA for every dirty page (stable across rewrites) and returns the
  // (page, lba, data) list the caller must write to the device; marks them clean.
  struct FlushItem {
    std::uint32_t page;
    std::uint64_t lba;
    Buffer data;
  };
  std::vector<FlushItem> CollectDirty(FsNode* node);

  // Evicts clean cached pages (dirty pages stay). Cold-read experiments use this.
  void DropCaches();

 private:
  std::uint64_t AllocateLba() { return next_lba_++; }

  std::unordered_map<std::string, std::unique_ptr<FsNode>> nodes_;
  std::uint64_t next_lba_ = 1;  // LBA 0 reserved (superblock-style)
};

}  // namespace demi

#endif  // SRC_KERNEL_VFS_H_
