#include "src/kernel/vfs.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"

namespace demi {

Result<FsNode*> Vfs::Create(const std::string& path) {
  if (nodes_.contains(path)) {
    return AlreadyExists(path);
  }
  auto node = std::make_unique<FsNode>();
  node->path = path;
  FsNode* out = node.get();
  nodes_[path] = std::move(node);
  return out;
}

Result<FsNode*> Vfs::Lookup(const std::string& path) {
  auto it = nodes_.find(path);
  if (it == nodes_.end()) {
    return NotFound(path);
  }
  return it->second.get();
}

FsNode* Vfs::OpenOrCreate(const std::string& path) {
  if (auto r = Lookup(path); r.ok()) {
    return *r;
  }
  return *Create(path);
}

std::size_t Vfs::WriteAt(FsNode* node, std::size_t offset, std::span<const std::byte> data) {
  std::size_t pages_touched = 0;
  std::size_t at = 0;
  while (at < data.size()) {
    const std::size_t pos = offset + at;
    const auto page = static_cast<std::uint32_t>(pos / kPageSize);
    const std::size_t in_page = pos % kPageSize;
    const std::size_t take = std::min(kPageSize - in_page, data.size() - at);

    auto [it, inserted] = node->cached_pages.try_emplace(page);
    if (inserted) {
      it->second.assign(kPageSize, std::byte{0});
      // Note: partial overwrite of an uncached, previously flushed page would need a
      // read-modify-write in a real FS; our callers always keep written pages cached
      // or overwrite whole pages, so zero-fill is safe here.
    }
    std::memcpy(it->second.data() + in_page, data.data() + at, take);
    node->dirty_pages.insert(page);
    ++pages_touched;
    at += take;
  }
  node->size = std::max(node->size, offset + data.size());
  return pages_touched;
}

std::size_t Vfs::ReadAt(FsNode* node, std::size_t offset, std::span<std::byte> out) {
  if (offset >= node->size) {
    return 0;
  }
  const std::size_t len = std::min(out.size(), node->size - offset);
  std::size_t at = 0;
  while (at < len) {
    const std::size_t pos = offset + at;
    const auto page = static_cast<std::uint32_t>(pos / kPageSize);
    const std::size_t in_page = pos % kPageSize;
    const std::size_t take = std::min(kPageSize - in_page, len - at);
    auto it = node->cached_pages.find(page);
    DEMI_CHECK(it != node->cached_pages.end() && "cold page: caller must FillPage first");
    std::memcpy(out.data() + at, it->second.data() + in_page, take);
    at += take;
  }
  return len;
}

std::vector<std::uint32_t> Vfs::MissingPages(const FsNode* node, std::size_t offset,
                                             std::size_t len) const {
  std::vector<std::uint32_t> missing;
  if (node->size == 0 || offset >= node->size) {
    return missing;
  }
  len = std::min(len, node->size - offset);
  const auto first = static_cast<std::uint32_t>(offset / kPageSize);
  const auto last = static_cast<std::uint32_t>((offset + len - 1) / kPageSize);
  for (std::uint32_t p = first; p <= last; ++p) {
    if (!node->cached_pages.contains(p)) {
      missing.push_back(p);
    }
  }
  return missing;
}

void Vfs::FillPage(FsNode* node, std::uint32_t page, std::span<const std::byte> data) {
  DEMI_CHECK(data.size() == kPageSize);
  auto& slot = node->cached_pages[page];
  slot.assign(data.begin(), data.end());
}

std::vector<Vfs::FlushItem> Vfs::CollectDirty(FsNode* node) {
  std::vector<FlushItem> items;
  items.reserve(node->dirty_pages.size());
  for (const std::uint32_t page : node->dirty_pages) {
    auto [lba_it, inserted] = node->page_lba.try_emplace(page, 0);
    if (inserted) {
      lba_it->second = AllocateLba();
    }
    auto cache_it = node->cached_pages.find(page);
    DEMI_CHECK(cache_it != node->cached_pages.end());
    items.push_back(FlushItem{page, lba_it->second,
                              Buffer::CopyOf(std::span<const std::byte>(cache_it->second))});
  }
  node->dirty_pages.clear();
  std::sort(items.begin(), items.end(),
            [](const FlushItem& a, const FlushItem& b) { return a.lba < b.lba; });
  return items;
}

void Vfs::DropCaches() {
  for (auto& [path, node] : nodes_) {
    for (auto it = node->cached_pages.begin(); it != node->cached_pages.end();) {
      const bool dirty = node->dirty_pages.contains(it->first);
      const bool flushed = node->page_lba.contains(it->first);
      if (!dirty && flushed) {
        it = node->cached_pages.erase(it);
      } else {
        ++it;
      }
    }
  }
}

}  // namespace demi
