#include "common/arena.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace privateclean {

Arena& Arena::operator=(Arena&& other) noexcept {
  if (this != &other) {
    chunks_ = std::exchange(other.chunks_, {});
    bytes_used_ = std::exchange(other.bytes_used_, 0);
    bytes_reserved_ = std::exchange(other.bytes_reserved_, 0);
    alloc_count_ = std::exchange(other.alloc_count_, 0);
  }
  return *this;
}

void Arena::Reset() {
  chunks_.clear();
  bytes_used_ = 0;
  bytes_reserved_ = 0;
  alloc_count_ = 0;
}

void* Arena::Allocate(size_t size, size_t align) {
  ++alloc_count_;
  bytes_used_ += size;
  if (!chunks_.empty()) {
    Chunk& chunk = chunks_.back();
    // Align the absolute address, not the chunk-relative offset: the
    // chunk base itself is only as aligned as operator new[] made it.
    uintptr_t base = reinterpret_cast<uintptr_t>(chunk.data.get());
    uintptr_t bumped = base + chunk.used;
    size_t offset =
        ((bumped + align - 1) & ~(uintptr_t{align} - 1)) - base;
    if (offset + size <= chunk.capacity) {
      chunk.used = offset + size;
      return chunk.data.get() + offset;
    }
  }
  return AllocateSlow(size, align);
}

char* Arena::AllocateSlow(size_t size, size_t align) {
  // Double the chunk size as the arena grows so the chunk count stays
  // logarithmic; oversized requests get a dedicated right-sized chunk.
  size_t capacity =
      chunks_.empty()
          ? kMinChunkBytes
          : std::min(chunks_.back().capacity * 2, kMaxChunkBytes);
  capacity = std::max(capacity, size + align);
  Chunk chunk;
  chunk.data = std::make_unique<char[]>(capacity);
  chunk.capacity = capacity;
  bytes_reserved_ += capacity;
  chunks_.push_back(std::move(chunk));
  Chunk& fresh = chunks_.back();
  uintptr_t base = reinterpret_cast<uintptr_t>(fresh.data.get());
  size_t offset = ((base + align - 1) & ~(uintptr_t{align} - 1)) - base;
  fresh.used = offset + size;
  return fresh.data.get() + offset;
}

std::string_view Arena::CopyString(std::string_view s) {
  if (s.empty()) {
    // Counted as a call of zero bytes, without burning arena space.
    ++alloc_count_;
    return std::string_view("", 0);
  }
  char* dst = static_cast<char*>(Allocate(s.size(), /*align=*/1));
  std::memcpy(dst, s.data(), s.size());
  return std::string_view(dst, s.size());
}

}  // namespace privateclean
