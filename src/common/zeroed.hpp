// Zero-initialised slot arrays whose untouched pages cost nothing.
//
// std::make_unique<T[]>(n) value-initialises, writing every byte before the
// simulator touches any of it: each engine used to pay that for a 32 MB
// spill block and every 512 KB VM stack. Each array here is its own
// anonymous mapping instead: the kernel's zero pages are committed only on
// first write, and freeing returns them at once.
//
// calloc is not enough. Once glibc has freed one large chunk it serves the
// next from its heap, where a reused chunk is memset in full and a fresh one
// is not, so the pages an engine commits would depend on the allocation
// history of the process. Huge pages are declined for the same reason: a
// first write would commit 2 MB or 4 KB depending on the host's setting and
// the mapping's alignment.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

namespace gilfree {

struct UnmapDeleter {
  std::size_t bytes = 0;
  void operator()(void* p) const { ::munmap(p, bytes); }
};

template <typename T>
using ZeroedArray = std::unique_ptr<T[], UnmapDeleter>;

/// n zero-initialised elements of a trivial type (all-zero bytes = value 0).
template <typename T>
ZeroedArray<T> make_zeroed(std::size_t n) {
  static_assert(std::is_trivial_v<T>);
  if (n > SIZE_MAX / sizeof(T)) throw std::bad_alloc();
  const std::size_t bytes = n * sizeof(T);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  ::madvise(p, bytes, MADV_NOHUGEPAGE);
  return ZeroedArray<T>(static_cast<T*>(p), UnmapDeleter{bytes});
}

}  // namespace gilfree
