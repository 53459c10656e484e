// PageAllocator: a std::allocator that maps its own pages for large blocks.
//
// glibc serves a block of at least M_MMAP_THRESHOLD bytes (128 KiB at start)
// from a mapping of its own, but freeing such a block raises the threshold to
// the block's size (up to 32 MiB). Once one multi-MiB feature matrix has been
// freed, the next ones come from the brk heap, where a small allocation made
// while one is free can take the front of its hole; the next matrix then no
// longer fits there, and the heap grows past pages that stay resident. Which
// small allocation lands where depends on everything else the process
// allocates, so peak RSS moved by a whole matrix from one run (or seed) to
// the next. Blocks of at least kPageAllocatorMinBytes get a private anonymous
// mapping here, unmapped when they are freed, and leave malloc's threshold
// alone; smaller blocks go through std::allocator.

#ifndef ALEM_UTIL_PAGE_ALLOCATOR_H_
#define ALEM_UTIL_PAGE_ALLOCATOR_H_

#include <sys/mman.h>

#include <cstddef>
#include <limits>
#include <memory>
#include <new>

namespace alem {

// Pool matrices (0.8 to 11.4 MB in the benchmark workloads) get pages of
// their own; the training sets and bootstrap samples gathered from them (at
// most 300 labeled rows of 189 floats there, 227 KB) stay on the heap, where
// they are reused without new page faults.
inline constexpr size_t kPageAllocatorMinBytes = size_t{256} << 10;

template <typename T>
class PageAllocator {
 public:
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}  // NOLINT: rebind.

  T* allocate(size_t n) {
    if (n > std::numeric_limits<size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    const size_t bytes = n * sizeof(T);
    if (bytes < kPageAllocatorMinBytes) return std::allocator<T>().allocate(n);
    // A matrix is value-initialized as soon as it is allocated, so its pages
    // are faulted in here by one call rather than one trap per page.
    void* pages = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (pages == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(pages);
  }

  void deallocate(T* p, size_t n) noexcept {
    const size_t bytes = n * sizeof(T);
    if (bytes < kPageAllocatorMinBytes) {
      std::allocator<T>().deallocate(p, n);
    } else {
      munmap(p, bytes);
    }
  }

  template <typename U>
  bool operator==(const PageAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace alem

#endif  // ALEM_UTIL_PAGE_ALLOCATOR_H_
