//===- PagedArray.h - Lazily paged direct-map array --------------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A two-level direct-map array: a dense page table over lazily allocated
/// fixed-size pages. Indexing is two shifts and two loads — no hashing, no
/// probing — which is what the detector shadow memory needs on its
/// per-access hot path. Pages come from a shared MonotonicArena so a whole
/// shadow store is a handful of slab allocations torn down wholesale.
///
//===----------------------------------------------------------------------===//

#ifndef TDR_SUPPORT_PAGEDARRAY_H
#define TDR_SUPPORT_PAGEDARRAY_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace tdr {

/// Bump allocator over fixed-size slabs. Never frees individual blocks;
/// everything is released when the arena dies. Oversized requests get a
/// dedicated slab. Slabs are not zero-filled (every user initializes what
/// it allocates), so an untouched slab tail costs no resident memory.
class MonotonicArena {
public:
  static constexpr size_t SlabBytes = 1 << 16;

  MonotonicArena() = default;
  MonotonicArena(const MonotonicArena &) = delete;
  MonotonicArena &operator=(const MonotonicArena &) = delete;

  void *allocate(size_t Bytes, size_t Align) {
    assert(Align && (Align & (Align - 1)) == 0 && "alignment must be pow2");
    uintptr_t P = (reinterpret_cast<uintptr_t>(Cur) + Align - 1) & ~(Align - 1);
    if (P + Bytes > reinterpret_cast<uintptr_t>(End)) {
      size_t SlabSize = Bytes + Align <= SlabBytes ? SlabBytes : Bytes + Align;
      Slabs.push_back(
          std::make_unique_for_overwrite<unsigned char[]>(SlabSize));
      Cur = Slabs.back().get();
      End = Cur + SlabSize;
      Allocated += SlabSize;
      P = (reinterpret_cast<uintptr_t>(Cur) + Align - 1) & ~(Align - 1);
    }
    Cur = reinterpret_cast<unsigned char *>(P + Bytes);
    Used += Bytes;
    return reinterpret_cast<void *>(P);
  }

  size_t numSlabs() const { return Slabs.size(); }

  /// Total slab bytes held by the arena, including the unconsumed tail of
  /// the current slab. This is the allocator's footprint, not demand.
  size_t bytesReserved() const { return Allocated; }

  /// Bytes actually handed out by allocate() (alignment padding and slab
  /// tails excluded). bytesUsed() <= bytesReserved() always; a large gap
  /// means the arena is mostly idle slab, not live shadow state.
  size_t bytesUsed() const { return Used; }

private:
  std::vector<std::unique_ptr<unsigned char[]>> Slabs;
  unsigned char *Cur = nullptr;
  unsigned char *End = nullptr;
  size_t Allocated = 0;
  size_t Used = 0;
};

/// Opt-in trait for types whose default-constructed state is all-zero
/// bytes: declare `static constexpr bool AllZeroInit = true;` in \p T and
/// PagedArray materializes pages with one memset instead of a per-element
/// constructor loop. The detector shadow slots (aggregates of SmallVectors
/// and counters) qualify, which makes first touch of a page cheap enough
/// that sparse use of a large direct map stays competitive with a hash map.
template <typename T, typename = void>
struct IsAllZeroInit : std::false_type {};
template <typename T>
struct IsAllZeroInit<T, typename std::enable_if<T::AllZeroInit>::type>
    : std::true_type {};

/// Direct-map array of \p T indexed by uint64, with pages of 2^PageBits
/// elements allocated on first touch. Elements are value-initialized when
/// their page materializes (memset for IsAllZeroInit types); the destructor
/// runs element destructors (the arena only reclaims the raw memory).
template <typename T, unsigned PageBits = 9> class PagedArray {
public:
  static constexpr uint64_t PageSize = 1ull << PageBits;

  explicit PagedArray(MonotonicArena &Arena) : Arena(Arena) {}

  PagedArray(const PagedArray &) = delete;
  PagedArray &operator=(const PagedArray &) = delete;

  ~PagedArray() {
    if (!std::is_trivially_destructible<T>::value)
      for (T *Page : Pages)
        if (Page)
          for (uint64_t I = 0; I != PageSize; ++I)
            Page[I].~T();
  }

  /// The element at \p I, materializing its page if needed.
  T &getOrCreate(uint64_t I) {
    uint64_t P = I >> PageBits;
    if (P >= Pages.size())
      Pages.resize(P + 1, nullptr);
    T *&Page = Pages[P];
    if (!Page) {
      Page = static_cast<T *>(Arena.allocate(sizeof(T) * PageSize, alignof(T)));
      if (IsAllZeroInit<T>::value)
        std::memset(static_cast<void *>(Page), 0, sizeof(T) * PageSize);
      else
        for (uint64_t J = 0; J != PageSize; ++J)
          new (Page + J) T();
    }
    return Page[I & (PageSize - 1)];
  }

  /// The element at \p I, or null when its page was never touched.
  T *lookup(uint64_t I) const {
    uint64_t P = I >> PageBits;
    if (P >= Pages.size() || !Pages[P])
      return nullptr;
    return &Pages[P][I & (PageSize - 1)];
  }

  size_t numPages() const {
    size_t Count = 0;
    for (T *Page : Pages)
      Count += Page != nullptr;
    return Count;
  }

  /// Bytes held by the page-table vector itself. The table is dense in the
  /// highest index touched, so for sparse giant indices this — not the
  /// pages — is the dominant cost; accounting must include it.
  size_t indexBytes() const { return Pages.capacity() * sizeof(T *); }

private:
  MonotonicArena &Arena;
  std::vector<T *> Pages;
};

} // namespace tdr

#endif // TDR_SUPPORT_PAGEDARRAY_H
