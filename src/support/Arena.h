// Arena.h - bump-pointer allocation.
//
// The IR contexts unique types/attrs/constants for the lifetime of the
// context; individually heap-allocated nodes waste a malloc header and a
// pointer chase per node and make teardown O(nodes) frees. A BumpAllocator
// hands out pointers from large slabs and frees them all at once; nodes
// with non-trivial members (std::string, std::vector) register a
// destructor so the arena can still run them at teardown.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace mha {

class BumpAllocator {
public:
  BumpAllocator() = default;
  BumpAllocator(const BumpAllocator &) = delete;
  BumpAllocator &operator=(const BumpAllocator &) = delete;
  ~BumpAllocator() { reset(); }

  /// Raw aligned allocation. Never returns null (new[] throws on OOM).
  void *allocate(size_t size, size_t align) {
    size_t cur = reinterpret_cast<uintptr_t>(ptr_);
    size_t aligned = (cur + align - 1) & ~(align - 1);
    size_t padding = aligned - cur;
    if (size + padding > static_cast<size_t>(end_ - ptr_)) {
      newSlab(size + align);
      cur = reinterpret_cast<uintptr_t>(ptr_);
      aligned = (cur + align - 1) & ~(align - 1);
      padding = aligned - cur;
    }
    ptr_ += padding + size;
    bytesAllocated_ += padding + size;
    return reinterpret_cast<void *>(aligned);
  }

  /// Constructs a T in the arena. Trivially-destructible Ts cost only the
  /// bump; others are queued for destruction at reset()/teardown.
  template <typename T, typename... Args> T *create(Args &&...args) {
    T *obj = new (allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
    registerDestructor(obj);
    return obj;
  }

  /// Records `obj` (already placement-constructed in this arena) for
  /// destruction at teardown. No-op for trivially-destructible types.
  template <typename T> void registerDestructor(T *obj) {
    if constexpr (!std::is_trivially_destructible_v<T>)
      destructors_.push_back({obj, [](void *p) { static_cast<T *>(p)->~T(); }});
  }

  /// Destroys registered objects (newest first) and frees every slab.
  void reset() {
    for (auto it = destructors_.rbegin(); it != destructors_.rend(); ++it)
      it->destroy(it->object);
    destructors_.clear();
    for (char *slab : slabs_)
      delete[] slab;
    slabs_.clear();
    ptr_ = end_ = nullptr;
    bytesAllocated_ = 0;
  }

  size_t bytesAllocated() const { return bytesAllocated_; }
  size_t numSlabs() const { return slabs_.size(); }

private:
  void newSlab(size_t minSize) {
    // Start at 16 KiB and double up to 1 MiB so small contexts stay small
    // while parser-heavy ones amortise the allocations.
    size_t size = slabs_.empty() ? kInitialSlab
                                 : std::min(kMaxSlab, slabSize_ * 2);
    if (size < minSize)
      size = minSize;
    slabSize_ = size;
    char *slab = new char[size];
    slabs_.push_back(slab);
    ptr_ = slab;
    end_ = slab + size;
  }

  static constexpr size_t kInitialSlab = 16 * 1024;
  static constexpr size_t kMaxSlab = 1024 * 1024;

  struct Destructor {
    void *object;
    void (*destroy)(void *);
  };

  std::vector<char *> slabs_;
  std::vector<Destructor> destructors_;
  char *ptr_ = nullptr;
  char *end_ = nullptr;
  size_t slabSize_ = kInitialSlab;
  size_t bytesAllocated_ = 0;
};

} // namespace mha
