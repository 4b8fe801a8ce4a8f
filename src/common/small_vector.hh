/**
 * @file
 * A vector with inline storage for the first N elements.
 *
 * The engine hot path materializes one small integer vector per
 * (storage level, tensor) record per evaluation (tile extents: one
 * entry per tensor rank, i.e. 2-4 entries in every workload the paper
 * studies). With `std::vector` each of those is a heap allocation;
 * `SmallVector` keeps them in the owning record until they outgrow N,
 * which they never do on the paper's workloads, so per-evaluation
 * allocation count drops from O(levels x tensors) to O(1).
 *
 * Only the API surface the engine needs is provided. Semantics match
 * `std::vector` (in particular element-wise `operator==`, which the
 * bit-identity contract of `EvalResult` relies on).
 */

#ifndef SPARSELOOP_COMMON_SMALL_VECTOR_HH
#define SPARSELOOP_COMMON_SMALL_VECTOR_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace sparseloop {

template <typename T, std::size_t N>
class SmallVector
{
    static_assert(N > 0, "inline capacity must be positive");

  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    SmallVector() noexcept = default;

    explicit SmallVector(std::size_t n, const T &value = T())
    {
        assign(n, value);
    }

    SmallVector(std::initializer_list<T> init)
    {
        reserve(init.size());
        for (const T &v : init) {
            pushBackFast(v);
        }
    }

    SmallVector(const SmallVector &o)
    {
        reserve(o.size_);
        std::uninitialized_copy(o.begin(), o.end(), data());
        size_ = o.size_;
    }

    SmallVector(SmallVector &&o) noexcept
    {
        moveFrom(std::move(o));
    }

    SmallVector &operator=(const SmallVector &o)
    {
        if (this != &o) {
            clear();
            reserve(o.size_);
            std::uninitialized_copy(o.begin(), o.end(), data());
            size_ = o.size_;
        }
        return *this;
    }

    SmallVector &operator=(SmallVector &&o) noexcept
    {
        if (this != &o) {
            destroyAll();
            moveFrom(std::move(o));
        }
        return *this;
    }

    ~SmallVector() { destroyAll(); }

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }
    std::size_t capacity() const noexcept { return capacity_; }
    /** Whether the elements currently live in the inline buffer. */
    bool inlineStorage() const noexcept { return heap_ == nullptr; }

    T *data() noexcept
    {
        return heap_ ? heap_ : reinterpret_cast<T *>(inline_);
    }
    const T *data() const noexcept
    {
        return heap_ ? heap_ : reinterpret_cast<const T *>(inline_);
    }

    iterator begin() noexcept { return data(); }
    iterator end() noexcept { return data() + size_; }
    const_iterator begin() const noexcept { return data(); }
    const_iterator end() const noexcept { return data() + size_; }

    T &operator[](std::size_t i) { return data()[i]; }
    const T &operator[](std::size_t i) const { return data()[i]; }
    T &front() { return data()[0]; }
    const T &front() const { return data()[0]; }
    T &back() { return data()[size_ - 1]; }
    const T &back() const { return data()[size_ - 1]; }

    void clear() noexcept
    {
        destroyRange(data(), size_);
        size_ = 0;
    }

    void reserve(std::size_t n)
    {
        if (n > capacity_) {
            grow(n);
        }
    }

    void push_back(const T &v)
    {
        reserveForOne();
        pushBackFast(v);
    }

    void push_back(T &&v)
    {
        reserveForOne();
        ::new (static_cast<void *>(data() + size_)) T(std::move(v));
        ++size_;
    }

    void pop_back()
    {
        --size_;
        data()[size_].~T();
    }

    void resize(std::size_t n, const T &value = T())
    {
        if (n < size_) {
            destroyRange(data() + n, size_ - n);
        } else if (n > size_) {
            reserve(n);
            std::uninitialized_fill(data() + size_, data() + n, value);
        }
        size_ = n;
    }

    void assign(std::size_t n, const T &value)
    {
        clear();
        reserve(n);
        std::uninitialized_fill(data(), data() + n, value);
        size_ = n;
    }

    /** Replace the contents with [first, last) (std::vector's
     *  iterator-range assign). */
    template <typename It,
              typename = std::enable_if_t<!std::is_integral<It>::value>>
    void assign(It first, It last)
    {
        clear();
        reserve(static_cast<std::size_t>(std::distance(first, last)));
        for (; first != last; ++first) {
            pushBackFast(static_cast<T>(*first));
        }
    }

    bool operator==(const SmallVector &o) const
    {
        return size_ == o.size_ &&
               std::equal(begin(), end(), o.begin());
    }
    bool operator!=(const SmallVector &o) const { return !(*this == o); }

  private:
    void reserveForOne()
    {
        if (size_ == capacity_) {
            grow(capacity_ * 2);
        }
    }

    void pushBackFast(const T &v)
    {
        ::new (static_cast<void *>(data() + size_)) T(v);
        ++size_;
    }

    void grow(std::size_t n)
    {
        const std::size_t cap = std::max(n, capacity_ * 2);
        T *mem = static_cast<T *>(
            ::operator new(cap * sizeof(T), std::align_val_t(alignof(T))));
        T *src = data();
        std::uninitialized_copy(std::make_move_iterator(src),
                                std::make_move_iterator(src + size_), mem);
        destroyRange(src, size_);
        freeHeap();
        heap_ = mem;
        capacity_ = cap;
    }

    void moveFrom(SmallVector &&o) noexcept
    {
        if (o.heap_) {
            heap_ = o.heap_;
            capacity_ = o.capacity_;
            size_ = o.size_;
            o.heap_ = nullptr;
            o.capacity_ = N;
            o.size_ = 0;
        } else {
            heap_ = nullptr;
            capacity_ = N;
            std::uninitialized_copy(
                std::make_move_iterator(o.begin()),
                std::make_move_iterator(o.end()),
                reinterpret_cast<T *>(inline_));
            size_ = o.size_;
            o.clear();
        }
    }

    static void destroyRange(T *p, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            p[i].~T();
        }
    }

    void destroyAll() noexcept
    {
        destroyRange(data(), size_);
        freeHeap();
        heap_ = nullptr;
        capacity_ = N;
        size_ = 0;
    }

    void freeHeap() noexcept
    {
        if (heap_) {
            ::operator delete(heap_, std::align_val_t(alignof(T)));
        }
    }

    alignas(T) unsigned char inline_[N * sizeof(T)];
    T *heap_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = N;
};

/** Tile extents per tensor rank: every workload in the paper has <= 4
 *  ranks, so this never leaves the inline buffer in practice. */
using TileExtents = SmallVector<std::int64_t, 4>;

/** Total number of elements covered by a tile-extent vector (the
 *  `volume` overload for the inline-storage container). */
inline std::int64_t
volume(const TileExtents &extents)
{
    std::int64_t v = 1;
    for (std::int64_t e : extents) {
        v *= e;
    }
    return v;
}

} // namespace sparseloop

#endif // SPARSELOOP_COMMON_SMALL_VECTOR_HH
