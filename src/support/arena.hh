/**
 * @file
 * Block-chained bump allocator with O(1) reset.
 *
 * The serving hot path builds and tears down the same transient
 * structures for every request: decoded goal terms, PIF/TLV encode
 * buffers, per-batch scratch.  `Arena` lets those structures live in a
 * handful of retained blocks that are rewound (not freed) between
 * requests, so the steady state performs no heap allocation at all.
 *
 * Layout (the `bog_arena_*` idiom): allocations bump a cursor through
 * fixed-capacity blocks; when the current block cannot satisfy a
 * request a new block is chained (sized to the request if it exceeds
 * the default block size).  Every allocation is rounded up to 8 bytes
 * so any scalar or pointer-free struct can live at the returned
 * address.  `reset()` rewinds every block's cursor and keeps the
 * high-water memory for reuse — O(blocks), effectively O(1) since the
 * block count stabilizes after warm-up.
 *
 * Handles: code that stores references into an arena across
 * container growth or relocation should hold `Arena::Offset` values
 * (block index + byte offset packed into 64 bits) instead of raw
 * pointers; `at()` turns an offset back into an address.  Term nodes
 * take this further — `term::TermRef` and PIF buffers index dense
 * arrays, which is the same idea with smaller handles.
 */

#ifndef CLARE_SUPPORT_ARENA_HH
#define CLARE_SUPPORT_ARENA_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace clare::support {

class Arena
{
  public:
    /** Default capacity of each chained block. */
    static constexpr std::size_t kDefaultBlockBytes = 4096;

    /** Relocatable handle: block index (high 16) + byte offset. */
    using Offset = std::uint64_t;

    explicit Arena(std::size_t block_bytes = kDefaultBlockBytes)
        : blockBytes_(block_bytes == 0 ? kDefaultBlockBytes : block_bytes)
    {
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Allocate @p bytes, 8-byte aligned.  Never returns nullptr. */
    void *alloc(std::size_t bytes);

    /** Typed array allocation (uninitialized storage). */
    template <typename T>
    T *allocArray(std::size_t count)
    {
        static_assert(alignof(T) <= 8, "arena guarantees 8-byte alignment");
        return static_cast<T *>(alloc(count * sizeof(T)));
    }

    /**
     * Grow the most recent allocation in place.  Succeeds only when
     * @p p (sized @p old_bytes) is the last allocation in the current
     * block and the block can absorb the new size; the caller keeps
     * the same address and no copy happens.
     */
    bool tryExtend(const void *p, std::size_t old_bytes,
                   std::size_t new_bytes);

    /**
     * Rewind every block cursor.  All previously returned pointers
     * become dangling; the block memory itself is retained, so a
     * warmed-up arena services subsequent identical workloads without
     * touching the heap.
     */
    void reset();

    /** Bytes handed out since the last reset (after rounding). */
    std::size_t usedBytes() const;

    /** Total bytes held across all retained blocks. */
    std::size_t capacityBytes() const;

    std::size_t blockCount() const { return blocks_.size(); }

    /** Offset handle of a live allocation (asserts p is in-arena). */
    Offset offsetOf(const void *p) const;

    /** Address of an offset handle previously returned by offsetOf. */
    void *at(Offset off);
    const void *at(Offset off) const
    {
        return const_cast<Arena *>(this)->at(off);
    }

  private:
    struct Block
    {
        std::unique_ptr<std::uint8_t[]> data;
        std::size_t capacity = 0;
        std::size_t used = 0;
    };

    static std::size_t round8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

    std::vector<Block> blocks_;
    std::size_t current_ = 0; // block being bumped (valid iff !blocks_.empty())
    std::size_t blockBytes_;
};

/**
 * Minimal contiguous vector whose storage lives in an Arena.  Only
 * trivially copyable element types are supported: growth relocates
 * elements with memcpy (or extends in place when the vector owns the
 * arena's most recent allocation).  The abandoned old storage is
 * reclaimed wholesale at the next Arena::reset().
 *
 * Unlike std::vector there is no shrinking and no element
 * destruction; `clear()` just rewinds the size.  After the backing
 * Arena resets, call `detach()` (or attach to the arena again) before
 * reuse — the data pointer is dangling at that point.
 */
template <typename T>
class ArenaVector
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "ArenaVector elements must be trivially copyable");

  public:
    ArenaVector() = default;
    explicit ArenaVector(Arena &arena) : arena_(&arena) {}

    /** Bind to an arena and forget any previous storage. */
    void attach(Arena &arena)
    {
        arena_ = &arena;
        data_ = nullptr;
        size_ = 0;
        capacity_ = 0;
    }

    /** Forget the storage (used after the backing arena resets). */
    void detach()
    {
        data_ = nullptr;
        size_ = 0;
        capacity_ = 0;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    void clear() { size_ = 0; }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    T *data() { return data_; }
    const T *data() const { return data_; }
    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }
    T &back() { return data_[size_ - 1]; }
    const T &back() const { return data_[size_ - 1]; }

    void push_back(const T &value)
    {
        if (size_ == capacity_)
            grow(size_ + 1);
        data_[size_++] = value;
    }

    /** Append a span of elements (the insert(end, ...) idiom). */
    void append(const T *src, std::size_t count)
    {
        if (count == 0)
            return;
        if (size_ + count > capacity_)
            grow(size_ + count);
        std::memcpy(data_ + size_, src, count * sizeof(T));
        size_ += count;
    }

    void resize(std::size_t n)
    {
        if (n > capacity_)
            grow(n);
        if (n > size_)
            std::memset(data_ + size_, 0, (n - size_) * sizeof(T));
        size_ = n;
    }

  private:
    void grow(std::size_t need)
    {
        // Doubling amortizes push_back; a bulk append past that takes
        // exactly what it needs (a copied TermArena is sized to fit).
        std::size_t cap = std::max(capacity_ == 0 ? 8 : capacity_ * 2,
                                   need);
        if (data_ != nullptr &&
            arena_->tryExtend(data_, capacity_ * sizeof(T),
                              cap * sizeof(T))) {
            capacity_ = cap;
            return;
        }
        T *fresh = arena_->allocArray<T>(cap);
        if (size_ != 0)
            std::memcpy(fresh, data_, size_ * sizeof(T));
        data_ = fresh;
        capacity_ = cap;
    }

    Arena *arena_ = nullptr;
    T *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

} // namespace clare::support

#endif // CLARE_SUPPORT_ARENA_HH
