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
#include <type_traits>

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

    /**
     * Moves hand the block chain over; every block keeps its address,
     * so pointers into the arena stay valid.  The source is left
     * empty.
     */
    Arena(Arena &&other) noexcept;
    Arena &operator=(Arena &&other) noexcept;

    ~Arena();

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
     * Make room for @p bytes of coming allocations (each counted
     * after 8-byte rounding) without chaining a default-size block:
     * when no retained block has that much room, chain one of exactly
     * @p bytes.  An arena filled once and then kept (a stored clause)
     * thereby holds no slack.
     */
    void reserve(std::size_t bytes);

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

    std::size_t blockCount() const;

    /** Offset handle of a live allocation (asserts p is in-arena). */
    Offset offsetOf(const void *p) const;

    /** Address of an offset handle previously returned by offsetOf. */
    void *at(Offset off);
    const void *at(Offset off) const
    {
        return const_cast<Arena *>(this)->at(off);
    }

  private:
    /**
     * One heap allocation per block: this header, then the data.  The
     * chain is intrusive, so an arena costs three words plus its
     * blocks — a Program keeps one arena per clause.
     */
    struct Block
    {
        Block *next = nullptr;
        std::uint32_t capacity = 0;
        std::uint32_t used = 0;

        std::uint8_t *data() { return reinterpret_cast<std::uint8_t *>(this + 1); }
        bool contains(const void *p)
        {
            const std::uint8_t *bytes = static_cast<const std::uint8_t *>(p);
            return bytes >= data() && bytes < data() + capacity;
        }
    };
    static_assert(sizeof(Block) % 8 == 0, "block data must stay 8-aligned");

    static std::size_t round8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

    /**
     * The first block from the current one on with @p need free bytes
     * (it becomes current), or a freshly chained block of @p capacity.
     */
    Block *blockWithRoom(std::size_t need, std::size_t capacity);

    void release();

    Block *head_ = nullptr;
    Block *current_ = nullptr; // block being bumped (null iff no blocks)
    std::size_t blockBytes_;
};

/**
 * Minimal contiguous vector whose storage lives in an Arena.  Only
 * trivially copyable element types are supported: growth relocates
 * elements with memcpy (or extends in place when the vector owns the
 * arena's most recent allocation).  The abandoned old storage is
 * reclaimed wholesale at the next Arena::reset().
 *
 * The vector does not remember its arena: every call that may grow it
 * takes the arena, which must be the same one each time.  That keeps
 * the handle at two words, and the owner of both (a term arena, one
 * per stored clause) free to move the arena.
 *
 * Unlike std::vector there is no shrinking and no element
 * destruction; `clear()` just rewinds the size.  After the backing
 * Arena resets, call `detach()` before reuse — the data pointer is
 * dangling at that point.
 */
template <typename T>
class ArenaVector
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "ArenaVector elements must be trivially copyable");

  public:
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

    void push_back(Arena &arena, const T &value)
    {
        if (size_ == capacity_)
            grow(arena, std::size_t{size_} + 1);
        data_[size_++] = value;
    }

    /** Append a span of elements (the insert(end, ...) idiom). */
    void append(Arena &arena, const T *src, std::size_t count)
    {
        if (count == 0)
            return;
        if (size_ + count > capacity_)
            grow(arena, size_ + count);
        std::memcpy(data_ + size_, src, count * sizeof(T));
        size_ += static_cast<std::uint32_t>(count);
    }

    void resize(Arena &arena, std::size_t n)
    {
        if (n > capacity_)
            grow(arena, n);
        if (n > size_)
            std::memset(data_ + size_, 0, (n - size_) * sizeof(T));
        size_ = static_cast<std::uint32_t>(n);
    }

    /** Capacity for exactly @p n elements (no doubling, no minimum). */
    void reserve(Arena &arena, std::size_t n)
    {
        if (n > capacity_)
            reallocate(arena, n);
    }

  private:
    void grow(Arena &arena, std::size_t need)
    {
        // Doubling amortizes push_back; a bulk append past that takes
        // exactly what it needs.
        reallocate(arena, std::max<std::size_t>(
            capacity_ == 0 ? 8 : std::size_t{capacity_} * 2, need));
    }

    void reallocate(Arena &arena, std::size_t cap)
    {
        if (data_ != nullptr &&
            arena.tryExtend(data_, capacity_ * sizeof(T), cap * sizeof(T))) {
            capacity_ = static_cast<std::uint32_t>(cap);
            return;
        }
        T *fresh = arena.allocArray<T>(cap);
        if (size_ != 0)
            std::memcpy(fresh, data_, size_ * sizeof(T));
        data_ = fresh;
        capacity_ = static_cast<std::uint32_t>(cap);
    }

    T *data_ = nullptr;
    // 32-bit counts (term arenas index with 32-bit TermRefs anyway).
    std::uint32_t size_ = 0;
    std::uint32_t capacity_ = 0;
};

} // namespace clare::support

#endif // CLARE_SUPPORT_ARENA_HH
