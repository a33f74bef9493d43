#include "support/arena.hh"

#include <new>
#include <utility>

#include "support/logging.hh"

namespace clare::support {

Arena::Arena(Arena &&other) noexcept
    : head_(std::exchange(other.head_, nullptr)),
      current_(std::exchange(other.current_, nullptr)),
      blockBytes_(other.blockBytes_)
{
}

Arena &
Arena::operator=(Arena &&other) noexcept
{
    if (this != &other) {
        release();
        head_ = std::exchange(other.head_, nullptr);
        current_ = std::exchange(other.current_, nullptr);
        blockBytes_ = other.blockBytes_;
    }
    return *this;
}

Arena::~Arena()
{
    release();
}

void
Arena::release()
{
    for (Block *b = head_; b != nullptr;) {
        Block *next = b->next;
        b->~Block();
        ::operator delete(b);
        b = next;
    }
    head_ = nullptr;
    current_ = nullptr;
}

Arena::Block *
Arena::blockWithRoom(std::size_t need, std::size_t capacity)
{
    // Advance through retained blocks first; a warmed-up arena finds
    // room without touching the heap.
    for (Block *b = current_; b != nullptr; b = b->next) {
        current_ = b;
        if (b->used + need <= b->capacity)
            return b;
    }
    clare_assert(capacity <= UINT32_MAX, "arena block of %zu bytes",
                 capacity);
    Block *fresh =
        new (::operator new(sizeof(Block) + capacity)) Block{};
    fresh->capacity = static_cast<std::uint32_t>(capacity);
    if (current_ == nullptr)
        head_ = fresh;
    else
        current_->next = fresh;
    current_ = fresh;
    return fresh;
}

void *
Arena::alloc(std::size_t bytes)
{
    std::size_t need = round8(bytes == 0 ? 1 : bytes);
    // A request past the block size gets a block sized to it.
    Block *b = blockWithRoom(need, need > blockBytes_ ? need : blockBytes_);
    void *p = b->data() + b->used;
    b->used += static_cast<std::uint32_t>(need);
    return p;
}

void
Arena::reserve(std::size_t bytes)
{
    if (bytes != 0)
        blockWithRoom(round8(bytes), round8(bytes));
}

bool
Arena::tryExtend(const void *p, std::size_t old_bytes, std::size_t new_bytes)
{
    if (current_ == nullptr)
        return false;
    Block &b = *current_;
    std::size_t old_rounded = round8(old_bytes == 0 ? 1 : old_bytes);
    const std::uint8_t *bytes = static_cast<const std::uint8_t *>(p);
    // The allocation must live inside the current block: comparing
    // cursors alone is not enough, because a pointer into an OLDER
    // block can abut the current block's cursor by heap-layout
    // coincidence (allocators without chunk headers or redzones place
    // blocks back to back), and extending through that false match
    // would write past the older block's real end.
    if (!b.contains(p))
        return false;
    // Only the block's most recent allocation can stretch.
    if (old_bytes == 0 || bytes + old_rounded != b.data() + b.used)
        return false;
    std::size_t new_rounded = round8(new_bytes);
    std::size_t start = b.used - old_rounded;
    if (start + new_rounded > b.capacity)
        return false;
    b.used = static_cast<std::uint32_t>(start + new_rounded);
    return true;
}

void
Arena::reset()
{
    for (Block *b = head_; b != nullptr; b = b->next)
        b->used = 0;
    current_ = head_;
}

std::size_t
Arena::usedBytes() const
{
    std::size_t total = 0;
    for (const Block *b = head_; b != nullptr; b = b->next)
        total += b->used;
    return total;
}

std::size_t
Arena::capacityBytes() const
{
    std::size_t total = 0;
    for (const Block *b = head_; b != nullptr; b = b->next)
        total += b->capacity;
    return total;
}

std::size_t
Arena::blockCount() const
{
    std::size_t n = 0;
    for (const Block *b = head_; b != nullptr; b = b->next)
        ++n;
    return n;
}

Arena::Offset
Arena::offsetOf(const void *p) const
{
    const std::uint8_t *bytes = static_cast<const std::uint8_t *>(p);
    std::size_t i = 0;
    for (Block *b = head_; b != nullptr; b = b->next, ++i)
        if (b->contains(p))
            return (static_cast<Offset>(i) << 48) |
                   static_cast<Offset>(bytes - b->data());
    clare_panic("pointer is not inside this arena");
}

void *
Arena::at(Offset off)
{
    std::size_t block = static_cast<std::size_t>(off >> 48);
    std::size_t byte = static_cast<std::size_t>(off & 0xffffffffffffull);
    Block *b = head_;
    for (std::size_t i = 0; i < block && b != nullptr; ++i)
        b = b->next;
    clare_assert(b != nullptr, "arena offset block %zu out of range",
                 block);
    clare_assert(byte < b->capacity, "arena offset byte %zu out of range",
                 byte);
    return b->data() + byte;
}

} // namespace clare::support
