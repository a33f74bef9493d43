/**
 * @file
 * Append-only storage shared by successive immutable versions.
 *
 * A live assertz commit turns a predicate image of N items into one of
 * N + d items.  Copying the N items for every commit makes a commit
 * cost grow with the predicate.  Instead the two versions share one
 * storage block: each SharedPrefix holds the block plus its own length
 * and reads only the prefix [0, size()).
 *
 * append() writes the new items in place, behind the prefix, when the
 * prefix is the block's tip (nothing was appended to it before) and
 * capacity remains; otherwise it copies the prefix once into a block of
 * doubled capacity.  Items below any handed-out length are never
 * written again, so readers of older versions read stable memory
 * without locking.  Readers never read the block's fill mark either:
 * only append() touches it, under the block's own mutex.
 */

#ifndef CLARE_SUPPORT_SHARED_PREFIX_HH
#define CLARE_SUPPORT_SHARED_PREFIX_HH

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

namespace clare::support {

/** A read-only contiguous run of T that compares by value. */
template <typename T>
class PrefixView : public std::span<const T>
{
  public:
    using std::span<const T>::span;
    /** Lets gtest print the elements of a failed comparison. */
    using const_iterator = typename std::span<const T>::iterator;

    friend bool operator==(PrefixView a, PrefixView b)
    {
        return std::ranges::equal(a, b);
    }
};

/** One storage block, for retained-memory accounting. */
struct StorageExtent
{
    const void *block = nullptr;
    std::size_t bytes = 0;  ///< capacity of the block
};

/** A prefix of an append-only storage block shared between holders. */
template <typename T>
class SharedPrefix
{
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    SharedPrefix() = default;

    /** Storage adopting @p items (exact-size after shrink_to_fit). */
    explicit SharedPrefix(std::vector<T> items)
    {
        if (items.empty())
            return;
        block_ = std::make_shared<Block>(std::move(items));
        data_ = block_->items.data();
        size_ = block_->items.size();
    }

    PrefixView<T> view() const { return {data_, size_}; }
    std::size_t size() const { return size_; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    /**
     * This prefix followed by @p tail.  In place when this prefix is
     * the block's tip and the block has room; otherwise one copy into
     * a block with room for twice the new length.
     */
    SharedPrefix append(std::span<const T> tail) const
    {
        if (tail.empty())
            return *this;
        const std::size_t total = size_ + tail.size();
        if (block_ != nullptr) {
            std::lock_guard<std::mutex> lock(block_->mutex);
            if (block_->items.size() == size_ &&
                total <= block_->capacity) {
                block_->items.insert(block_->items.end(), tail.begin(),
                                     tail.end());
                return SharedPrefix(block_, total);
            }
        }
        std::vector<T> items;
        items.reserve(2 * total);
        items.insert(items.end(), data_, data_ + size_);
        items.insert(items.end(), tail.begin(), tail.end());
        return SharedPrefix(std::make_shared<Block>(std::move(items)),
                            total);
    }

    StorageExtent extent() const
    {
        return block_ == nullptr
            ? StorageExtent{}
            : StorageExtent{block_.get(), block_->capacity * sizeof(T)};
    }

  private:
    struct Block
    {
        explicit Block(std::vector<T> v)
            : items(std::move(v)), capacity(items.capacity())
        {}

        /**
         * Never reallocated: appends stay within the capacity it had
         * when the block was made, so every prefix's data pointer
         * stays valid.  Its size is the fill mark, the end of the
         * longest prefix handed out (guarded by mutex).
         */
        std::vector<T> items;
        const std::size_t capacity;
        std::mutex mutex;
    };

    SharedPrefix(std::shared_ptr<Block> block, std::size_t size)
        : block_(std::move(block)), data_(block_->items.data()),
          size_(size)
    {}

    std::shared_ptr<Block> block_;
    const T *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace clare::support

#endif // CLARE_SUPPORT_SHARED_PREFIX_HH
