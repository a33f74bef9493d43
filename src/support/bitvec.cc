#include "support/bitvec.hh"

#include <algorithm>
#include <bit>

#include "support/logging.hh"

namespace clare {

BitVec::BitVec(std::size_t width)
    : width_(width), words_((width + 63) / 64, 0)
{
}

void
BitVec::zero(std::size_t width)
{
    if (width_ != width) {
        width_ = width;
        words_.resize((width + 63) / 64);
    }
    std::fill(words_.begin(), words_.end(), 0);
}

void
BitVec::checkBit(std::size_t bit) const
{
    clare_assert(bit < width_, "bit %zu out of range (width %zu)",
                 bit, width_);
}

void
BitVec::set(std::size_t bit)
{
    checkBit(bit);
    words_[bit / 64] |= (std::uint64_t{1} << (bit % 64));
}

void
BitVec::clear(std::size_t bit)
{
    checkBit(bit);
    words_[bit / 64] &= ~(std::uint64_t{1} << (bit % 64));
}

bool
BitVec::test(std::size_t bit) const
{
    checkBit(bit);
    return (words_[bit / 64] >> (bit % 64)) & 1;
}

std::size_t
BitVec::popcount() const
{
    std::size_t n = 0;
    for (std::uint64_t w : words_)
        n += static_cast<std::size_t>(std::popcount(w));
    return n;
}

bool
BitVec::none() const
{
    for (std::uint64_t w : words_)
        if (w)
            return false;
    return true;
}

BitVec &
BitVec::operator|=(const BitVec &other)
{
    clare_assert(width_ == other.width_, "width mismatch %zu vs %zu",
                 width_, other.width_);
    for (std::size_t i = 0; i < words_.size(); ++i)
        words_[i] |= other.words_[i];
    return *this;
}

BitVec &
BitVec::operator&=(const BitVec &other)
{
    clare_assert(width_ == other.width_, "width mismatch %zu vs %zu",
                 width_, other.width_);
    for (std::size_t i = 0; i < words_.size(); ++i)
        words_[i] &= other.words_[i];
    return *this;
}

bool
BitVec::subsetOf(const BitVec &other) const
{
    return andNotIsZero(*this, other);
}

bool
BitVec::andNotIsZero(const BitVec &a, const BitVec &b)
{
    clare_assert(a.width_ == b.width_, "width mismatch %zu vs %zu",
                 a.width_, b.width_);
    for (std::size_t i = 0; i < a.words_.size(); ++i)
        if (a.words_[i] & ~b.words_[i])
            return false;
    return true;
}

bool
BitVec::operator==(const BitVec &other) const
{
    return width_ == other.width_ && words_ == other.words_;
}

std::string
BitVec::toString() const
{
    std::string s;
    s.reserve(width_);
    for (std::size_t i = width_; i-- > 0;)
        s.push_back(test(i) ? '1' : '0');
    return s;
}

void
BitVec::serialize(std::vector<std::uint8_t> &out) const
{
    std::size_t bytes = serializedBytes(width_);
    for (std::size_t b = 0; b < bytes; ++b) {
        std::size_t word = b / 8;
        std::size_t shift = (b % 8) * 8;
        out.push_back(static_cast<std::uint8_t>(words_[word] >> shift));
    }
}

BitVec
BitVec::deserialize(const std::vector<std::uint8_t> &in,
                    std::size_t &offset, std::size_t width)
{
    BitVec v;
    v.deserializeInto(in, offset, width);
    return v;
}

void
BitVec::deserializeInto(std::span<const std::uint8_t> in,
                        std::size_t &offset, std::size_t width)
{
    zero(width);
    std::size_t bytes = serializedBytes(width);
    clare_assert(offset + bytes <= in.size(),
                 "bitvec deserialize overrun at offset %zu", offset);
    for (std::size_t b = 0; b < bytes; ++b) {
        std::size_t word = b / 8;
        std::size_t shift = (b % 8) * 8;
        words_[word] |= static_cast<std::uint64_t>(in[offset + b]) << shift;
    }
    offset += bytes;
}

std::size_t
BitVec::serializedBytes(std::size_t width)
{
    return (width + 7) / 8;
}

} // namespace clare
