/**
 * @file
 * Multi-word PE set (docs/ARCHITECTURE.md).
 *
 * A dynamically sized bitset over PE ids, used wherever the machine
 * reasons about "which PEs" — the residency filter's per-block copy and
 * lock masks, test ground truth, and introspection. One 64-bit word
 * covers the paper's whole design space; the multi-word form is what
 * keeps the masks every snoop walks exact past 64 PEs.
 *
 * Iteration is the same ctz walk the bus uses on raw mask words:
 * ascending PE order, one count-trailing-zeros per set bit, so walking
 * a sparse 1024-PE set costs its population, not its width.
 */

#ifndef PIMCACHE_COMMON_PE_BITSET_H_
#define PIMCACHE_COMMON_PE_BITSET_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace pim {

/** Dynamically sized set of PE ids (bit i of word w = PE w*64+i). */
class PeBitset
{
  public:
    PeBitset() = default;

    /** An empty set sized for @p num_words mask words. */
    explicit PeBitset(std::uint32_t num_words) : words_(num_words, 0) {}

    /** Adopt @p count raw mask words (word 0 = PEs 0..63). */
    static PeBitset
    fromWords(const std::uint64_t* words, std::uint32_t count)
    {
        PeBitset set;
        set.words_.assign(words, words + count);
        return set;
    }

    /** Add @p pe (the set grows to cover it). */
    void
    set(PeId pe)
    {
        const std::size_t word = pe >> 6;
        if (word >= words_.size())
            words_.resize(word + 1, 0);
        words_[word] |= 1ull << (pe & 63);
    }

    /** Remove @p pe (no-op when beyond the set's width). */
    void
    clear(PeId pe)
    {
        const std::size_t word = pe >> 6;
        if (word < words_.size())
            words_[word] &= ~(1ull << (pe & 63));
    }

    /** True if @p pe is in the set. */
    bool
    test(PeId pe) const
    {
        const std::size_t word = pe >> 6;
        return word < words_.size() &&
               (words_[word] & (1ull << (pe & 63))) != 0;
    }

    /** True if any PE is in the set. */
    bool
    any() const
    {
        for (std::uint64_t word : words_) {
            if (word != 0)
                return true;
        }
        return false;
    }

    bool none() const { return !any(); }

    /** Number of PEs in the set. */
    std::uint32_t
    count() const
    {
        std::uint32_t total = 0;
        for (std::uint64_t word : words_)
            total += static_cast<std::uint32_t>(__builtin_popcountll(word));
        return total;
    }

    /** Mask words held (trailing zero words are not trimmed). */
    std::uint32_t
    words() const
    {
        return static_cast<std::uint32_t>(words_.size());
    }

    /** Raw mask word @p index (zero beyond the held words). */
    std::uint64_t
    word(std::uint32_t index) const
    {
        return index < words_.size() ? words_[index] : 0;
    }

    /** Call @p fn(PeId) for every member in ascending PE order. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t mask = words_[w];
            while (mask != 0) {
                fn(static_cast<PeId>(
                    (w << 6) + __builtin_ctzll(mask)));
                mask &= mask - 1;
            }
        }
    }

    /** Set equality ignores width: trailing zero words do not count. */
    bool
    operator==(const PeBitset& other) const
    {
        const std::size_t n = words_.size() > other.words_.size()
                                  ? words_.size()
                                  : other.words_.size();
        for (std::size_t w = 0; w < n; ++w) {
            if (word(static_cast<std::uint32_t>(w)) !=
                other.word(static_cast<std::uint32_t>(w)))
                return false;
        }
        return true;
    }

    bool operator!=(const PeBitset& other) const { return !(*this == other); }

    /** Compare against a single-word mask (PEs 0..63 only). */
    bool
    operator==(std::uint64_t mask) const
    {
        if (word(0) != mask)
            return false;
        for (std::size_t w = 1; w < words_.size(); ++w) {
            if (words_[w] != 0)
                return false;
        }
        return true;
    }

    bool operator!=(std::uint64_t mask) const { return !(*this == mask); }

  private:
    std::vector<std::uint64_t> words_;
};

} // namespace pim

#endif // PIMCACHE_COMMON_PE_BITSET_H_
