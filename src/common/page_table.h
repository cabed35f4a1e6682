/**
 * @file
 * Sparse array of fixed-width entries behind a two-level page index
 * (docs/PERFORMANCE.md, "Host memory").
 *
 * The simulator keeps per-address state over a multi-gigaword address
 * space of which a run touches scattered stretches: each PE's private
 * heap, goal, suspension and communication segments. Shared memory
 * words (mem/paged_store.h), the residency masks
 * (bus/residency_filter.h) and the purge-mark bitmap (bus/bus.h) all
 * live in this one table, so host memory follows what a run writes:
 *
 * - An entry is entryWords() consecutive 64-bit words. A page holds
 *   entriesPerPage() entries, the largest power of two whose words fit
 *   in kPageWords (2 KiB), so entries per page fall as an entry widens:
 *   256 one-word entries, 128 two-word ones, 16 of sixteen words. A
 *   page is allocated, zeroed, when an entry on it is first written.
 * - A directory holds kDirPages page pointers and is allocated with its
 *   first page. The top level holds one directory pointer per
 *   kDirPages pages, up to the highest directory written.
 *
 * A lookup outside the range of pages ever written returns after one
 * compare; inside it, a lookup is a directory load, a page load and the
 * entry, with their null checks, never a hash probe. Looking up an
 * entry that was never written returns nullptr and allocates nothing.
 */

#ifndef PIMCACHE_COMMON_PAGE_TABLE_H_
#define PIMCACHE_COMMON_PAGE_TABLE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace pim {

/** Sparse index -> entry of entryWords() words, zero until written. */
class PageTable
{
  public:
    /** Words a page holds at most (2 KiB). */
    static constexpr std::uint32_t kPageWords = 256;
    /** log2 of the pages one directory indexes. */
    static constexpr unsigned kDirShift = 8;
    static constexpr std::uint64_t kDirPages = std::uint64_t{1} << kDirShift;

    /** An empty table of @p entry_words-word entries (1..kPageWords). */
    explicit PageTable(std::uint32_t entry_words = 1);

    std::uint32_t entryWords() const { return entryWords_; }

    std::uint64_t entriesPerPage() const
    {
        return std::uint64_t{1} << entryShift_;
    }

    /** Entry @p index, or nullptr when its page was never written. */
    const std::uint64_t*
    find(std::uint64_t index) const
    {
        // Outside the pages ever written: no index load at all.
        const std::uint64_t page = index >> entryShift_;
        if (page - firstPage_ >= pageSpan_)
            return nullptr;
        const Directory* dir = dirs_[page >> kDirShift].get();
        if (dir == nullptr)
            return nullptr;
        const std::uint64_t* words = (*dir)[page & (kDirPages - 1)].get();
        if (words == nullptr)
            return nullptr;
        return words + (index & entryMask_) * entryWords_;
    }

    std::uint64_t*
    find(std::uint64_t index)
    {
        return const_cast<std::uint64_t*>(std::as_const(*this).find(index));
    }

    /** Entry @p index, allocating its page (zeroed) on first write. */
    std::uint64_t*
    touch(std::uint64_t index)
    {
        std::uint64_t* entry = find(index);
        return entry != nullptr ? entry : materialize(index);
    }

    /**
     * One past the last index of the unwritten page or directory that
     * holds @p index (find(@p index) is nullptr), so an address-order
     * walk skips it in one step; UINT64_MAX past the last directory.
     */
    std::uint64_t absentEnd(std::uint64_t index) const;

    /**
     * Re-lay every entry out @p entry_words wide (at least
     * entryWords()), keeping each entry's words as its first ones.
     */
    void widen(std::uint32_t entry_words);

    /** Drop every entry, page and directory. */
    void clear();

    /** Pages allocated. */
    std::uint64_t pages() const { return pages_; }

    /** Host bytes held: pages, directories and the top level. */
    std::uint64_t bytes() const;

  private:
    using Directory = std::array<std::unique_ptr<std::uint64_t[]>, kDirPages>;

    std::uint64_t* materialize(std::uint64_t index);

    std::uint32_t entryWords_;
    unsigned entryShift_;        ///< log2 entriesPerPage().
    std::uint64_t entryMask_;    ///< entriesPerPage() - 1.
    std::uint64_t firstPage_ = 0; ///< Lowest page written.
    std::uint64_t pageSpan_ = 0;  ///< Highest page written - firstPage_ + 1.
    std::uint64_t pages_ = 0;
    std::uint64_t directories_ = 0;
    std::vector<std::unique_ptr<Directory>> dirs_;
};

} // namespace pim

#endif // PIMCACHE_COMMON_PAGE_TABLE_H_
