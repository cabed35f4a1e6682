/**
 * @file
 * Sparse word-addressed backing store.
 *
 * Represents the contents of shared global memory, one word per entry of
 * a PageTable (common/page_table.h): 2 KiB pages of 256 words, allocated
 * on first write behind a two-level index, so a large configured heap
 * costs nothing until used and a touched word costs its page, not a
 * pointer table over the whole address space. All words read as zero
 * until written.
 */

#ifndef PIMCACHE_MEM_PAGED_STORE_H_
#define PIMCACHE_MEM_PAGED_STORE_H_

#include <algorithm>

#include "common/page_table.h"
#include "common/types.h"
#include "common/xassert.h"

namespace pim {

/** Sparse flat array of simulated memory words. */
class PagedStore
{
  public:
    /** @param total_words Size of the address space in words. */
    explicit PagedStore(std::uint64_t total_words) : totalWords_(total_words)
    {
    }

    /** Read one word (zero if never written). */
    Word
    read(Addr addr) const
    {
        PIM_ASSERT(addr < totalWords_, "read past end of memory: ", addr);
        const Word* word = words_.find(addr);
        return word != nullptr ? *word : 0;
    }

    /** Write one word. */
    void
    write(Addr addr, Word value)
    {
        PIM_ASSERT(addr < totalWords_, "write past end of memory: ", addr);
        *words_.touch(addr) = value;
    }

    /**
     * Read @p count consecutive words starting at @p addr. The span must
     * not cross a page boundary (cache blocks, the only bulk unit, are
     * power-of-two sized and aligned, and pages are a multiple of every
     * legal block size). One page lookup instead of @p count — the bus
     * moves a block on every miss, so this is hot
     * (docs/PERFORMANCE.md).
     */
    void
    readSpan(Addr addr, std::uint32_t count, Word* out) const
    {
        PIM_ASSERT(onePage(addr, count),
                   "readSpan crosses a page boundary: ", addr, "+", count);
        PIM_ASSERT(addr + count <= totalWords_,
                   "read past end of memory: ", addr);
        const Word* words = words_.find(addr);
        if (words == nullptr)
            std::fill(out, out + count, Word{0});
        else
            std::copy(words, words + count, out);
    }

    /** Write @p count consecutive words; same alignment contract. */
    void
    writeSpan(Addr addr, std::uint32_t count, const Word* data)
    {
        PIM_ASSERT(onePage(addr, count),
                   "writeSpan crosses a page boundary: ", addr, "+", count);
        PIM_ASSERT(addr < totalWords_, "write past end of memory: ", addr);
        std::copy(data, data + count, words_.touch(addr));
    }

    /** Size of the address space in words. */
    std::uint64_t totalWords() const { return totalWords_; }

    /** Number of pages materialized so far (for tests/diagnostics). */
    std::uint64_t pagesAllocated() const { return words_.pages(); }

    /** The page table holding the words (host footprint). */
    const PageTable& table() const { return words_; }

  private:
    /** True if [addr, addr + count) lies within one page. */
    static bool
    onePage(Addr addr, std::uint32_t count)
    {
        return count != 0 && addr / PageTable::kPageWords ==
                                 (addr + count - 1) / PageTable::kPageWords;
    }

    std::uint64_t totalWords_;
    PageTable words_;
};

} // namespace pim

#endif // PIMCACHE_MEM_PAGED_STORE_H_
