#include "common/page_table.h"

#include <algorithm>
#include <limits>

#include "common/xassert.h"

namespace pim {

PageTable::PageTable(std::uint32_t entry_words)
    : entryWords_(entry_words), entryShift_(0)
{
    PIM_ASSERT(entry_words >= 1 && entry_words <= kPageWords,
               "page table entry of ", entry_words, " words");
    while ((std::uint64_t{2} << entryShift_) * entry_words <= kPageWords)
        ++entryShift_;
    entryMask_ = entriesPerPage() - 1;
}

std::uint64_t*
PageTable::materialize(std::uint64_t index)
{
    const std::uint64_t page = index >> entryShift_;
    const std::uint64_t dir = page >> kDirShift;
    if (dir >= dirs_.size())
        dirs_.resize(dir + 1);
    if (dirs_[dir] == nullptr) {
        dirs_[dir] = std::make_unique<Directory>();
        ++directories_;
    }
    auto& words = (*dirs_[dir])[page & (kDirPages - 1)];
    words = std::make_unique<std::uint64_t[]>(entriesPerPage() * entryWords_);
    // Grow the range of written pages that find() bounds lookups by.
    const std::uint64_t last =
        pages_ == 0 ? page : std::max(page, firstPage_ + pageSpan_ - 1);
    firstPage_ = pages_ == 0 ? page : std::min(page, firstPage_);
    pageSpan_ = last - firstPage_ + 1;
    ++pages_;
    return words.get() + (index & entryMask_) * entryWords_;
}

std::uint64_t
PageTable::absentEnd(std::uint64_t index) const
{
    const std::uint64_t page = index >> entryShift_;
    const std::uint64_t dir = page >> kDirShift;
    if (dir >= dirs_.size())
        return std::numeric_limits<std::uint64_t>::max();
    if (dirs_[dir] == nullptr)
        return (dir + 1) << (kDirShift + entryShift_);
    return (page + 1) << entryShift_;
}

void
PageTable::widen(std::uint32_t entry_words)
{
    PIM_ASSERT(entry_words >= entryWords_, "page table entries narrow from ",
               entryWords_, " to ", entry_words, " words");
    if (entry_words == entryWords_)
        return;
    PageTable wider(entry_words);
    for (std::uint64_t dir = 0; dir < dirs_.size(); ++dir) {
        if (dirs_[dir] == nullptr)
            continue;
        for (std::uint64_t slot = 0; slot < kDirPages; ++slot) {
            const std::uint64_t* words = (*dirs_[dir])[slot].get();
            if (words == nullptr)
                continue;
            const std::uint64_t first = ((dir << kDirShift) | slot)
                                        << entryShift_;
            for (std::uint64_t e = 0; e < entriesPerPage(); ++e) {
                const std::uint64_t* entry = words + e * entryWords_;
                if (std::all_of(entry, entry + entryWords_,
                                [](std::uint64_t w) { return w == 0; }))
                    continue;
                std::copy(entry, entry + entryWords_, wider.touch(first + e));
            }
        }
    }
    *this = std::move(wider);
}

void
PageTable::clear()
{
    dirs_ = std::vector<std::unique_ptr<Directory>>();
    firstPage_ = 0;
    pageSpan_ = 0;
    pages_ = 0;
    directories_ = 0;
}

std::uint64_t
PageTable::bytes() const
{
    return pages_ * entriesPerPage() * entryWords_ * sizeof(std::uint64_t) +
           directories_ * sizeof(Directory) +
           dirs_.capacity() * sizeof(dirs_[0]);
}

} // namespace pim
