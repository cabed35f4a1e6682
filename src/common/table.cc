#include "common/table.h"

#include <algorithm>
#include <sstream>

#include "common/xassert.h"

namespace pim {

namespace {

/** Display columns of UTF-8 @p cell (one per code point, e.g. "—"). */
std::size_t
columns(const std::string& cell)
{
    return static_cast<std::size_t>(
        std::count_if(cell.begin(), cell.end(),
                      [](char c) { return (c & 0xC0) != 0x80; }));
}

} // namespace

Table::Table(std::string title)
    : title_(std::move(title))
{
}

void
Table::setHeader(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
Table::addRow(std::vector<std::string> cells)
{
    PIM_ASSERT(header_.empty() || cells.size() == header_.size(),
               "row width ", cells.size(), " != header width ",
               header_.size());
    rows_.push_back(std::move(cells));
}

void
Table::addRule()
{
    rows_.push_back({kRuleMark});
}

void
Table::print(std::ostream& os) const
{
    const std::size_t ncols =
        header_.empty() ? (rows_.empty() ? 0 : rows_.front().size())
                        : header_.size();
    std::vector<std::size_t> width(ncols, 0);
    auto widen = [&](const std::vector<std::string>& row) {
        if (!row.empty() && row.front() == kRuleMark)
            return;
        for (std::size_t i = 0; i < row.size() && i < ncols; ++i)
            width[i] = std::max(width[i], columns(row[i]));
    };
    widen(header_);
    for (const auto& row : rows_)
        widen(row);

    auto emit = [&](const std::vector<std::string>& row) {
        for (std::size_t i = 0; i < ncols; ++i) {
            const std::string& cell = i < row.size() ? row[i] : "";
            os << "| ";
            // Left-align the first column (labels), right-align the rest.
            const std::string pad(width[i] - columns(cell), ' ');
            if (i == 0) {
                os << cell << pad;
            } else {
                os << pad << cell;
            }
            os << ' ';
        }
        os << "|\n";
    };
    auto rule = [&]() {
        for (std::size_t i = 0; i < ncols; ++i)
            os << '+' << std::string(width[i] + 2, '-');
        os << "+\n";
    };

    if (!title_.empty())
        os << title_ << '\n';
    rule();
    if (!header_.empty()) {
        emit(header_);
        rule();
    }
    for (const auto& row : rows_) {
        if (!row.empty() && row.front() == kRuleMark) {
            rule();
        } else {
            emit(row);
        }
    }
    rule();
}

std::string
Table::toString() const
{
    std::ostringstream os;
    print(os);
    return os.str();
}

} // namespace pim
