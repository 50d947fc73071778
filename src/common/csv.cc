#include "common/csv.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/logging.h"

namespace spindle {

Table::Table(std::vector<std::string> header)
    : header_(std::move(header))
{
    fatalIf(header_.empty(), "Table: header must be non-empty");
}

void
Table::addRow(std::vector<std::string> cells)
{
    fatalIf(cells.size() != header_.size(), "Table: row width ", cells.size(),
            " != header width ", header_.size());
    rows_.push_back(std::move(cells));
}

void
Table::printAligned(std::ostream &os) const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c] + 2))
               << row[c];
        }
        os << '\n';
    };
    print_row(header_);
    for (const auto &row : rows_)
        print_row(row);
}

void
Table::printCsv(std::ostream &os) const
{
    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c)
                os << ',';
            os << row[c];
        }
        os << '\n';
    };
    print_row(header_);
    for (const auto &row : rows_)
        print_row(row);
}

std::string
Table::fmt(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

} // namespace spindle
