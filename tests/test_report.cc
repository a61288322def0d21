/**
 * @file
 * Tests for the bench table renderer.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include "metrics/report.hh"

using namespace hwdp;
using namespace hwdp::metrics;

TEST(Report, AlignsColumns)
{
    Table t({"a", "long_header"});
    t.addRow({"wide_cell", "x"});
    t.addRow({"y", "z"});
    std::string s = t.toString();
    // Every line has the same width.
    std::size_t first = s.find('\n');
    std::size_t w = first;
    std::size_t pos = 0;
    int lines = 0;
    while (pos < s.size()) {
        std::size_t next = s.find('\n', pos);
        if (next == std::string::npos)
            break;
        // Separator can be shorter; data/header rows must match.
        if (s[pos] != '-' && s.substr(pos, 2) != "  -") {
            EXPECT_LE(next - pos, w + 4);
        }
        pos = next + 1;
        ++lines;
    }
    EXPECT_EQ(lines, 4); // header + separator + 2 rows
}

TEST(Report, RowWidthMismatchPanics)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only_one"}), PanicError);
}

TEST(Report, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Report, PctFormatsFraction)
{
    EXPECT_EQ(Table::pct(0.373), "37.3%");
    EXPECT_EQ(Table::pct(1.0, 0), "100%");
}

TEST(Report, ContainsAllCells)
{
    Table t({"h1", "h2"});
    t.addRow({"alpha", "beta"});
    std::string s = t.toString();
    EXPECT_NE(s.find("h1"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("beta"), std::string::npos);
}
