/**
 * @file
 * Unit tests for the statistics framework.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "system/system.hh"
#include "testing/machine_differ.hh"
#include "workloads/fio.hh"

using namespace hwdp;
using namespace hwdp::sim;

TEST(Stats, CounterBasics)
{
    StatGroup g("g");
    Counter c(g, "c", "a counter");
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
}

TEST(Stats, MeanTracksMinMax)
{
    StatGroup g("g");
    Mean m(g, "m", "a mean");
    m.sample(10.0);
    m.sample(20.0);
    m.sample(-6.0);
    EXPECT_DOUBLE_EQ(m.mean(), 8.0);
    EXPECT_DOUBLE_EQ(m.minValue(), -6.0);
    EXPECT_DOUBLE_EQ(m.maxValue(), 20.0);
    EXPECT_EQ(m.count(), 3u);
}

TEST(Stats, EmptyMeanIsZero)
{
    StatGroup g("g");
    Mean m(g, "m", "d");
    EXPECT_DOUBLE_EQ(m.mean(), 0.0);
    EXPECT_DOUBLE_EQ(m.minValue(), 0.0);
}

TEST(Stats, HistogramMeanIsExact)
{
    StatGroup g("g");
    Histogram h(g, "h", "d", 1.0, 100);
    for (int i = 1; i <= 9; ++i)
        h.sample(i);
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
    EXPECT_EQ(h.count(), 9u);
}

TEST(Stats, HistogramQuantiles)
{
    StatGroup g("g");
    Histogram h(g, "h", "d", 1.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(i + 0.5);
    // Median should land near 50, p99 near 99.
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.quantile(0.99), 99.0, 1.5);
    EXPECT_NEAR(h.quantile(0.0), 0.5, 1.0);
}

TEST(Stats, HistogramOverflowBucket)
{
    StatGroup g("g");
    Histogram h(g, "h", "d", 1.0, 10);
    h.sample(1e9); // lands in the overflow bucket, not UB
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GE(h.quantile(0.5), 10.0);
}

TEST(Stats, HistogramDegenerateGeometryPanics)
{
    StatGroup g("g");
    EXPECT_THROW(Histogram(g, "h", "d", 0.0, 10), PanicError);
    EXPECT_THROW(Histogram(g, "h2", "d", 1.0, 0), PanicError);
}

TEST(Stats, GroupFindAndDump)
{
    StatGroup g("grp");
    Counter a(g, "a", "first");
    Mean b(g, "b", "second");
    EXPECT_NE(g.find("a"), nullptr);
    EXPECT_NE(g.find("b"), nullptr);
    EXPECT_EQ(g.find("zzz"), nullptr);

    std::ostringstream os;
    g.dump(os);
    std::string s = os.str();
    EXPECT_NE(s.find("grp.a"), std::string::npos);
    EXPECT_NE(s.find("first"), std::string::npos);
}

namespace {

/** The `group.stat` key of every line of @p cfg's machine dump. */
std::vector<std::string>
dumpKeys(const system::MachineConfig &cfg)
{
    system::System sys(cfg);
    for (unsigned s = 0; s < cfg.sockets; ++s) {
        auto mf = sys.mapDataset("f" + std::to_string(s), 2 * 1024,
                                 nullptr, s);
        auto *w = sys.makeWorkload<workloads::FioWorkload>(mf.vma, 300);
        sys.addThread(*w, s * cfg.coresPerSocket(), *mf.as);
    }
    EXPECT_TRUE(sys.runUntilThreadsDone(seconds(30.0)));
    std::ostringstream os;
    hwdp::testing::dumpMachineStats(sys, os);
    std::istringstream in(os.str());
    std::vector<std::string> keys;
    for (std::string line; std::getline(in, line);)
        keys.push_back(line.substr(0, line.find(" = ")));
    return keys;
}

} // namespace

TEST(Stats, MachineDumpKeysAreUnique)
{
    // The keys a machine-readable dump will use: each must name one
    // stat of one group, on the widest machine each SMU flavour builds.
    system::MachineConfig wide;
    wide.mode = system::PagingMode::hwdp;
    wide.nLogical = 8;
    wide.nPhysical = 4;
    wide.sockets = 4;
    wide.memFrames = 16 * 1024;
    wide.pageMode = PageMode::coalesce;
    wide.tierMode = system::TierMode::cxl;
    wide.tierFrames = 1024;
    wide.smu.perCoreFreeQueues = true;

    system::MachineConfig sw;
    sw.mode = system::PagingMode::swsmu;
    sw.nLogical = 4;
    sw.nPhysical = 2;
    sw.sockets = 2;
    sw.memFrames = 16 * 1024;

    for (const system::MachineConfig &cfg : {wide, sw}) {
        SCOPED_TRACE(pagingModeName(cfg.mode));
        std::vector<std::string> keys = dumpKeys(cfg);
        ASSERT_FALSE(keys.empty());
        std::map<std::string, unsigned> seen;
        for (const std::string &k : keys) {
            EXPECT_NE(k.find('.'), std::string::npos) << k;
            ++seen[k];
        }
        for (const auto &[k, n] : seen)
            EXPECT_EQ(n, 1u) << k;
    }
}
