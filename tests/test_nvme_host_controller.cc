/**
 * @file
 * Tests for the SMU's NVMe host controller (Figure 8): descriptor
 * registers, command generation timing and the snooping completion
 * unit.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include "core/nvme_host_controller.hh"
#include "core/smu.hh"
#include "ssd/ssd_device.hh"

using namespace hwdp;
using namespace hwdp::core;

namespace {

ssd::SsdProfile
flatProfile()
{
    ssd::SsdProfile p;
    p.name = "flat";
    p.cmdFetch = 100;
    p.readMedia = 1000;
    p.writeMedia = 5000;
    p.xfer4k = 50;
    p.cqeWrite = 10;
    p.channels = 4;
    p.mediaCv = 0.0;
    return p;
}

struct Harness
{
    sim::EventQueue eq;
    ssd::SsdDevice dev{"ssd", eq, flatProfile(), sim::Rng(3)};
    NvmeHostController hc{"hc", eq, smuCosts.nvme};
};

} // namespace

TEST(NvmeHostController, ConfigureValidatesDeviceId)
{
    Harness h;
    EXPECT_THROW(h.hc.configureDevice(8, &h.dev), FatalError);
    h.hc.configureDevice(3, &h.dev);
    EXPECT_TRUE(h.hc.deviceConfigured(3));
    EXPECT_FALSE(h.hc.deviceConfigured(2));
    EXPECT_THROW(h.hc.configureDevice(3, &h.dev), FatalError);
}

TEST(NvmeHostController, ReadOnUnconfiguredDevicePanics)
{
    Harness h;
    EXPECT_THROW(h.hc.issueRead(0, 0, 0x1000, 0, nullptr, h.eq.now()),
                 PanicError);
}

TEST(NvmeHostController, DoorbellAfterCommandWriteLatency)
{
    // 77.16 ns command write + 1.60 ns doorbell = 78.76 ns = 78760 ps.
    const Tick doorbell = nanoseconds(77.16) + nanoseconds(1.60);
    {
        // An event due before the doorbell tick makes the gate
        // decline: "nvme.doorbell" rings at the doorbell tick.
        Harness h;
        h.hc.configureDevice(0, &h.dev);
        h.eq.post(1, [] {}, "blocker");
        Tick doorbell_at = 0;
        h.hc.issueRead(
            0, 0, 0x1000, 7, [&] { doorbell_at = h.eq.now(); },
            h.eq.now());
        EXPECT_EQ(doorbell_at, 0u);
        h.eq.run();
        EXPECT_EQ(doorbell_at, doorbell);
        EXPECT_EQ(h.hc.eventDoorbells(), 1u);
        EXPECT_EQ(h.hc.inlineDoorbells(), 0u);
    }
    {
        // Nothing scheduled: the doorbell rings inline and `issued`
        // runs before issueRead returns, ahead of the clock.
        Harness h;
        h.hc.configureDevice(0, &h.dev);
        bool issued = false;
        h.hc.issueRead(0, 0, 0x1000, 7, [&] { issued = true; },
                       h.eq.now());
        EXPECT_TRUE(issued);
        EXPECT_EQ(h.eq.now(), 0u);
        EXPECT_EQ(h.hc.inlineDoorbells(), 1u);
        EXPECT_EQ(h.hc.eventDoorbells(), 0u);
        h.eq.run();
    }
}

TEST(NvmeHostController, CompletionSnoopDeliversTag)
{
    Harness h;
    h.hc.configureDevice(0, &h.dev);
    std::uint16_t tag_seen = 0;
    Tick when = 0;
    h.hc.setCompletionCallback(
        [&](std::uint16_t tag, std::uint16_t, Tick at) {
            tag_seen = tag;
            when = at;
        });
    h.hc.issueRead(0, 4, 0x1000, 23, nullptr, h.eq.now());
    h.eq.run();
    EXPECT_EQ(tag_seen, 23u);
    // Doorbell + device time + 2-cycle completion handling, as the
    // callback's logical time: an inline delivery runs before now()
    // reaches it.
    Tick expect = nanoseconds(78.76) + 1160 + 2 * cyclePeriod;
    EXPECT_EQ(when, expect);
    EXPECT_EQ(h.hc.readsIssued(), 1u);
}

TEST(NvmeHostController, MultipleOutstandingReadsResolveByTag)
{
    Harness h;
    h.hc.configureDevice(0, &h.dev);
    std::vector<std::uint16_t> tags;
    h.hc.setCompletionCallback(
        [&](std::uint16_t tag, std::uint16_t, Tick) {
            tags.push_back(tag);
        });
    // Different channels: all overlap; completion unit resolves each
    // by the PMSHR index riding in the cid.
    for (std::uint16_t t = 0; t < 4; ++t)
        h.hc.issueRead(0, t, 0x1000 + t * pageSize, t, nullptr,
                       h.eq.now());
    h.eq.run();
    ASSERT_EQ(tags.size(), 4u);
    std::sort(tags.begin(), tags.end());
    EXPECT_EQ(tags, (std::vector<std::uint16_t>{0, 1, 2, 3}));
}

TEST(NvmeHostController, UsesUrgentPriorityQueue)
{
    Harness h;
    h.hc.configureDevice(0, &h.dev);
    // The controller allocated qid 1 on the fresh device with urgent
    // priority (Section V / III-C).
    EXPECT_EQ(h.dev.queuePair(1).priority(), nvme::Priority::urgent);
}

TEST(NvmeHostController, DescriptorBitsMatchPaperArea)
{
    // Figure 9's register set is 352 bits (Section VI-D).
    EXPECT_EQ(NvmeHostController::descriptorBits, 352u);
    EXPECT_EQ(NvmeHostController::maxDevices, 8u);
}
