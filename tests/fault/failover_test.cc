/**
 * @file
 * Device availability state machine and fleet failover: stall
 * pause/resume with exact accounting, forced death with partial
 * occupancy charging, hang injection, placement steering around down
 * devices, and FleetManager drain/repair.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "fleet/placement.hh"
#include "gpu/device.hh"
#include "harness/experiment.hh"
#include "sim/event_queue.hh"

namespace neon
{
namespace
{

struct DeviceHealthFixture : public ::testing::Test
{
    EventQueue eq;
    UsageMeter meter;
    DeviceConfig cfg;
    std::unique_ptr<GpuDevice> dev;
    GpuContext *ctx = nullptr;
    Channel *chan = nullptr;

    void
    build()
    {
        dev = std::make_unique<GpuDevice>(eq, cfg, meter);
        ctx = dev->createContext(1);
        chan = dev->createChannel(*ctx, RequestClass::Compute);
        ASSERT_NE(chan, nullptr);
    }

    void
    submit(Tick service)
    {
        GpuRequest r;
        r.cls = RequestClass::Compute;
        r.serviceTime = service;
        r.ref = chan->allocRef();
        dev->submit(*chan, r);
    }
};

TEST_F(DeviceHealthFixture, StallPausesInFlightAndChargesExecutionOnly)
{
    build();
    submit(usec(100));
    eq.schedule(usec(30), [this] { dev->stall(usec(40)); });
    eq.drain();

    // 30us run + 40us pause + 70us remainder: completion shifts by
    // exactly the pause, but the meter sees pure execution time.
    EXPECT_EQ(chan->completedRef(), 1u);
    EXPECT_EQ(eq.now(), usec(140));
    EXPECT_EQ(meter.busyOf(1), usec(100));
    EXPECT_EQ(dev->health(), DeviceHealth::Up);
}

TEST_F(DeviceHealthFixture, OverlappingStallsExtendTheWindow)
{
    build();
    submit(usec(100));
    eq.schedule(usec(30), [this] { dev->stall(usec(40)); });
    eq.schedule(usec(40), [this] { dev->stall(usec(60)); });
    eq.drain();

    // Second stall pushes resumption to t=100; 70us remained.
    EXPECT_EQ(chan->completedRef(), 1u);
    EXPECT_EQ(eq.now(), usec(170));
    EXPECT_EQ(meter.busyOf(1), usec(100));
}

TEST_F(DeviceHealthFixture, ForceDownLosesInFlightButChargesOccupancy)
{
    build();
    submit(usec(100));
    eq.schedule(usec(30), [this] { dev->forceDown(); });
    eq.runFor(msec(10));

    // The request never completes, but the 30us it held the engine is
    // real and charged — the meter-reconciliation invariant.
    EXPECT_EQ(chan->completedRef(), 0u);
    EXPECT_EQ(meter.busyOf(1), usec(30));
    EXPECT_EQ(dev->health(), DeviceHealth::Down);

    // Nothing dispatches while down; repair revives the device.
    submit(usec(50));
    eq.runFor(msec(1));
    EXPECT_EQ(chan->completedRef(), 0u);
    dev->repair();
    EXPECT_EQ(dev->health(), DeviceHealth::Up);
    eq.drain();
    EXPECT_EQ(chan->completedRef(), 2u);
    EXPECT_EQ(meter.busyOf(1), usec(80));
}

TEST_F(DeviceHealthFixture, DownDeviceEndsAnActiveStall)
{
    build();
    submit(usec(100));
    eq.schedule(usec(20), [this] { dev->stall(usec(50)); });
    eq.schedule(usec(40), [this] { dev->forceDown(); });
    eq.runFor(msec(10));

    // Paused at t=20 with 80us left, then killed: only the 20us of
    // actual execution before the pause is charged.
    EXPECT_EQ(dev->health(), DeviceHealth::Down);
    EXPECT_EQ(chan->completedRef(), 0u);
    EXPECT_EQ(meter.busyOf(1), usec(20));
}

TEST_F(DeviceHealthFixture, InjectHangWedgesActiveRequest)
{
    build();
    submit(usec(100));
    eq.schedule(usec(10), [this] { dev->injectHang(*chan); });
    eq.runFor(sec(1));

    EXPECT_EQ(chan->completedRef(), 0u);
    EXPECT_TRUE(dev->engineBusy(EngineKind::Execute));
}

TEST_F(DeviceHealthFixture, InjectHangOnIdleChannelArmsNextSubmit)
{
    build();
    dev->injectHang(*chan); // idle: arms the trap instead
    submit(usec(100));
    eq.runFor(sec(1));

    EXPECT_EQ(chan->completedRef(), 0u);
    EXPECT_TRUE(dev->engineBusy(EngineKind::Execute));
}

std::vector<DeviceLoadView>
fleetView(std::size_t n)
{
    std::vector<DeviceLoadView> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i].index = i;
    return v;
}

TEST(PlacementAvailability, RoundRobinSkipsDownDevices)
{
    RoundRobinPlacement p;
    auto devices = fleetView(3);
    devices[1].up = false;
    PlacementRequest r;
    r.label = "t";
    EXPECT_EQ(p.place(devices, r), 0u);
    EXPECT_EQ(p.place(devices, r), 2u);
    EXPECT_EQ(p.place(devices, r), 0u);
    EXPECT_EQ(p.place(devices, r), 2u);
}

TEST(PlacementAvailability, LeastLoadedSkipsDownDevices)
{
    LeastLoadedPlacement p;
    auto devices = fleetView(3);
    devices[0].busyTime = msec(500);
    devices[1].busyTime = 0; // idlest, but down
    devices[1].up = false;
    devices[2].busyTime = msec(100);
    PlacementRequest r;
    r.label = "t";
    EXPECT_EQ(p.place(devices, r), 2u);
}

TEST(PlacementAvailability, StickySpillsOffDownAffinityHome)
{
    StickyPlacement p(4);
    auto devices = fleetView(2);
    PlacementRequest r;
    r.label = "fnA";
    r.affinityKey = "fnA";
    const std::size_t home = p.place(devices, r);
    p.noteTaskPlaced(r, home);
    devices[home].up = false;
    EXPECT_NE(p.place(devices, r), home);
}

TEST(FleetFailover, FailDeviceDrainsRepairRestores)
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::Direct;
    cfg.fleet.devices = 2;
    cfg.fleet.placement = PlacementKind::RoundRobin;
    cfg.measure = sec(1);

    World world(cfg);
    for (int i = 0; i < 4; ++i)
        world.spawn(WorkloadSpec::throttle(usec(430)));
    world.start();
    world.runFor(msec(50));

    int evicted = 0;
    std::vector<std::size_t> downs, ups;
    world.fleet.onTaskEvicted = [&](Task &t) {
        ++evicted;
        world.fleet.retireTask(t);
    };
    world.fleet.onDeviceDown = [&](std::size_t i) { downs.push_back(i); };
    world.fleet.onDeviceUp = [&](std::size_t i) { ups.push_back(i); };

    ASSERT_EQ(world.fleet.upDeviceCount(), 2u);
    world.fleet.failDevice(0);

    // Round-robin put two of the four tasks there; both drained.
    EXPECT_EQ(evicted, 2);
    EXPECT_EQ(world.fleet.upDeviceCount(), 1u);
    EXPECT_FALSE(world.fleet.deviceUp(0));
    EXPECT_EQ(world.fleet.stack(0).device.health(), DeviceHealth::Down);
    ASSERT_EQ(downs, (std::vector<std::size_t>{0}));

    // Survivors keep serving on device 1 while 0 is dark.
    const Tick busy0 = world.fleet.stack(0).meter.totalBusy();
    const Tick busy1 = world.fleet.stack(1).meter.totalBusy();
    world.runFor(msec(50));
    EXPECT_EQ(world.fleet.stack(0).meter.totalBusy(), busy0);
    EXPECT_GT(world.fleet.stack(1).meter.totalBusy(), busy1);

    world.fleet.repairDevice(0);
    EXPECT_EQ(world.fleet.upDeviceCount(), 2u);
    EXPECT_EQ(world.fleet.stack(0).device.health(), DeviceHealth::Up);
    ASSERT_EQ(ups, (std::vector<std::size_t>{0}));
}

} // namespace
} // namespace neon
