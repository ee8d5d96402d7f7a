/**
 * @file
 * FaultInjector: plays a fault plan against a live fleet.
 *
 * Schedules every planned FaultEvent on the event queue at start().
 * Deaths route through FleetManager::failDevice (which evicts live
 * sessions into the serve layer's retry path) and schedule the
 * matching repair; stalls and hangs go straight to the device. Victim
 * channels for hang injection are drawn from the "fault.pick" stream,
 * isolated from both the plan stream and all workload streams.
 */

#ifndef NEON_FAULT_INJECTOR_HH
#define NEON_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "fault/fault_config.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace neon
{

class EventQueue;
class FleetManager;

/** One injected hang, for matching against watchdog detections. */
struct HangRecord
{
    std::size_t device = 0;
    int pid = 0;     ///< task owning the victim channel at injection
    Tick at = 0;
    bool detected = false; ///< matched to a watchdog kill (results pass)
};

/** One device outage (death-to-repair window). */
struct OutageRecord
{
    std::size_t device = 0;
    Tick downAt = 0;
    Tick upAt = -1; ///< -1 while the outage is still open
};

/** Drives a fault plan into the fleet. */
class FaultInjector
{
  public:
    FaultInjector(EventQueue &eq, FleetManager &fleet,
                  const FaultPlanConfig &cfg, std::uint64_t root_seed);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Build the plan and schedule every event. */
    void start();

    const std::vector<FaultEvent> &plan() const { return events; }
    const std::vector<HangRecord> &hangs() const { return hangLog; }
    std::vector<HangRecord> &hangs() { return hangLog; }
    const std::vector<OutageRecord> &outages() const { return outageLog; }

    std::uint64_t injectedDeaths() const { return nDeaths; }
    std::uint64_t injectedStalls() const { return nStalls; }
    std::uint64_t injectedHangs() const { return nHangs; }
    std::uint64_t skipped() const { return nSkipped; }
    std::uint64_t repairs() const { return nRepairs; }

  private:
    void apply(const FaultEvent &ev);

    EventQueue &eq;
    FleetManager &fleet;
    FaultPlanConfig cfg;
    std::uint64_t rootSeed;

    Rng pickRng;
    std::vector<FaultEvent> events;
    std::vector<HangRecord> hangLog;
    std::vector<OutageRecord> outageLog;
    std::uint64_t nDeaths = 0;
    std::uint64_t nStalls = 0;
    std::uint64_t nHangs = 0;
    std::uint64_t nSkipped = 0;
    std::uint64_t nRepairs = 0;
};

} // namespace neon

#endif // NEON_FAULT_INJECTOR_HH
