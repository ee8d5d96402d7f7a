/**
 * @file
 * Read-only virtual-time tap exported by fair-queueing schedulers.
 *
 * Cross-device aggregation (the serve layer's GlobalVirtualClock,
 * fleet-level fairness metrics) needs each device's notion of system
 * virtual time and per-task progress without caring which concrete
 * fair-queueing policy runs there. Policies that maintain virtual
 * times implement this interface alongside Scheduler; consumers
 * discover it with a dynamic_cast at wiring time.
 *
 * The tap is strictly observational: it exposes estimates the policy
 * already maintains (the paper's point is that the OS has no ground
 * truth), and consumers must not feed device-meter data back through
 * it.
 */

#ifndef NEON_SCHED_VTIME_TAP_HH
#define NEON_SCHED_VTIME_TAP_HH

#include "sim/types.hh"

namespace neon
{

/** Virtual-time observability for fair-queueing policies. */
class VirtualTimeTap
{
  public:
    virtual ~VirtualTimeTap() = default;

    /** The policy's system virtual time (device-time units). */
    virtual Tick tapSystemVtime() const = 0;

    /**
     * Task @p pid's virtual time — its attributed service level. Tasks
     * the policy has not seen report 0 (maximally lagging).
     */
    virtual Tick tapTaskVtime(int pid) const = 0;
};

} // namespace neon

#endif // NEON_SCHED_VTIME_TAP_HH
