/**
 * @file
 * Ground-truth device-time accounting.
 *
 * The meter records exactly how the device spent its time. It exists for
 * metrics and tests only: schedulers must not read it (the whole point
 * of the paper is that the OS lacks this information and must estimate
 * it through interception and sampling).
 */

#ifndef NEON_GPU_USAGE_METER_HH
#define NEON_GPU_USAGE_METER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpu/request.hh"
#include "sim/types.hh"

namespace neon
{

/**
 * Per-task and aggregate busy-time counters for the device.
 *
 * Tasks are keyed by pid. Pids come from the owning kernel's counter,
 * which starts at 1 and never reuses a value, so the per-task table is
 * a dense vector indexed by pid: one indexed access per completion.
 */
class UsageMeter
{
  public:
    /** Attribute service time to a task. */
    void
    recordBusy(int task_id, Tick duration, RequestClass cls)
    {
        slot(task_id).busy += duration;
        busy += duration;
        if (cls == RequestClass::Dma)
            dmaBusy += duration;
    }

    /** Record arbitration overhead (context/channel switches). */
    void recordSwitch(Tick duration) { switchOverhead += duration; }

    /** Record completed request count for a task. */
    void
    noteRequest(int task_id)
    {
        ++slot(task_id).requests;
        ++nRequests;
    }

    Tick
    busyOf(int task_id) const
    {
        return known(task_id) ? perTask[std::size_t(task_id)].busy : 0;
    }

    std::uint64_t
    requestsOf(int task_id) const
    {
        return known(task_id) ? perTask[std::size_t(task_id)].requests : 0;
    }

    Tick totalBusy() const { return busy; }
    Tick totalDmaBusy() const { return dmaBusy; }
    Tick totalSwitchOverhead() const { return switchOverhead; }

    /** Completed requests summed over every task. */
    std::uint64_t totalRequests() const { return nRequests; }

    void
    reset()
    {
        perTask.clear();
        nRequests = 0;
        busy = dmaBusy = switchOverhead = 0;
    }

  private:
    struct TaskUsage
    {
        Tick busy = 0;
        std::uint64_t requests = 0;
    };

    bool
    known(int task_id) const
    {
        return task_id >= 0 && std::size_t(task_id) < perTask.size();
    }

    TaskUsage &
    slot(int task_id)
    {
        const auto i = static_cast<std::size_t>(task_id);
        if (i >= perTask.size())
            perTask.resize(i + 1);
        return perTask[i];
    }

    std::vector<TaskUsage> perTask; ///< indexed by pid
    std::uint64_t nRequests = 0;
    Tick busy = 0;
    Tick dmaBusy = 0;
    Tick switchOverhead = 0;
};

} // namespace neon

#endif // NEON_GPU_USAGE_METER_HH
