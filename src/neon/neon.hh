/**
 * @file
 * Umbrella header: the NEON-Sim public API.
 *
 * Typical use:
 *
 *   #include "neon/neon.hh"
 *
 *   neon::ExperimentConfig cfg;
 *   cfg.sched = neon::SchedKind::DisengagedFq;
 *   neon::ExperimentRunner runner(cfg);
 *   auto result = runner.run({
 *       neon::WorkloadSpec::app("DCT"),
 *       neon::WorkloadSpec::throttle(neon::usec(1700)),
 *   });
 *
 * The run uses one device, as in the paper. Setting cfg.fleet.devices
 * (with speed factors and a placement policy) runs the same workloads
 * on a device pool through the same runner and RunResult.
 */

#ifndef NEON_NEON_HH
#define NEON_NEON_HH

#include "fault/availability.hh"
#include "fault/fault_config.hh"
#include "fault/fault_plan.hh"
#include "fault/injector.hh"
#include "fault/watchdog.hh"
#include "fleet/device_stack.hh"
#include "fleet/fleet_config.hh"
#include "fleet/fleet_manager.hh"
#include "fleet/fleet_metrics.hh"
#include "fleet/placement.hh"
#include "gpu/device.hh"
#include "gpu/usage_meter.hh"
#include "harness/experiment.hh"
#include "harness/serve_runner.hh"
#include "metrics/efficiency.hh"
#include "metrics/reporter.hh"
#include "metrics/request_trace.hh"
#include "metrics/slo.hh"
#include "obs/analyze.hh"
#include "obs/audit.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "obs/observe.hh"
#include "obs/trace.hh"
#include "os/kernel.hh"
#include "os/scheduler.hh"
#include "os/task.hh"
#include "sched/direct.hh"
#include "sched/disengaged_fq.hh"
#include "sched/disengaged_timeslice.hh"
#include "sched/engaged_fq.hh"
#include "sched/timeslice.hh"
#include "sched/vtime_tap.hh"
#include "serve/admission.hh"
#include "serve/global_clock.hh"
#include "serve/serve_config.hh"
#include "serve/serve_engine.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "workload/adversary.hh"
#include "workload/app_profile.hh"
#include "workload/arrival.hh"
#include "workload/synthetic_app.hh"
#include "workload/throttle.hh"
#include "workload/trace.hh"

#endif // NEON_NEON_HH
