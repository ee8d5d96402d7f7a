/**
 * @file
 * Per-layer probes of the span run: direct timings of each layer's
 * public functions and the serve64 layer ladder.
 */

#ifndef NEON_PERFBENCH_PROBES_HH
#define NEON_PERFBENCH_PROBES_HH

#include <cstdint>

#include "workloads.hh"

namespace perfbench
{

/** Direct-call timings (sim, gpu, sched, fleet, serve, fault). */
void runProbes(std::uint64_t seed, MetricTable &out);

/**
 * The layer ladder on serve64's arrival stream: eight rungs, each
 * switching on one more layer, reporting ns per session, ns per event
 * and events per session.
 */
void runLadder(std::uint64_t seed, MetricTable &out);

} // namespace perfbench

#endif // NEON_PERFBENCH_PROBES_HH
