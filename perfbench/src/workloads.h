// The benchmark's workloads. Each one generates its inputs from the run's
// seed, measures, checks the program's outputs and fills in every metric.
#ifndef NAVARCHOS_PERFBENCH_WORKLOADS_H_
#define NAVARCHOS_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace navarchos::perfbench {

/// A simulated year of the setting40 fleet through the default pipeline,
/// replayed closed-loop into one in-process FleetService.
void RunBackfill(const RunSettings& settings, RunResult* result);

/// Frames paced over loopback TCP into a 2-shard fleet with a history log
/// and an operator refreshing a dashboard.
void RunLive(const RunSettings& settings, RunResult* result);

}  // namespace navarchos::perfbench

#endif  // NAVARCHOS_PERFBENCH_WORKLOADS_H_
