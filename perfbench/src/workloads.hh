/**
 * @file
 * The benchmark's three workloads. Each runs in its own process, does its
 * set-up, executes the fixed operation list its seed generates, checks
 * every output, and fills the report: end-to-end metrics in an untraced
 * run, per-layer metrics (from spans around each layer's public calls)
 * in a traced one. A traced run reports only the layers its workload
 * exercises.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "bench_common.hh"

namespace perfbench
{

void runProgramCpi(const Options &options, RunReport &report);
void runLabelDataset(const Options &options, RunReport &report);
void runServeMixed(const Options &options, RunReport &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
