/**
 * @file
 * SMARTS-style checkpointed sampling (ROWSIM_SAMPLE).
 *
 * Detail simulation is the bottleneck of every figure: tens of
 * kilocycles per wall-clock second, for runs whose metrics are
 * near-stationary after warm-up. Sampling replaces one long detail run
 * with (1) a functional fast-mode warm-up that drops a grid of n
 * checkpoints at the marks m_k = floor(Q * k / n), k = 0..n-1, of the
 * per-core iteration quota Q, (2) n short detail windows — restore
 * checkpoint k, detail-warm for `warm` iterations, measure `detail`
 * iterations — executed as ordinary sweep jobs, so they run in
 * parallel, survive crashes, and are individually served by the
 * content-addressed result store, and (3) a batch-means aggregation:
 * each metric's window values give a mean, a standard deviation, and a
 * Student-t confidence interval; additive counters are additionally
 * extrapolated by Q / detail to whole-run estimates.
 *
 * The aggregate rides in RunResult::samplingJson (reported as the
 * "sampling" key); the headline RunResult fields carry the estimates,
 * so figure scripts rank policies from sampled runs unchanged.
 *
 * Sampling is incompatible with the attribution profiler (checkpoints
 * do not carry its state), convergence-bounded runs (the stop cycle
 * would depend on the sampling layout), and fault injection (no
 * functional equivalent of per-tick fault draws); all three are fatal.
 * Latency-mean metrics (missLatency, phase means) include the short
 * detail warm-up segment of each window — the timing stats are empty
 * at every func-written checkpoint, so a window cannot be polluted by
 * anything before its own restore point.
 */

#ifndef ROWSIM_SIM_SAMPLING_HH
#define ROWSIM_SIM_SAMPLING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/runspec.hh"
#include "sim/sweep.hh"

namespace rowsim
{

/** Parse a sampling spec; empty = inactive, anything malformed
 *  (n < 1, detail < 1, confidence outside (0, 1), trailing junk) is a
 *  user error (fatal). @p name is the env var for error messages. */
SampleSpec parseSampleSpec(const char *name, const std::string &spec);

class System;

/** The additive taps of every runMetrics() row (value, denominator) at
 *  one point of a run. A measurement window snapshots them before its
 *  measured segment and reports the deltas (the detail warm-up and —
 *  for the instruction counters — the functional prefix are both
 *  excluded); an empty baseline is the start of the run. */
using MetricBaseline = std::vector<std::uint64_t>;

MetricBaseline snapshotCounters(System &sys);

/** The RunResult metrics of @p sys since @p base, with the full stats
 *  tree when @p capture_stats. Mean and percentile rows are read
 *  whole; workload and config are left to the caller. */
RunResult harvestMetrics(System &sys, const MetricBaseline &base,
                         bool capture_stats);

/** Checkpoint marks m_k = floor(quota * k / n), k = 0..n-1. */
std::vector<std::uint64_t> sampleGrid(std::uint64_t quota, unsigned n);

/**
 * Run one (workload, params) experiment under the sampling layout of
 * @p spec (resolved from @p params). @p quota must already be resolved
 * (non-zero). Returns the aggregated RunResult —
 * headline counters are whole-run estimates, latency means are window
 * means, and samplingJson holds the full grid / window / CI summary.
 * A failed window fails the whole sampled run (the sweep layer already
 * retried it if retries were configured).
 */
RunResult runSampled(const std::string &workload,
                     const SystemParams &params, const std::string &label,
                     std::uint64_t quota, const RunSpec &spec);

/** Execute one measurement window (SweepJob::ckptPath non-empty);
 *  called by the sweep engine's executeJob. */
RunResult runDetailWindow(const SweepJob &job);

} // namespace rowsim

#endif // ROWSIM_SIM_SAMPLING_HH
