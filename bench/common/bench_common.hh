/**
 * @file
 * Shared benchmark-harness support: preset measurement with a disk
 * cache (measuring all five read sets takes minutes; every bench
 * binary reuses one measurement pass), geometric means, and the
 * paper's reference numbers for side-by-side shape comparison.
 */

#ifndef SAGE_BENCH_COMMON_HH
#define SAGE_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "pipeline/measure.hh"
#include "pipeline/pipeline.hh"

namespace sage {
namespace bench {

/** Bump when any format/measurement change invalidates cached runs. */
constexpr int kCacheVersion = 10;

/**
 * Measure all five RS presets (synthesize + compress with every tool +
 * time decompression), caching results in ./sage_bench_cache_v*.txt so
 * subsequent bench binaries skip the ~minutes-long measurement pass.
 */
std::vector<MeasuredArtifacts> measureAllPresets(bool verbose = true);

/** Force re-measurement (ignores and rewrites the cache). */
std::vector<MeasuredArtifacts> remeasureAllPresets(bool verbose = true);

/** Geometric mean (ignores non-positive entries). */
double geomean(const std::vector<double> &values);

/** Standard banner for a bench binary. */
void printHeader(const std::string &experiment,
                 const std::string &paper_summary);

/**
 * Path for this bench's machine-readable report:
 * $SAGE_BENCH_JSON_DIR/BENCH_<name>.json, or "" when the env var is
 * unset (benches then skip JSON emission). CI sets the variable and
 * uploads the BENCH_*.json files as baseline artifacts.
 */
std::string jsonReportPath(const std::string &name);

/**
 * Host-metadata JSON object value for bench reports: hardware
 * concurrency, compiler, detected SIMD level, the active kernel
 * dispatch and CRC-32 tier (both after SAGE_FORCE_SCALAR). Every
 * BENCH_*.json embeds it as
 * `"host": ...` so a committed baseline names the machine shape it was
 * measured on — a 1-core container baseline is then self-documenting
 * instead of a trap (ROADMAP perf follow-on).
 */
std::string hostMetaJson();

/** Scale note: our datasets are ~1000x smaller than the paper's. */
void printScaleNote();

} // namespace bench
} // namespace sage

#endif // SAGE_BENCH_COMMON_HH
