/**
 * @file
 * Result plumbing shared by the workloads: named metrics with units,
 * exact percentiles over latency samples, resident memory, and the
 * one-line JSON result the benchmark ends with.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Ordered list of (name, value, unit). */
class Metrics
{
  public:
    void add(const std::string &name, double value, const std::string &unit);

    /** `"name": {"value": v, "unit": "u"}, ...` (no braces). */
    std::string json() const;

    /** Human-readable block, one metric a line, prefixed by @p label. */
    std::string text(const std::string &label) const;

  private:
    struct Entry
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** Latency samples (seconds) reduced to what the reports need. */
struct LatencyStats
{
    uint64_t samples = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    /** Samples strictly above p99 (a p99 needs at least 10). */
    uint64_t beyondP99 = 0;

    static LatencyStats of(std::vector<double> samples);
};

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Resident set size of this process in MiB (VmRSS). */
double residentMb();

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
