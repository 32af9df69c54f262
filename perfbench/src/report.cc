#include "report.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::string
formatNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    std::ostringstream out;
    out.precision(12);
    out << value;
    return out.str();
}

/** Nearest-rank percentile of sorted @p values, @p q in (0, 1]. */
double
rankPercentile(const std::vector<double> &values, double q)
{
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::max<size_t>(rank, 1) - 1];
}

} // namespace

void
Metrics::add(const std::string &name, double value, const std::string &unit)
{
    entries_.push_back({name, value, unit});
}

std::string
Metrics::json() const
{
    std::string out;
    for (const Entry &entry : entries_) {
        if (!out.empty())
            out += ", ";
        out += "\"" + entry.name + "\": {\"value\": " +
            formatNumber(entry.value) + ", \"unit\": \"" + entry.unit +
            "\"}";
    }
    return out;
}

std::string
Metrics::text(const std::string &label) const
{
    std::ostringstream out;
    for (const Entry &entry : entries_) {
        out << label << "  " << entry.name << " = "
            << formatNumber(entry.value) << " " << entry.unit << "\n";
    }
    return out.str();
}

LatencyStats
LatencyStats::of(std::vector<double> samples)
{
    LatencyStats stats;
    stats.samples = samples.size();
    if (samples.empty())
        return stats;
    std::sort(samples.begin(), samples.end());
    stats.p50 = rankPercentile(samples, 0.50);
    stats.p99 = rankPercentile(samples, 0.99);
    stats.beyondP99 = static_cast<uint64_t>(
        samples.end() -
        std::upper_bound(samples.begin(), samples.end(), stats.p99));
    return stats;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

double
residentMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

} // namespace perfbench
