/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload <ingest|serve_local|serve_wire> --seed <n>
 *             --seconds <s> --trace <0|1> --workdir <dir>
 *
 * Prints the seed, the input sizes, the host block and every metric by
 * name with its unit, then ends with one JSON line:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * With --trace 0 the metrics are the end-to-end set; with --trace 1 the
 * per-layer set, and the spans are written under --workdir.
 */

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench_common.hh"
#include "util/cpu.hh"
#include "workloads.hh"

namespace {

int
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload <ingest|serve_local|"
                 "serve_wire> --seed <n> --seconds <s> --trace <0|1> "
                 "--workdir <dir>\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options options;
    bool have_workload = false, have_workdir = false;
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string flag = argv[i], value = argv[i + 1];
            if (flag == "--workload") {
                options.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                options.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value);
            } else if (flag == "--trace") {
                options.trace = std::stoi(value) != 0;
            } else if (flag == "--workdir") {
                options.workdir = value;
                have_workdir = true;
            } else {
                return usage("unknown flag " + flag);
            }
        }
    } catch (const std::exception &) {
        return usage("bad flag value");
    }
    if (argc % 2 == 0)
        return usage("every flag takes a value");
    if (!have_workload || !have_workdir || !(options.seconds > 0.0))
        return usage("--workload, --workdir and --seconds > 0 are required");
    options.threads = std::max(1u, std::min(4u, sage::hardwareConcurrency()));
    options.clients = std::max(1u, options.threads / 2);
    std::filesystem::create_directories(options.workdir);

    Outcome outcome;
    if (options.workload == "ingest")
        outcome = runIngest(options);
    else if (options.workload == "serve_local")
        outcome = runServeLocal(options);
    else if (options.workload == "serve_wire")
        outcome = runServeWire(options);
    else
        return usage("unknown workload " + options.workload);
    if (!outcome.ok) {
        std::cerr << "perfbench: " << options.workload
                  << " failed: " << outcome.error << "\n";
        return 1;
    }

    const EndToEnd &e2e = outcome.endToEnd;
    const Metrics end_to_end = e2e.metrics();
    const Metrics layers = outcome.layers.metrics();
    const double failed_frac = e2e.attempted
        ? static_cast<double>(e2e.failed) / static_cast<double>(e2e.attempted)
        : 1.0;
    std::cout << "perfbench workload=" << options.workload
              << " seed=" << options.seed << " seconds=" << options.seconds
              << " trace=" << (options.trace ? 1 : 0)
              << " threads=" << options.threads
              << " clients=" << options.clients << "\n"
              << "host " << sage::bench::hostMetaJson() << "\n"
              << outcome.info << end_to_end.text("e2e")
              // Printed, but not a JSON metric: a slow spell of a shared
              // host moves it by more than any bound could allow.
              << "e2e  p99_ms = " << e2e.latency.p99 * 1e3 << " ms\n"
              << "e2e  failed_frac = " << failed_frac << " (" << e2e.failed
              << " of " << e2e.attempted << ")\n";
    if (options.trace)
        std::cout << layers.text("layer");
    const bool correct = e2e.attempted > 0 && e2e.failed == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << e2e.attempted
              << ", \"failed\": " << e2e.failed << ", \"metrics\": {"
              << (options.trace ? layers.json() : end_to_end.json()) << "}}"
              << std::endl;
    return 0;
}
