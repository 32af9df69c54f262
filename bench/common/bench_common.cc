#include "bench_common.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "genomics/kernels.hh"
#include "util/cpu.hh"
#include "util/crc32.hh"
#include "util/logging.hh"

namespace sage {
namespace bench {

namespace {

std::string
cachePath()
{
    return "sage_bench_cache_v" + std::to_string(kCacheVersion) + ".txt";
}

/** Flat key=value serialization of one MeasuredArtifacts. */
void
writeArtifacts(std::ostream &out, const MeasuredArtifacts &art)
{
    const WorkloadMeasurement &w = art.work;
    out << "begin " << w.name << "\n";
    out << "fastqBytes " << w.fastqBytes << "\n";
    out << "totalReads " << w.totalReads << "\n";
    out << "totalBases " << w.totalBases << "\n";
    out << "pigzBytes " << w.pigzBytes << "\n";
    out << "springBytes " << w.springBytes << "\n";
    out << "sageBytes " << w.sageBytes << "\n";
    out << "sageDnaStreamBytes " << w.sageDnaStreamBytes << "\n";
    out << "pigzDecompSeconds " << w.pigzDecompSeconds << "\n";
    out << "springDecompSeconds " << w.springDecompSeconds << "\n";
    out << "springBackendSeconds " << w.springBackendSeconds << "\n";
    out << "sageSwDecompSeconds " << w.sageSwDecompSeconds << "\n";
    out << "sageSwParDecompSeconds " << w.sageSwParDecompSeconds << "\n";
    out << "sageSwDecodeThreads " << w.sageSwDecodeThreads << "\n";
    out << "sageSwFileDecompSeconds " << w.sageSwFileDecompSeconds
        << "\n";
    out << "sageSwFilePrefetchSeconds " << w.sageSwFilePrefetchSeconds
        << "\n";
    out << "sageSwServeSeconds " << w.sageSwServeSeconds << "\n";
    out << "sageSwServeClients " << w.sageSwServeClients << "\n";
    out << "isfFilterFraction " << w.isfFilterFraction << "\n";
    if (!w.sageChunkBytes.empty()) {
        out << "sageChunkBytes ";
        for (size_t c = 0; c < w.sageChunkBytes.size(); c++)
            out << (c == 0 ? "" : ",") << w.sageChunkBytes[c];
        out << "\n";
    }
    out << "dnaBytesUncompressed " << art.dnaBytesUncompressed << "\n";
    out << "qualBytesUncompressed " << art.qualBytesUncompressed << "\n";
    out << "pigzDnaBytes " << art.pigzDnaBytes << "\n";
    out << "pigzQualBytes " << art.pigzQualBytes << "\n";
    out << "springDnaBytes " << art.springDnaBytes << "\n";
    out << "springQualBytes " << art.springQualBytes << "\n";
    out << "sageDnaBytes " << art.sageDnaBytes << "\n";
    out << "sageQualBytes " << art.sageQualBytes << "\n";
    out << "pigzCompressSeconds " << art.pigzCompressSeconds << "\n";
    out << "springCompressSeconds " << art.springCompressSeconds << "\n";
    out << "springMapSeconds " << art.springMapSeconds << "\n";
    out << "sageCompressSeconds " << art.sageCompressSeconds << "\n";
    out << "sageMapSeconds " << art.sageMapSeconds << "\n";
    out << "sageTuneSeconds " << art.sageTuneSeconds << "\n";
    out << "springWorkingSetBytes " << art.springWorkingSetBytes << "\n";
    out << "sageWorkingSetBytes " << art.sageWorkingSetBytes << "\n";
    out << "end\n";
}

bool
readArtifacts(std::istream &in, MeasuredArtifacts &art)
{
    std::string line;
    std::map<std::string, std::string> kv;
    bool began = false;
    while (std::getline(in, line)) {
        std::istringstream iss(line);
        std::string key;
        iss >> key;
        if (key == "begin") {
            iss >> art.work.name;
            began = true;
            continue;
        }
        if (key == "end")
            break;
        std::string value;
        iss >> value;
        kv[key] = value;
    }
    if (!began)
        return false;

    auto u64 = [&](const char *key) -> uint64_t {
        return kv.count(key) ? std::stoull(kv[key]) : 0;
    };
    auto f64 = [&](const char *key) -> double {
        return kv.count(key) ? std::stod(kv[key]) : 0.0;
    };
    WorkloadMeasurement &w = art.work;
    w.fastqBytes = u64("fastqBytes");
    w.totalReads = u64("totalReads");
    w.totalBases = u64("totalBases");
    w.pigzBytes = u64("pigzBytes");
    w.springBytes = u64("springBytes");
    w.sageBytes = u64("sageBytes");
    w.sageDnaStreamBytes = u64("sageDnaStreamBytes");
    w.pigzDecompSeconds = f64("pigzDecompSeconds");
    w.springDecompSeconds = f64("springDecompSeconds");
    w.springBackendSeconds = f64("springBackendSeconds");
    w.sageSwDecompSeconds = f64("sageSwDecompSeconds");
    w.sageSwParDecompSeconds = f64("sageSwParDecompSeconds");
    w.sageSwDecodeThreads = f64("sageSwDecodeThreads");
    w.sageSwFileDecompSeconds = f64("sageSwFileDecompSeconds");
    w.sageSwFilePrefetchSeconds = f64("sageSwFilePrefetchSeconds");
    w.sageSwServeSeconds = f64("sageSwServeSeconds");
    w.sageSwServeClients = f64("sageSwServeClients");
    w.isfFilterFraction = f64("isfFilterFraction");
    if (kv.count("sageChunkBytes")) {
        std::istringstream list(kv["sageChunkBytes"]);
        std::string item;
        while (std::getline(list, item, ','))
            w.sageChunkBytes.push_back(std::stoull(item));
    }
    art.dnaBytesUncompressed = u64("dnaBytesUncompressed");
    art.qualBytesUncompressed = u64("qualBytesUncompressed");
    art.pigzDnaBytes = u64("pigzDnaBytes");
    art.pigzQualBytes = u64("pigzQualBytes");
    art.springDnaBytes = u64("springDnaBytes");
    art.springQualBytes = u64("springQualBytes");
    art.sageDnaBytes = u64("sageDnaBytes");
    art.sageQualBytes = u64("sageQualBytes");
    art.pigzCompressSeconds = f64("pigzCompressSeconds");
    art.springCompressSeconds = f64("springCompressSeconds");
    art.springMapSeconds = f64("springMapSeconds");
    art.sageCompressSeconds = f64("sageCompressSeconds");
    art.sageMapSeconds = f64("sageMapSeconds");
    art.sageTuneSeconds = f64("sageTuneSeconds");
    art.springWorkingSetBytes = u64("springWorkingSetBytes");
    art.sageWorkingSetBytes = u64("sageWorkingSetBytes");
    return true;
}

std::vector<MeasuredArtifacts>
loadCache()
{
    std::ifstream in(cachePath());
    std::vector<MeasuredArtifacts> all;
    if (!in)
        return all;
    for (;;) {
        MeasuredArtifacts art;
        if (!readArtifacts(in, art))
            break;
        all.push_back(std::move(art));
    }
    return all;
}

} // namespace

std::vector<MeasuredArtifacts>
remeasureAllPresets(bool verbose)
{
    std::vector<MeasuredArtifacts> all;
    for (const DatasetSpec &spec : allReadSetSpecs()) {
        if (verbose)
            std::fprintf(stderr, "[bench] measuring %s ...\n",
                         spec.name.c_str());
        all.push_back(measurePreset(spec));
    }
    std::ofstream out(cachePath());
    for (const auto &art : all)
        writeArtifacts(out, art);
    if (verbose)
        std::fprintf(stderr, "[bench] cached measurements in %s\n",
                     cachePath().c_str());
    return all;
}

std::vector<MeasuredArtifacts>
measureAllPresets(bool verbose)
{
    std::vector<MeasuredArtifacts> cached = loadCache();
    if (cached.size() == allReadSetSpecs().size()) {
        if (verbose)
            std::fprintf(stderr,
                         "[bench] using cached measurements (%s)\n",
                         cachePath().c_str());
        return cached;
    }
    return remeasureAllPresets(verbose);
}

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    size_t n = 0;
    for (double v : values) {
        if (v > 0.0) {
            log_sum += std::log(v);
            n++;
        }
    }
    return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

void
printHeader(const std::string &experiment,
            const std::string &paper_summary)
{
    std::printf("=======================================================\n");
    std::printf("%s\n", experiment.c_str());
    std::printf("Paper reference: %s\n", paper_summary.c_str());
    std::printf("=======================================================\n");
}

std::string
jsonReportPath(const std::string &name)
{
    const char *dir = std::getenv("SAGE_BENCH_JSON_DIR");
    if (!dir || !*dir)
        return "";
    return std::string(dir) + "/BENCH_" + name + ".json";
}

std::string
hostMetaJson()
{
    std::ostringstream out;
    out << "{\"hardwareConcurrency\": " << hardwareConcurrency()
        << ", \"compiler\": \"" << compilerVersion() << "\""
        << ", \"simdDetected\": \""
        << simdLevelName(hardwareSimdLevel()) << "\""
        << ", \"kernelDispatch\": \"" << kernels::activeLevelName()
        << "\"" << ", \"crc32\": \"" << crc32::activeTierName() << "\""
        << ", \"forcedScalar\": "
        << (simdForcedScalar() ? "true" : "false") << "}";
    return out.str();
}

void
printScaleNote()
{
    std::printf("note: datasets are synthetic RS1-RS5 analogues, ~1000x\n"
                "smaller than the paper's; compare shapes and orderings,\n"
                "not absolute values (DESIGN.md section 2).\n\n");
}

} // namespace bench
} // namespace sage
