/**
 * @file
 * google-benchmark microbenchmarks of the hot kernels: bit I/O, tuned
 * field decode, gpzip round trips, SAGe software decode, banded
 * alignment and the quality range coder. These quantify the per-kernel
 * costs behind the Fig. 13/14 stage times.
 *
 * The sequence-kernel section (pack/unpack/revcomp) measures three
 * tiers against each other — the historical per-bit BitReader/
 * BitWriter loops, the table-driven scalar baseline, and the
 * runtime-dispatched SIMD kernels (genomics/kernels.hh) — and writes a
 * machine-readable BENCH_kernels.json (via SAGE_BENCH_JSON_DIR) with
 * MB/s per tier plus host metadata, so CI baselines document how much
 * the dispatched kernels buy on that host. Its crc32 row times the
 * frame and archive checksum the same way: the textbook bitwise loop,
 * the slicing-by-8 tier and the dispatched tier (util/crc32.hh).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/bench_common.hh"
#include "compress/gpzip.hh"
#include "compress/quality.hh"
#include "consensus/align.hh"
#include "core/sage.hh"
#include "genomics/kernels.hh"
#include "simgen/synthesize.hh"
#include "util/bitio.hh"
#include "util/cpu.hh"
#include "util/crc32.hh"
#include "util/rng.hh"
#include "util/timing.hh"

namespace sage {
namespace {

void
BM_BitWriterPack(benchmark::State &state)
{
    Rng rng(1);
    std::vector<std::pair<uint64_t, unsigned>> fields;
    for (int i = 0; i < 4096; i++) {
        const unsigned width = 1 + rng.nextBelow(16);
        fields.emplace_back(rng.next() & ((1u << width) - 1), width);
    }
    for (auto _ : state) {
        BitWriter bw;
        for (const auto &[value, width] : fields)
            bw.writeBits(value, width);
        benchmark::DoNotOptimize(bw.bitCount());
    }
    state.SetItemsProcessed(state.iterations() * fields.size());
}
BENCHMARK(BM_BitWriterPack);

void
BM_BitReaderUnpack(benchmark::State &state)
{
    Rng rng(2);
    BitWriter bw;
    std::vector<unsigned> widths;
    for (int i = 0; i < 4096; i++) {
        const unsigned width = 1 + rng.nextBelow(16);
        widths.push_back(width);
        bw.writeBits(rng.next(), width);
    }
    const auto bytes = bw.take();
    for (auto _ : state) {
        BitReader br(bytes);
        uint64_t sum = 0;
        for (unsigned width : widths)
            sum += br.readBits(width);
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * widths.size());
}
BENCHMARK(BM_BitReaderUnpack);

void
BM_TunedFieldDecode(benchmark::State &state)
{
    Rng rng(3);
    std::vector<uint64_t> values;
    for (int i = 0; i < 8192; i++)
        values.push_back(rng.nextGeometric(0.3));
    const AssociationTable table = TunedFieldCodec::tuneFor(values);
    TunedArrayEncoder enc(table);
    for (uint64_t v : values)
        enc.append(v);
    const auto array = enc.takeArray();
    const auto guide = enc.takeGuide();
    for (auto _ : state) {
        TunedArrayDecoder dec(table, BitReader(array),
                              BitReader(guide));
        uint64_t sum = 0;
        for (size_t i = 0; i < values.size(); i++)
            sum += dec.next();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_TunedFieldDecode);

void
BM_GpzipDecompress(benchmark::State &state)
{
    Rng rng(4);
    std::string text;
    for (int i = 0; i < 1 << 20; i++)
        text.push_back("ACGT"[rng.nextBelow(4)]);
    const auto archive = gpzip::compress(text);
    for (auto _ : state) {
        auto out = orExit(gpzip::tryDecompress(archive));
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_GpzipDecompress);

void
BM_SageDecode(benchmark::State &state)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const SageArchive archive = sageCompress(ds.readSet, ds.reference);
    for (auto _ : state) {
        ReadSet rs = sageDecompress(archive.bytes);
        benchmark::DoNotOptimize(rs.reads.data());
    }
    state.SetBytesProcessed(state.iterations()
                            * ds.readSet.totalBases());
}
BENCHMARK(BM_SageDecode);

void
BM_BandedAlign(benchmark::State &state)
{
    Rng rng(5);
    std::string target;
    for (int i = 0; i < 1000; i++)
        target.push_back("ACGT"[rng.nextBelow(4)]);
    std::string query = target;
    for (int i = 0; i < 10; i++)
        query[rng.nextBelow(query.size())] = "ACGT"[rng.nextBelow(4)];
    for (auto _ : state) {
        auto result = bandedAlign(target, query,
                                  static_cast<uint32_t>(state.range(0)));
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BandedAlign)->Arg(16)->Arg(64)->Arg(128);

void
BM_QualityRoundTrip(benchmark::State &state)
{
    Rng rng(6);
    std::vector<std::string> quals;
    for (int r = 0; r < 200; r++) {
        std::string q;
        for (int i = 0; i < 150; i++)
            q.push_back(static_cast<char>('A' + rng.nextBelow(8)));
        quals.push_back(std::move(q));
    }
    for (auto _ : state) {
        const QualityArchive archive = compressQuality(quals);
        auto out = decompressQuality(archive);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * quals.size() * 150);
}
BENCHMARK(BM_QualityRoundTrip);

// ---------------------------------------------------------------------
// Sequence kernels: per-bit vs scalar-LUT vs dispatched SIMD
// ---------------------------------------------------------------------

/** One 4 MB ACGT sequence + its ACGTN sibling, shared by the BMs. */
struct SeqFixture
{
    static constexpr size_t kBases = 4 << 20;

    SeqFixture()
    {
        Rng rng(7);
        acgt.reserve(kBases);
        acgtn.reserve(kBases);
        for (size_t i = 0; i < kBases; i++) {
            acgt.push_back("ACGT"[rng.nextBelow(4)]);
            acgtn.push_back("ACGTN"[rng.nextBelow(5)]);
        }
        packed2.resize((kBases + 3) / 4);
        kernels::pack2bit(acgt.data(), kBases, packed2.data());
        packed3.resize((3 * kBases + 7) / 8);
        kernels::pack3bit(acgtn.data(), kBases, packed3.data());
    }

    static const SeqFixture &
    get()
    {
        static const SeqFixture fixture;
        return fixture;
    }

    std::string acgt, acgtn;
    std::vector<uint8_t> packed2, packed3;
};

void
BM_Unpack2BitPerBit(benchmark::State &state)
{
    const SeqFixture &f = SeqFixture::get();
    std::string out(SeqFixture::kBases, '\0');
    for (auto _ : state) {
        BitReader br(f.packed2.data(), f.packed2.size());
        for (size_t i = 0; i < SeqFixture::kBases; i++)
            out[i] = codeToBase(static_cast<uint8_t>(br.readBits(2)));
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(state.iterations() * SeqFixture::kBases);
}
BENCHMARK(BM_Unpack2BitPerBit);

void
BM_Unpack2BitScalar(benchmark::State &state)
{
    const SeqFixture &f = SeqFixture::get();
    std::string out(SeqFixture::kBases, '\0');
    for (auto _ : state) {
        kernels::scalar::unpack2bit(f.packed2.data(), f.packed2.size(),
                                    SeqFixture::kBases, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(state.iterations() * SeqFixture::kBases);
}
BENCHMARK(BM_Unpack2BitScalar);

void
BM_Unpack2BitDispatched(benchmark::State &state)
{
    const SeqFixture &f = SeqFixture::get();
    std::string out(SeqFixture::kBases, '\0');
    for (auto _ : state) {
        kernels::unpack2bit(f.packed2.data(), f.packed2.size(),
                            SeqFixture::kBases, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(state.iterations() * SeqFixture::kBases);
}
BENCHMARK(BM_Unpack2BitDispatched);

void
BM_Unpack3BitDispatched(benchmark::State &state)
{
    const SeqFixture &f = SeqFixture::get();
    std::string out(SeqFixture::kBases, '\0');
    for (auto _ : state) {
        kernels::unpack3bit(f.packed3.data(), f.packed3.size(),
                            SeqFixture::kBases, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(state.iterations() * SeqFixture::kBases);
}
BENCHMARK(BM_Unpack3BitDispatched);

void
BM_Pack2BitDispatched(benchmark::State &state)
{
    const SeqFixture &f = SeqFixture::get();
    std::vector<uint8_t> out((SeqFixture::kBases + 3) / 4);
    for (auto _ : state) {
        kernels::pack2bit(f.acgt.data(), SeqFixture::kBases,
                          out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(state.iterations() * SeqFixture::kBases);
}
BENCHMARK(BM_Pack2BitDispatched);

void
BM_RevCompDispatched(benchmark::State &state)
{
    const SeqFixture &f = SeqFixture::get();
    std::string out(SeqFixture::kBases, '\0');
    for (auto _ : state) {
        kernels::reverseComplement(f.acgtn.data(), SeqFixture::kBases,
                                   out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(state.iterations() * SeqFixture::kBases);
}
BENCHMARK(BM_RevCompDispatched);

// ---------------------------------------------------------------------
// JSON report: deterministic best-of-N MB/s per kernel tier
// ---------------------------------------------------------------------

double
bestMbPerSec(const std::function<void()> &fn)
{
    constexpr int kReps = 5;
    double best = 0.0;
    for (int r = 0; r < kReps; r++) {
        Stopwatch clock;
        fn();
        const double s = clock.seconds();
        const double mbps =
            s > 0.0 ? SeqFixture::kBases / 1e6 / s : 0.0;
        best = std::max(best, mbps);
    }
    return best;
}

struct KernelRow
{
    const char *kernel;
    double perBit;
    double scalarLut;
    double dispatched;
};

void
writeKernelJson(const std::string &path)
{
    const SeqFixture &f = SeqFixture::get();
    std::string out(SeqFixture::kBases, '\0');
    std::vector<uint8_t> pk2((SeqFixture::kBases + 3) / 4);
    std::vector<uint8_t> pk3((3 * SeqFixture::kBases + 7) / 8);

    std::vector<KernelRow> rows;
    rows.push_back(
        {"unpack2bit",
         bestMbPerSec([&] {
             BitReader br(f.packed2.data(), f.packed2.size());
             for (size_t i = 0; i < SeqFixture::kBases; i++)
                 out[i] =
                     codeToBase(static_cast<uint8_t>(br.readBits(2)));
         }),
         bestMbPerSec([&] {
             kernels::scalar::unpack2bit(f.packed2.data(),
                                         f.packed2.size(),
                                         SeqFixture::kBases,
                                         out.data());
         }),
         bestMbPerSec([&] {
             kernels::unpack2bit(f.packed2.data(), f.packed2.size(),
                                 SeqFixture::kBases, out.data());
         })});
    rows.push_back(
        {"unpack3bit",
         bestMbPerSec([&] {
             BitReader br(f.packed3.data(), f.packed3.size());
             for (size_t i = 0; i < SeqFixture::kBases; i++)
                 out[i] =
                     codeToBase(static_cast<uint8_t>(br.readBits(3)));
         }),
         bestMbPerSec([&] {
             kernels::scalar::unpack3bit(f.packed3.data(),
                                         f.packed3.size(),
                                         SeqFixture::kBases,
                                         out.data());
         }),
         bestMbPerSec([&] {
             kernels::unpack3bit(f.packed3.data(), f.packed3.size(),
                                 SeqFixture::kBases, out.data());
         })});
    rows.push_back(
        {"pack2bit",
         bestMbPerSec([&] {
             BitWriter bw;
             for (char c : f.acgt)
                 bw.writeBits(baseToCode(c), 2);
             benchmark::DoNotOptimize(bw.bytes().data());
         }),
         bestMbPerSec([&] {
             kernels::scalar::pack2bit(f.acgt.data(),
                                       SeqFixture::kBases, pk2.data());
         }),
         bestMbPerSec([&] {
             kernels::pack2bit(f.acgt.data(), SeqFixture::kBases,
                               pk2.data());
         })});
    rows.push_back(
        {"pack3bit",
         bestMbPerSec([&] {
             BitWriter bw;
             for (char c : f.acgtn)
                 bw.writeBits(baseToCode(c), 3);
             benchmark::DoNotOptimize(bw.bytes().data());
         }),
         bestMbPerSec([&] {
             kernels::scalar::pack3bit(f.acgtn.data(),
                                       SeqFixture::kBases, pk3.data());
         }),
         bestMbPerSec([&] {
             kernels::pack3bit(f.acgtn.data(), SeqFixture::kBases,
                               pk3.data());
         })});
    rows.push_back(
        {"reverseComplement",
         bestMbPerSec([&] {
             for (size_t i = 0; i < SeqFixture::kBases; i++)
                 out[i] = complementBase(
                     f.acgtn[SeqFixture::kBases - 1 - i]);
         }),
         bestMbPerSec([&] {
             kernels::scalar::reverseComplement(
                 f.acgtn.data(), SeqFixture::kBases, out.data());
         }),
         bestMbPerSec([&] {
             kernels::reverseComplement(f.acgtn.data(),
                                        SeqFixture::kBases,
                                        out.data());
         })});
    // CRC-32 over the same 4 MiB: the textbook 8-steps-per-byte loop,
    // the slicing-by-8 tier, and whichever tier Crc32 dispatches to.
    const uint8_t *bytes = reinterpret_cast<const uint8_t *>(f.acgt.data());
    uint32_t crc = 0;
    rows.push_back(
        {"crc32",
         bestMbPerSec([&] {
             uint32_t c = 0xffffffffu;
             for (size_t i = 0; i < SeqFixture::kBases; i++) {
                 c ^= bytes[i];
                 for (int k = 0; k < 8; k++)
                     c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1)));
             }
             crc ^= c;
         }),
         bestMbPerSec([&] {
             crc ^= crc32::slice8(0, bytes, SeqFixture::kBases);
         }),
         bestMbPerSec([&] {
             crc ^= Crc32::of(bytes, SeqFixture::kBases);
         })});
    benchmark::DoNotOptimize(crc);

    FILE *json = std::fopen(path.c_str(), "w");
    if (!json) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(json, "{\n  \"bench\": \"kernels\",\n");
    std::fprintf(json, "  \"host\": %s,\n",
                 bench::hostMetaJson().c_str());
    std::fprintf(json, "  \"megabases\": %zu,\n",
                 SeqFixture::kBases / (1 << 20));
    std::fprintf(json, "  \"kernels\": [\n");
    for (size_t i = 0; i < rows.size(); i++) {
        const KernelRow &r = rows[i];
        std::fprintf(json,
                     "    {\"kernel\": \"%s\", "
                     "\"perBitMbPerSec\": %.1f, "
                     "\"scalarLutMbPerSec\": %.1f, "
                     "\"dispatchedMbPerSec\": %.1f, "
                     "\"speedupOverPerBit\": %.2f}%s\n",
                     r.kernel, r.perBit, r.scalarLut, r.dispatched,
                     r.perBit > 0.0 ? r.dispatched / r.perBit : 0.0,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote %s (dispatch tier: %s)\n", path.c_str(),
                kernels::activeLevelName());
}

} // namespace
} // namespace sage

int
main(int argc, char **argv)
{
    // MB/s table + JSON first (deterministic, independent of
    // google-benchmark's timers); path from SAGE_BENCH_JSON_DIR, or
    // pass --json=<path> explicitly.
    std::string json_path = sage::bench::jsonReportPath("kernels");
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(7);
    }
    std::printf("sequence-kernel dispatch: %s (hardware %s%s), crc32: %s\n",
                sage::kernels::activeLevelName(),
                sage::simdLevelName(sage::hardwareSimdLevel()),
                sage::simdForcedScalar() ? ", SAGE_FORCE_SCALAR" : "",
                sage::crc32::activeTierName());
    if (!json_path.empty())
        sage::writeKernelJson(json_path);

    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    return 0;
}
