/**
 * @file
 * Replays that time one layer at a time, from outside, around public
 * library calls. A workload's timed phase shows only what its clients
 * see; these replays split that into decode, assembly, reply encoding,
 * CRC, client parsing and socket time.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "corpus.hh"

namespace sage {
class MultiArchiveService;
}

namespace perfbench {

/** Decode time of a chunk sequence, split by stream class. */
struct DecodeSplit
{
    uint64_t chunks = 0;
    double openSeconds = 0.0;   ///< tryOpen of the full decoder(s).
    double fullSeconds = 0.0;   ///< Decode self time, fetch subtracted.
    double dnaSeconds = 0.0;    ///< Same on dna_only decoders.
    IoSnapshot fetch;           ///< Fetches of the full replay.

    double hostSeconds() const { return fullSeconds - dnaSeconds; }
};

/** (archive index into the truth vector, chunk id). */
using ChunkRef = std::pair<size_t, uint32_t>;

/**
 * Decode @p chunks through tryDecodeChunkShared, once on full decoders
 * and once on dna_only decoders, each over a TimingSource so the fetch
 * time can be subtracted. Host-stream (header/quality) time is the
 * difference between the two.
 */
DecodeSplit replayDecode(const std::vector<ArchiveTruth> &archives,
                         const std::vector<ChunkRef> &chunks);

/** One read-range request of a workload: archive index, first, count. */
struct RangeRequest
{
    size_t archive = 0;
    uint64_t first = 0;
    uint64_t count = 0;
};

/** Per-layer time of serving a request sample in process. */
struct ServePathSplit
{
    uint64_t requests = 0;
    uint64_t failed = 0;        ///< Not Ok, or reads did not match.
    double assembleSeconds = 0.0;  ///< readRangeSync on a warm cache.
    double encodeSeconds = 0.0;    ///< appendReadReply.
    uint64_t replyBytes = 0;
    double crcSeconds = 0.0;       ///< Crc32 over the reply bodies.
    double parseSeconds = 0.0;     ///< verifyFrame + reply parsers.
    double socketSeconds = 0.0;    ///< Loopback send + receive.
};

/**
 * Serve @p sample through @p service (archives already open as
 * @p ids, cache already warm), then push each reply through the wire
 * codec and a loopback TCP connection the way net::Server and
 * net::Client would, timing every step. Replies are checked against
 * @p archives.
 */
ServePathSplit replayServePath(sage::MultiArchiveService &service,
                               const std::vector<uint32_t> &ids,
                               const std::vector<ArchiveTruth> &archives,
                               const std::vector<RangeRequest> &sample);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
