/**
 * @file
 * SAGe compressor (paper §5.1): encodes a read set into the tuned
 * array/guide-array container defined in format.hh.
 *
 * Compression runs on the host and is not on the analysis critical path
 * (paper Fig. 5b, §8.6); decompression is the latency-critical side and
 * lives in decoder.hh (software) and hw/ (hardware model).
 */

#ifndef SAGE_CORE_ENCODER_HH
#define SAGE_CORE_ENCODER_HH

#include <string_view>

#include "core/format.hh"
#include "genomics/read.hh"

namespace sage {

class StreamBundle;
class ThreadPool;

/**
 * Compress @p rs against @p consensus.
 *
 * The consensus (an approximation of the organism's genome — here a
 * user-provided reference, paper §2.2) is stored inside the archive so
 * the output is self-contained.
 */
SageArchive sageCompress(const ReadSet &rs, std::string_view consensus,
                         const SageConfig &config = {},
                         ThreadPool *pool = nullptr);

/**
 * Core of sageCompress: encode into the container's stream set without
 * serializing it. The returned SageArchive carries all the accounting
 * (sizes, timings) but an empty `bytes` — callers either serialize the
 * bundle into one buffer (sageCompress) or stream it straight to a
 * ByteSink (io/session.hh: SageWriter), never holding both the streams
 * and a second full copy of the archive.
 *
 * With a @p pool, mapping runs on it, and then the streams that depend
 * only on the encode order are written at once: the DNA arrays and
 * each quality block as one job list on the pool, the headers on the
 * calling thread. The bytes are the same with or without a pool,
 * whatever its size.
 */
SageArchive sageEncodeToBundle(const ReadSet &rs,
                               std::string_view consensus,
                               const SageConfig &config,
                               ThreadPool *pool, StreamBundle &bundle);

} // namespace sage

#endif // SAGE_CORE_ENCODER_HH
