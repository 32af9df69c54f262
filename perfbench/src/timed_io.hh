/**
 * @file
 * Timing decorators for the library's I/O interfaces.
 *
 * TimingSource wraps any ByteSource (FileSource on the benchmark's
 * paths) and TimingSink any ByteSink (FileSink). Every call is
 * forwarded to the wrapped object unchanged, so all of its checks,
 * retries and error mapping still apply; the decorator only counts
 * calls and bytes, adds up the time spent inside, and records an
 * "io.fetch" / "io.write" span when tracing is on.
 */

#ifndef PERFBENCH_TIMED_IO_HH
#define PERFBENCH_TIMED_IO_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "io/byte_stream.hh"

namespace perfbench {

/** Calls, bytes and busy time through one or more decorators. */
struct IoCounters
{
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> bytes{0};
    std::atomic<uint64_t> nanos{0};

    double seconds() const { return static_cast<double>(nanos.load()) * 1e-9; }
};

/** Plain copy of IoCounters, for before/after deltas. */
struct IoSnapshot
{
    uint64_t calls = 0;
    uint64_t bytes = 0;
    double seconds = 0.0;

    static IoSnapshot of(const IoCounters &counters);
    IoSnapshot operator-(const IoSnapshot &before) const;
};

class TimingSource final : public sage::ByteSource
{
  public:
    /** Wrap @p inner; @p archive tags this source's fetch spans. */
    TimingSource(std::unique_ptr<sage::ByteSource> inner,
                 IoCounters &counters, uint32_t archive = 0);

    /**
     * Map from a chunk fetch's lowest extent offset to its chunk id;
     * fetch spans then carry (archive << 32 | chunk) as their tag.
     * Set before the source is shared between threads.
     */
    void setChunkMap(std::unordered_map<uint64_t, uint32_t> map);

    /** Lowest extent offset of the most recent batched read (used to
     *  build the chunk map: decode one chunk, then read this). */
    uint64_t lastBatchOffset() const { return lastBatchOffset_.load(); }

    uint64_t size() const override { return inner_->size(); }
    void readAt(uint64_t offset, void *dst, size_t size) const override;
    const uint8_t *view(uint64_t offset, size_t size) const override;
    void readBatch(const Extent *extents, size_t count) const override;
    sage::Status tryReadAt(uint64_t offset, void *dst,
                           size_t size) const override;
    sage::Status tryReadBatch(const Extent *extents,
                              size_t count) const override;
    std::string describe() const override { return inner_->describe(); }

  private:
    /** Count one call of @p bytes that started at @p start and record
     *  its span, tagged by @p first_offset's chunk when mapped. */
    void account(double start, uint64_t bytes, uint64_t first_offset,
                 bool batch) const;

    std::unique_ptr<sage::ByteSource> inner_;
    IoCounters &counters_;
    uint32_t archive_;
    std::unordered_map<uint64_t, uint32_t> chunkByOffset_;
    mutable std::atomic<uint64_t> lastBatchOffset_{0};
};

class TimingSink final : public sage::ByteSink
{
  public:
    /** Wrap @p inner (must outlive the decorator). */
    TimingSink(sage::ByteSink &inner, IoCounters &counters)
        : inner_(inner), counters_(counters)
    {}

    void write(const void *data, size_t size) override;
    uint64_t tell() const override { return inner_.tell(); }
    void flush() override;

  private:
    sage::ByteSink &inner_;
    IoCounters &counters_;
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_IO_HH
