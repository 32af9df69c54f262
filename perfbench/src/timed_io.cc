#include "timed_io.hh"

#include <algorithm>

#include "trace.hh"

namespace perfbench {

namespace {

uint64_t
nanosSince(double start)
{
    return static_cast<uint64_t>((nowSeconds() - start) * 1e9);
}

uint64_t
batchBytes(const sage::ByteSource::Extent *extents, size_t count)
{
    uint64_t total = 0;
    for (size_t i = 0; i < count; ++i)
        total += extents[i].size;
    return total;
}

uint64_t
lowestOffset(const sage::ByteSource::Extent *extents, size_t count)
{
    uint64_t lowest = ~0ull;
    for (size_t i = 0; i < count; ++i) {
        if (extents[i].size != 0)
            lowest = std::min(lowest, extents[i].offset);
    }
    return lowest;
}

} // namespace

IoSnapshot
IoSnapshot::of(const IoCounters &counters)
{
    IoSnapshot snap;
    snap.calls = counters.calls.load();
    snap.bytes = counters.bytes.load();
    snap.seconds = counters.seconds();
    return snap;
}

IoSnapshot
IoSnapshot::operator-(const IoSnapshot &before) const
{
    IoSnapshot delta;
    delta.calls = calls - before.calls;
    delta.bytes = bytes - before.bytes;
    delta.seconds = seconds - before.seconds;
    return delta;
}

TimingSource::TimingSource(std::unique_ptr<sage::ByteSource> inner,
                           IoCounters &counters, uint32_t archive)
    : inner_(std::move(inner)), counters_(counters), archive_(archive)
{
}

void
TimingSource::setChunkMap(std::unordered_map<uint64_t, uint32_t> map)
{
    chunkByOffset_ = std::move(map);
}

void
TimingSource::account(double start, uint64_t bytes, uint64_t first_offset,
                      bool batch) const
{
    counters_.calls.fetch_add(1, std::memory_order_relaxed);
    counters_.bytes.fetch_add(bytes, std::memory_order_relaxed);
    counters_.nanos.fetch_add(nanosSince(start), std::memory_order_relaxed);
    if (batch)
        lastBatchOffset_.store(first_offset, std::memory_order_relaxed);
    if (!Tracer::enabled())
        return;
    uint64_t tag = ~0ull;
    auto found = chunkByOffset_.find(first_offset);
    if (batch && found != chunkByOffset_.end())
        tag = (static_cast<uint64_t>(archive_) << 32) | found->second;
    Tracer::record("io.fetch", start, nowSeconds(), tag);
}

void
TimingSource::readAt(uint64_t offset, void *dst, size_t size) const
{
    const double start = nowSeconds();
    inner_->readAt(offset, dst, size);
    account(start, size, offset, false);
}

const uint8_t *
TimingSource::view(uint64_t offset, size_t size) const
{
    // Zero-copy views move no bytes; FileSource never offers one.
    return inner_->view(offset, size);
}

void
TimingSource::readBatch(const Extent *extents, size_t count) const
{
    const double start = nowSeconds();
    inner_->readBatch(extents, count);
    account(start, batchBytes(extents, count), lowestOffset(extents, count),
            true);
}

sage::Status
TimingSource::tryReadAt(uint64_t offset, void *dst, size_t size) const
{
    const double start = nowSeconds();
    sage::Status status = inner_->tryReadAt(offset, dst, size);
    account(start, size, offset, false);
    return status;
}

sage::Status
TimingSource::tryReadBatch(const Extent *extents, size_t count) const
{
    const double start = nowSeconds();
    sage::Status status = inner_->tryReadBatch(extents, count);
    account(start, batchBytes(extents, count), lowestOffset(extents, count),
            true);
    return status;
}

void
TimingSink::write(const void *data, size_t size)
{
    const double start = nowSeconds();
    inner_.write(data, size);
    counters_.calls.fetch_add(1, std::memory_order_relaxed);
    counters_.bytes.fetch_add(size, std::memory_order_relaxed);
    counters_.nanos.fetch_add(nanosSince(start), std::memory_order_relaxed);
    Tracer::record("io.write", start, nowSeconds());
}

void
TimingSink::flush()
{
    const double start = nowSeconds();
    inner_.flush();
    counters_.nanos.fetch_add(nanosSince(start), std::memory_order_relaxed);
    Tracer::record("io.write", start, nowSeconds());
}

} // namespace perfbench
