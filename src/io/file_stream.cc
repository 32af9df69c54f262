#include "io/file_stream.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include "util/logging.hh"

namespace sage {

namespace {

std::string
errnoText()
{
    return std::strerror(errno);
}

/** Transient (EAGAIN/EWOULDBLOCK) retries attempted per operation
 *  before giving up with StatusCode::Exhausted. */
constexpr unsigned kTransientRetryBudget = 8;

/** First backoff sleep; doubles per retry, capped at 1 ms. */
constexpr unsigned kBackoffStartMicros = 50;
constexpr unsigned kBackoffCapMicros = 1000;

} // namespace

FileSource::FileSource(const std::string &path)
    : path_(path)
{
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0)
        sage_fatal("cannot open ", path, " for reading: ", errnoText());
    struct stat st;
    if (::fstat(fd_, &st) != 0)
        sage_fatal("cannot stat ", path, ": ", errnoText());
    size_ = static_cast<uint64_t>(st.st_size);
}

FileSource::~FileSource()
{
    if (fd_ >= 0)
        ::close(fd_);
}

StatusOr<std::unique_ptr<FileSource>>
FileSource::tryOpen(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        return Status::ioError("cannot open ", path,
                               " for reading: ", errnoText());
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        Status status =
            Status::ioError("cannot stat ", path, ": ", errnoText());
        ::close(fd);
        return status;
    }
    if (!S_ISREG(st.st_mode)) {
        ::close(fd);
        return Status::ioError(path, " is not a regular file");
    }
    return std::unique_ptr<FileSource>(new FileSource(
        fd, path, static_cast<uint64_t>(st.st_size)));
}

Status
FileSource::classifyReadError(int err, uint64_t offset,
                              unsigned &transient_left) const
{
    // EINTR: a signal interrupted the syscall before any bytes moved;
    // retry immediately, without touching the transient budget.
    if (err == EINTR)
        return Status();
    // EAGAIN/EWOULDBLOCK: the descriptor is momentarily unready.
    // Never expected of a regular file, but network filesystems and
    // fault injection produce it; back off and retry a bounded number
    // of times before reporting Exhausted.
    if (err == EAGAIN || err == EWOULDBLOCK) {
        if (transient_left == 0) {
            return Status::exhausted(
                "transient read errors exhausted the retry budget (",
                kTransientRetryBudget, ") on ", path_, " at offset ",
                offset);
        }
        const unsigned attempt = kTransientRetryBudget - transient_left;
        transient_left--;
        const unsigned sleep_us = std::min(
            kBackoffCapMicros, kBackoffStartMicros << attempt);
        std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
        return Status();
    }
    return Status::ioError("read error on ", path_, " at offset ",
                           offset, ": ", std::strerror(err));
}

Status
FileSource::tryPreadExact(uint64_t offset, void *dst, size_t size) const
{
    uint8_t *out = static_cast<uint8_t *>(dst);
    unsigned transient_left = kTransientRetryBudget;
    while (size > 0) {
        const ssize_t got = ::pread(fd_, out, size,
                                    static_cast<off_t>(offset));
        if (got < 0) {
            Status status = classifyReadError(errno, offset,
                                              transient_left);
            if (!status.ok())
                return status;
            continue;
        }
        if (got == 0) {
            return Status::truncated("short read on ", path_,
                                     ": wanted ", size,
                                     " more bytes at offset ", offset,
                                     " (file is ", size_, " bytes)");
        }
        out += got;
        offset += static_cast<uint64_t>(got);
        size -= static_cast<size_t>(got);
    }
    return Status();
}

Status
FileSource::tryPreadvExact(uint64_t offset, struct iovec *iov,
                           size_t count) const
{
    unsigned transient_left = kTransientRetryBudget;
    while (count > 0) {
        const ssize_t got = ::preadv(fd_, iov, static_cast<int>(count),
                                     static_cast<off_t>(offset));
        if (got < 0) {
            Status status = classifyReadError(errno, offset,
                                              transient_left);
            if (!status.ok())
                return status;
            continue;
        }
        if (got == 0) {
            return Status::truncated("short read on ", path_,
                                     " at offset ", offset, " (file is ",
                                     size_, " bytes)");
        }
        offset += static_cast<uint64_t>(got);
        size_t left = static_cast<size_t>(got);
        while (count > 0 && left >= iov->iov_len) {
            left -= iov->iov_len;
            iov++;
            count--;
        }
        if (count > 0 && left > 0) {
            iov->iov_base = static_cast<uint8_t *>(iov->iov_base) + left;
            iov->iov_len -= left;
        }
    }
    return Status();
}

Status
FileSource::tryReadBatch(const Extent *extents, size_t count) const
{
    // Gap size below which two extents share one preadv: the skipped
    // bytes are read into a discarded scratch iovec, which beats the
    // latency of another syscall. Matches the read-ahead window size.
    constexpr uint64_t kBatchGapBytes = 64 * 1024;
    // iovec budget per call, comfortably under IOV_MAX (1024).
    constexpr size_t kBatchMaxIovecs = 128;

    std::vector<size_t> order;
    order.reserve(count);
    for (size_t i = 0; i < count; i++) {
        const Extent &e = extents[i];
        if (e.size == 0)
            continue;
        if (e.offset > size_ || e.size > size_ - e.offset) {
            return Status::outOfRange("read past end of ", path_, ": [",
                                      e.offset, ", ", e.offset + e.size,
                                      ") in ", size_, " bytes");
        }
        order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return extents[a].offset < extents[b].offset;
    });

    std::vector<uint8_t> scratch; // Gap landing zone, sized on demand.
    std::vector<struct iovec> iov;
    size_t r = 0;
    while (r < order.size()) {
        // Open a run and extend it while the next extent starts within
        // kBatchGapBytes of the run's end. Overlapping or backwards
        // extents start their own run (the iovec walk is strictly
        // forward).
        iov.clear();
        const uint64_t run_offset = extents[order[r]].offset;
        uint64_t end = run_offset;
        do {
            const Extent &e = extents[order[r]];
            const uint64_t gap = e.offset - end;
            if (gap > 0) {
                if (scratch.empty())
                    scratch.resize(kBatchGapBytes);
                iov.push_back({scratch.data(),
                               static_cast<size_t>(gap)});
            }
            iov.push_back({e.dst, e.size});
            end = e.offset + e.size;
            r++;
        } while (r < order.size() &&
                 iov.size() + 2 <= kBatchMaxIovecs &&
                 extents[order[r]].offset >= end &&
                 extents[order[r]].offset - end <= kBatchGapBytes);

        Status status;
        if (iov.size() == 1) {
            status = tryPreadExact(run_offset, iov[0].iov_base,
                                   iov[0].iov_len);
        } else {
            status = tryPreadvExact(run_offset, iov.data(), iov.size());
        }
        if (!status.ok())
            return status;
    }
    return Status();
}

void
FileSource::readBatch(const Extent *extents, size_t count) const
{
    Status status = tryReadBatch(extents, count);
    if (!status.ok())
        sage_fatal(status.message());
}

Status
FileSource::tryReadAt(uint64_t offset, void *dst, size_t size) const
{
    if (size == 0)
        return Status();
    if (offset > size_ || size > size_ - offset) {
        return Status::outOfRange("read past end of ", path_, ": [",
                                  offset, ", ", offset + size, ") in ",
                                  size_, " bytes");
    }

    // Everything but tiny directory reads bypasses the cache; pread
    // is thread-safe, so concurrent chunk fetches never contend here.
    if (size > kCachedReadBytes)
        return tryPreadExact(offset, dst, size);

    std::lock_guard<std::mutex> lock(mutex_);
    const bool hit = offset >= cacheOffset_ &&
        offset + size <= cacheOffset_ + cache_.size();
    if (!hit) {
        std::vector<uint8_t> window(static_cast<size_t>(
            std::min<uint64_t>(kCacheBytes, size_ - offset)));
        Status status = tryPreadExact(offset, window.data(),
                                      window.size());
        if (!status.ok()) {
            // Leave the old window intact: a failed fill must not
            // poison later reads with stale mappings.
            return status;
        }
        cacheOffset_ = offset;
        cache_ = std::move(window);
    }
    std::memcpy(dst, cache_.data() + (offset - cacheOffset_), size);
    return Status();
}

void
FileSource::readAt(uint64_t offset, void *dst, size_t size) const
{
    Status status = tryReadAt(offset, dst, size);
    if (!status.ok())
        sage_fatal(status.message());
}

FileSink::FileSink(const std::string &path)
    : path_(path)
{
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0)
        sage_fatal("cannot open ", path, " for writing: ", errnoText());
    buffer_.reserve(kBufferBytes);
}

FileSink::~FileSink()
{
    if (fd_ >= 0)
        close();
}

void
FileSink::write(const void *data, size_t size)
{
    sage_assert(fd_ >= 0, "write to closed FileSink: ", path_);
    const uint8_t *bytes = static_cast<const uint8_t *>(data);
    written_ += size;
    // Buffer small appends; spill oversized ones straight through.
    if (buffer_.size() + size <= kBufferBytes) {
        buffer_.insert(buffer_.end(), bytes, bytes + size);
        if (buffer_.size() == kBufferBytes)
            flush();
        return;
    }
    flush();
    writeExact(bytes, size);
}

void
FileSink::writeExact(const uint8_t *bytes, size_t size)
{
    // EINTR retries immediately; EAGAIN/EWOULDBLOCK (pipes, network
    // filesystems) backs off briefly and retries a bounded number of
    // times before dying — a write sink has no recoverable caller yet,
    // so exhaustion stays fatal.
    unsigned transient_left = kTransientRetryBudget;
    while (size > 0) {
        const ssize_t put = ::write(fd_, bytes, size);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            if ((errno == EAGAIN || errno == EWOULDBLOCK) &&
                transient_left > 0) {
                const unsigned attempt =
                    kTransientRetryBudget - transient_left;
                transient_left--;
                const unsigned sleep_us = std::min(
                    kBackoffCapMicros, kBackoffStartMicros << attempt);
                std::this_thread::sleep_for(
                    std::chrono::microseconds(sleep_us));
                continue;
            }
            sage_fatal("write error on ", path_, ": ", errnoText());
        }
        bytes += put;
        size -= static_cast<size_t>(put);
    }
}

void
FileSink::flush()
{
    if (fd_ < 0 || buffer_.empty())
        return;
    writeExact(buffer_.data(), buffer_.size());
    buffer_.clear();
}

void
FileSink::close()
{
    if (fd_ < 0)
        return;
    flush();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0)
        sage_fatal("close error on ", path_, ": ", errnoText());
}

} // namespace sage
