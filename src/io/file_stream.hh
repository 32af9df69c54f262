/**
 * @file
 * File-backed ByteSource/ByteSink.
 *
 * FileSource serves random-access reads via pread(2), so a shared
 * source is safe for the chunk-parallel decode path (no shared file
 * offset); a small read-ahead cache keeps the many tiny sequential
 * reads of container-directory parsing cheap. FileSink buffers writes
 * in user space and flushes in large spans. Every failure path is
 * fatal with the offending path in the message — no silent short
 * reads or writes.
 */

#ifndef SAGE_IO_FILE_STREAM_HH
#define SAGE_IO_FILE_STREAM_HH

#include <memory>
#include <mutex>

#include "io/byte_stream.hh"

struct iovec; // <sys/uio.h>; only the .cc needs the definition.

namespace sage {

/** Seekable, buffered, thread-safe reader over a file on disk. */
class FileSource final : public ByteSource
{
  public:
    /** Open @p path; fatal (naming the path) when it cannot be read. */
    explicit FileSource(const std::string &path);
    ~FileSource() override;

    /** Non-fatal open: IoError (naming the path and errno) when the
     *  file cannot be opened or is not a regular file. The server-side
     *  archive-open path uses this — a bad path from a remote client
     *  must produce an error reply, not a crash. */
    static StatusOr<std::unique_ptr<FileSource>>
    tryOpen(const std::string &path);

    FileSource(const FileSource &) = delete;
    FileSource &operator=(const FileSource &) = delete;

    uint64_t size() const override { return size_; }
    void readAt(uint64_t offset, void *dst, size_t size) const override;
    /**
     * Scatter read via preadv(2): extents are sorted by offset and
     * runs whose inter-extent gaps stay below a skip threshold
     * coalesce into one vectored syscall (gap bytes land in a scratch
     * iovec), so fetching a chunk's 13 stream slices costs a few
     * syscalls instead of 13 preads when the slices sit near each
     * other in the container. Distant extents get their own preadv.
     */
    void readBatch(const Extent *extents, size_t count) const override;

    /**
     * Non-fatal reads: OutOfRange past the end, Truncated when the
     * file ends mid-read, IoError on syscall failure, Exhausted when
     * the transient-error retry budget runs out. EINTR is retried
     * immediately and EAGAIN/EWOULDBLOCK with bounded exponential
     * backoff before giving up.
     */
    Status tryReadAt(uint64_t offset, void *dst,
                     size_t size) const override;
    Status tryReadBatch(const Extent *extents,
                        size_t count) const override;

    std::string describe() const override { return path_; }

  private:
    /** Adopt an already-opened descriptor (tryOpen's tail). */
    FileSource(int fd, std::string path, uint64_t size)
        : path_(std::move(path)), fd_(fd), size_(size)
    {}

    /**
     * Only tiny reads (container-directory varints and names) go
     * through the read-ahead window; anything larger — chunk slice
     * fetches in particular — preads directly, so parallel decode
     * workers never contend on the window's mutex and never amplify
     * a few-KB slice fetch into a window fill.
     */
    static constexpr size_t kCachedReadBytes = 512;
    /** Size of the read-ahead window itself. */
    static constexpr size_t kCacheBytes = 64 * 1024;

    /** pread loop directly into @p dst (no cache). */
    Status tryPreadExact(uint64_t offset, void *dst, size_t size) const;

    /** preadv loop filling @p iov completely (mutates the iovecs to
     *  track partial progress). */
    Status tryPreadvExact(uint64_t offset, struct iovec *iov,
                          size_t count) const;

    /** Shared errno handling for the two cores: decide whether to
     *  retry (returns Ok after sleeping) or give up (non-Ok). */
    Status classifyReadError(int err, uint64_t offset,
                             unsigned &transient_left) const;

    std::string path_;
    int fd_ = -1;
    uint64_t size_ = 0;

    // Read-ahead window for small sequential reads (directory walks).
    mutable std::mutex mutex_;
    mutable std::vector<uint8_t> cache_;
    mutable uint64_t cacheOffset_ = 0;
};

/** Buffered writer creating/truncating a file on disk. */
class FileSink final : public ByteSink
{
  public:
    /** Create/truncate @p path; fatal (naming the path) on failure. */
    explicit FileSink(const std::string &path);

    /** Flushes and closes; write errors at destruction are fatal too
     *  (data loss must never be silent). Prefer an explicit close(). */
    ~FileSink() override;

    FileSink(const FileSink &) = delete;
    FileSink &operator=(const FileSink &) = delete;

    void write(const void *data, size_t size) override;
    uint64_t tell() const override { return written_; }
    void flush() override;

    /** Flush and close the file; further writes are a bug. */
    void close();

    const std::string &path() const { return path_; }

  private:
    static constexpr size_t kBufferBytes = 256 * 1024;

    /** write(2) loop with EINTR retry and bounded EAGAIN backoff. */
    void writeExact(const uint8_t *bytes, size_t size);

    std::string path_;
    int fd_ = -1;
    uint64_t written_ = 0;
    std::vector<uint8_t> buffer_;
};

} // namespace sage

#endif // SAGE_IO_FILE_STREAM_HH
