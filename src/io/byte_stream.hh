/**
 * @file
 * ByteSource / ByteSink: the I/O layer the streaming session API
 * (io/session.hh) is built on.
 *
 * A ByteSource is a random-access, read-only byte space; a ByteSink is
 * an append-only byte stream. Decoupling the container walkers
 * (io/container.hh, core/decoder.hh) from any concrete storage lets
 * the same codec run over a resident buffer (MemorySource), a file on
 * disk without loading it (io/file_stream.hh), or a chunk-striped
 * device array (io/striped.hh) — the software analogue of the paper's
 * SAGe_Read/SAGe_Write storage interface (§5.4) and the Fig. 15
 * multi-SSD layout.
 */

#ifndef SAGE_IO_BYTE_STREAM_HH
#define SAGE_IO_BYTE_STREAM_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hh"

namespace sage {

/**
 * Random-access read-only byte space.
 *
 * readAt() must be safe to call concurrently from multiple threads:
 * the chunk-parallel decode path issues per-chunk fetches from worker
 * threads against one shared source.
 */
class ByteSource
{
  public:
    virtual ~ByteSource() = default;

    /** Total bytes in the source. */
    virtual uint64_t size() const = 0;

    /**
     * Copy @p size bytes starting at @p offset into @p dst.
     * Fatal (with describe()) on out-of-range reads or I/O errors —
     * a short read never returns partial data silently.
     */
    virtual void readAt(uint64_t offset, void *dst, size_t size) const = 0;

    /**
     * Zero-copy access: a pointer to @p size contiguous bytes at
     * @p offset valid for the source's lifetime, or nullptr when the
     * source cannot provide one (files, cross-stripe spans). Callers
     * must fall back to readAt().
     */
    virtual const uint8_t *
    view(uint64_t offset, size_t size) const
    {
        (void)offset;
        (void)size;
        return nullptr;
    }

    /** One extent of a batched read: @p size bytes at @p offset into
     *  @p dst. */
    struct Extent
    {
        uint64_t offset = 0;
        void *dst = nullptr;
        size_t size = 0;
    };

    /**
     * Read several extents in one call. Semantically identical to
     * calling readAt() per extent (same fatal-on-error contract, safe
     * for concurrent callers); sources with a cheaper scatter path
     * override it — FileSource coalesces near-adjacent extents into
     * preadv(2) calls, so fetching a chunk's 13 stream slices costs a
     * couple of syscalls instead of 13. Extents may arrive in any
     * order and may be empty.
     */
    virtual void readBatch(const Extent *extents, size_t count) const;

    /**
     * Non-fatal flavor of readAt(): returns Status instead of killing
     * the process, so serving paths can degrade per-request. The
     * default bounds-checks (OutOfRange past the end) and forwards to
     * readAt(); sources with real failure modes (FileSource,
     * StripedSource) override with their own error mapping. Same
     * thread-safety contract as readAt().
     */
    virtual Status tryReadAt(uint64_t offset, void *dst,
                             size_t size) const;

    /**
     * Non-fatal flavor of readBatch(): first failing extent's Status
     * is returned and the remaining extents are left unread (their
     * buffers are unspecified). Overridden alongside readBatch() by
     * sources with a scatter path.
     */
    virtual Status tryReadBatch(const Extent *extents,
                                size_t count) const;

    /** Human-readable identity for error messages (path or kind). */
    virtual std::string describe() const = 0;

    /** Convenience: non-fatal read of a span into @p out (resized). */
    Status tryRead(uint64_t offset, size_t size,
                   std::vector<uint8_t> &out) const;
};

/** Append-only byte stream. */
class ByteSink
{
  public:
    virtual ~ByteSink() = default;

    /** Append @p size bytes. Fatal (with identity) on I/O errors. */
    virtual void write(const void *data, size_t size) = 0;

    /** Bytes written so far. */
    virtual uint64_t tell() const = 0;

    /** Push buffered bytes to the backing store (no-op by default). */
    virtual void flush() {}

    /** Convenience: append a byte vector. */
    void
    writeBytes(const std::vector<uint8_t> &bytes)
    {
        write(bytes.data(), bytes.size());
    }
};

/** ByteSource over a resident buffer (viewed or owned). */
class MemorySource final : public ByteSource
{
  public:
    /** View @p size bytes at @p data (must outlive the source). */
    MemorySource(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {}

    /** View a byte vector (must outlive the source). */
    explicit MemorySource(const std::vector<uint8_t> &bytes)
        : MemorySource(bytes.data(), bytes.size())
    {}

    /** Take ownership of a byte vector. */
    explicit MemorySource(std::vector<uint8_t> &&bytes)
        : owned_(std::move(bytes)), data_(owned_.data()),
          size_(owned_.size())
    {}

    uint64_t size() const override { return size_; }
    void readAt(uint64_t offset, void *dst, size_t size) const override;
    const uint8_t *view(uint64_t offset, size_t size) const override;
    std::string describe() const override { return "<memory>"; }

  private:
    std::vector<uint8_t> owned_;
    const uint8_t *data_;
    size_t size_;
};

/** ByteSink appending to a resident vector. */
class MemorySink final : public ByteSink
{
  public:
    void write(const void *data, size_t size) override;
    uint64_t tell() const override { return bytes_.size(); }

    const std::vector<uint8_t> &bytes() const { return bytes_; }
    std::vector<uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<uint8_t> bytes_;
};

} // namespace sage

#endif // SAGE_IO_BYTE_STREAM_HH
