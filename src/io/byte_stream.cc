#include "io/byte_stream.hh"

#include <cstring>

#include "util/logging.hh"

namespace sage {

void
ByteSource::readBatch(const Extent *extents, size_t count) const
{
    for (size_t i = 0; i < count; i++) {
        if (extents[i].size > 0)
            readAt(extents[i].offset, extents[i].dst, extents[i].size);
    }
}

Status
ByteSource::tryReadAt(uint64_t offset, void *dst, size_t size) const
{
    if (size == 0)
        return Status();
    const uint64_t total = this->size();
    if (offset > total || size > total - offset) {
        return Status::outOfRange("read past end of ", describe(), ": [",
                                  offset, ", ", offset + size, ") in ",
                                  total, " bytes");
    }
    readAt(offset, dst, size);
    return Status();
}

Status
ByteSource::tryReadBatch(const Extent *extents, size_t count) const
{
    for (size_t i = 0; i < count; i++) {
        if (extents[i].size == 0)
            continue;
        Status status = tryReadAt(extents[i].offset, extents[i].dst,
                                  extents[i].size);
        if (!status.ok())
            return status;
    }
    return Status();
}

Status
ByteSource::tryRead(uint64_t offset, size_t size,
                    std::vector<uint8_t> &out) const
{
    out.resize(size);
    if (size == 0)
        return Status();
    return tryReadAt(offset, out.data(), size);
}

void
MemorySource::readAt(uint64_t offset, void *dst, size_t size) const
{
    if (size == 0)
        return;
    if (offset > size_ || size > size_ - offset) {
        sage_fatal("read past end of ", describe(), ": [", offset, ", ",
                   offset + size, ") in ", size_, " bytes");
    }
    std::memcpy(dst, data_ + offset, size);
}

const uint8_t *
MemorySource::view(uint64_t offset, size_t size) const
{
    if (offset > size_ || size > size_ - offset)
        return nullptr;
    return data_ + offset;
}

void
MemorySink::write(const void *data, size_t size)
{
    const uint8_t *bytes = static_cast<const uint8_t *>(data);
    bytes_.insert(bytes_.end(), bytes, bytes + size);
}

} // namespace sage
