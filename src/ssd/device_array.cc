#include "ssd/device_array.hh"

#include <algorithm>

#include "io/striped.hh"
#include "util/logging.hh"

namespace sage {

SageDeviceArray::SageDeviceArray(unsigned devices, SsdModel model,
                                 SageIntegration integration)
    : integration_(integration)
{
    sage_assert(devices >= 1, "device array needs >= 1 device");
    devices_.reserve(devices);
    for (unsigned d = 0; d < devices; d++)
        devices_.emplace_back(model, integration);
}

SageDevice &
SageDeviceArray::device(unsigned index)
{
    sage_assert(index < devices_.size(), "device index out of range");
    return devices_[index];
}

const SageDevice &
SageDeviceArray::device(unsigned index) const
{
    sage_assert(index < devices_.size(), "device index out of range");
    return devices_[index];
}

uint64_t
SageDeviceArray::stripeBytes() const
{
    return devices_.front().model().config().pageBytes;
}

void
SageDeviceArray::sageWrite(const std::string &name,
                           const SageArchive &archive)
{
    std::vector<std::vector<uint8_t>> shards =
        stripeShards(archive.bytes, devices_.size(), stripeBytes());
    for (size_t d = 0; d < devices_.size(); d++)
        devices_[d].sageWriteShard(name, std::move(shards[d]));
}

SageReadResult
SageDeviceArray::sageRead(const std::string &name, OutputFormat fmt,
                          ThreadPool *pool)
{
    // Fetch each device's shard and reassemble the logical archive
    // through a StripedSource — per-chunk slices then come off the
    // device that holds them, with no host-side reassembly copy.
    std::vector<MemorySource> shards;
    shards.reserve(devices_.size());
    SageReadResult result;
    double nand_seconds = 0.0;
    for (SageDevice &dev : devices_) {
        std::vector<uint8_t> bytes = dev.read(name);
        result.compressedBytes += bytes.size();
        // Devices stream their shards concurrently: the slowest one
        // (they are near-equal by construction) sets the NAND time.
        nand_seconds = std::max(
            nand_seconds, dev.model().internalReadSeconds(bytes.size()));
        shards.emplace_back(std::move(bytes));
    }
    std::vector<const ByteSource *> refs;
    refs.reserve(shards.size());
    for (const MemorySource &shard : shards)
        refs.push_back(&shard);
    const StripedSource striped(std::move(refs), stripeBytes());

    // The shards are fully resident here, so keep the single-device
    // contract: any bit flip dies on the container CRC before a read
    // is produced (SageDevice::sageRead verifies the same way).
    SageReaderOptions options;
    options.dnaOnly = true;
    options.verifyChecksum = true;
    SageReader reader(striped, options);
    result.packedReads = reader.decodeAllPacked(fmt, pool);
    for (const auto &read : result.packedReads)
        result.deliveredBytes += read.size();

    result.nandSeconds = nand_seconds;
    const SsdModel &model = devices_.front().model();
    const uint64_t link_bytes =
        integration_ == SageIntegration::InStorage
            ? result.deliveredBytes : result.compressedBytes;
    // Each device's share crosses its own host link; the links run in
    // parallel, so the per-device share bounds the transfer.
    result.linkSeconds = model.externalTransferSeconds(
        (link_bytes + devices_.size() - 1) / devices_.size());
    return result;
}

uint64_t
SageDeviceArray::fileBytes(const std::string &name) const
{
    uint64_t total = 0;
    for (const SageDevice &dev : devices_)
        total += dev.fileBytes(name);
    return total;
}

void
SageDeviceArray::remove(const std::string &name)
{
    for (SageDevice &dev : devices_)
        dev.remove(name);
}

} // namespace sage
