#include "layers.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "core/decoder.hh"
#include "io/file_stream.hh"
#include "net/multi_archive.hh"
#include "net/protocol.hh"
#include "trace.hh"
#include "util/crc32.hh"

namespace perfbench {

namespace {

/** Decode @p chunks on decoders opened with @p dna_only; returns the
 *  summed tryDecodeChunkShared time and fills @p fetch / @p open. */
double
timeDecodes(const std::vector<ArchiveTruth> &archives,
            const std::vector<ChunkRef> &chunks, bool dna_only,
            IoSnapshot &fetch, double &open)
{
    IoCounters io;
    std::vector<std::unique_ptr<TimingSource>> sources;
    std::vector<std::unique_ptr<sage::SageDecoder>> decoders;
    open = 0.0;
    for (const ArchiveTruth &archive : archives) {
        sources.push_back(std::make_unique<TimingSource>(
            std::make_unique<sage::FileSource>(archive.path), io));
        const double start = nowSeconds();
        auto decoder = sage::SageDecoder::tryOpen(*sources.back(), dna_only);
        open += nowSeconds() - start;
        if (!decoder.ok())
            return -1.0;
        decoders.push_back(std::move(decoder.value()));
    }
    const IoSnapshot before = IoSnapshot::of(io);
    double seconds = 0.0;
    for (const ChunkRef &ref : chunks) {
        const double start = nowSeconds();
        auto reads = decoders[ref.first]->tryDecodeChunkShared(ref.second);
        seconds += nowSeconds() - start;
        if (!reads.ok())
            return -1.0;
    }
    fetch = IoSnapshot::of(io) - before;
    return seconds;
}

/** A loopback TCP connection with a receiver thread that reads whole
 *  frames (u32 length prefix + body), as net::Client does. */
class Loopback
{
  public:
    Loopback()
    {
        const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listener < 0)
            return;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        socklen_t len = sizeof(addr);
        if (::bind(listener, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) == 0 &&
            ::listen(listener, 1) == 0 &&
            ::getsockname(listener, reinterpret_cast<sockaddr *>(&addr),
                          &len) == 0) {
            tx_ = ::socket(AF_INET, SOCK_STREAM, 0);
            if (tx_ >= 0 &&
                ::connect(tx_, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) == 0)
                rx_ = ::accept(listener, nullptr, nullptr);
        }
        ::close(listener);
        if (rx_ >= 0)
            receiver_ = std::thread([this] { receive(); });
    }

    ~Loopback()
    {
        if (tx_ >= 0)
            ::shutdown(tx_, SHUT_WR);
        if (receiver_.joinable())
            receiver_.join();
        if (tx_ >= 0)
            ::close(tx_);
        if (rx_ >= 0)
            ::close(rx_);
    }

    Loopback(const Loopback &) = delete;
    Loopback &operator=(const Loopback &) = delete;

    bool ok() const { return rx_ >= 0; }

    /** Send @p frame and wait until the receiver has all of it.
     *  Returns the seconds taken, or a negative value on failure. */
    double
    transfer(const std::vector<uint8_t> &frame)
    {
        const double start = nowSeconds();
        size_t sent = 0;
        while (sent < frame.size()) {
            const ssize_t n = ::send(tx_, frame.data() + sent,
                                     frame.size() - sent, MSG_NOSIGNAL);
            if (n <= 0)
                return -1.0;
            sent += static_cast<size_t>(n);
        }
        ++sentFrames_;
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] {
            return receivedFrames_ == sentFrames_ || receiverDone_;
        });
        if (receivedFrames_ != sentFrames_)
            return -1.0;
        return nowSeconds() - start;
    }

  private:
    bool
    recvExact(uint8_t *dst, size_t size)
    {
        size_t have = 0;
        while (have < size) {
            const ssize_t n = ::recv(rx_, dst + have, size - have, 0);
            if (n <= 0)
                return false;
            have += static_cast<size_t>(n);
        }
        return true;
    }

    void
    receive()
    {
        std::vector<uint8_t> body;
        for (;;) {
            uint8_t prefix[sage::net::kLenBytes];
            if (!recvExact(prefix, sizeof(prefix)))
                break;
            uint32_t len = 0;
            std::memcpy(&len, prefix, sizeof(len));  // little-endian host
            body.resize(len);
            if (!recvExact(body.data(), len))
                break;
            std::lock_guard<std::mutex> lock(mutex_);
            ++receivedFrames_;
            cv_.notify_all();
        }
        std::lock_guard<std::mutex> lock(mutex_);
        receiverDone_ = true;
        cv_.notify_all();
    }

    int tx_ = -1;
    int rx_ = -1;
    uint64_t sentFrames_ = 0;  ///< Sender thread only.
    std::mutex mutex_;
    std::condition_variable cv_;
    uint64_t receivedFrames_ = 0;
    bool receiverDone_ = false;
    std::thread receiver_;  ///< Last: joins before the state it uses.
};

} // namespace

DecodeSplit
replayDecode(const std::vector<ArchiveTruth> &archives,
             const std::vector<ChunkRef> &chunks)
{
    DecodeSplit split;
    split.chunks = chunks.size();
    IoSnapshot dna_fetch;
    double dna_open = 0.0;
    const double full =
        timeDecodes(archives, chunks, false, split.fetch, split.openSeconds);
    const double dna = timeDecodes(archives, chunks, true, dna_fetch, dna_open);
    if (full < 0.0 || dna < 0.0)
        return DecodeSplit{};
    split.fullSeconds = full - split.fetch.seconds;
    split.dnaSeconds = dna - dna_fetch.seconds;
    return split;
}

ServePathSplit
replayServePath(sage::MultiArchiveService &service,
                const std::vector<uint32_t> &ids,
                const std::vector<ArchiveTruth> &archives,
                const std::vector<RangeRequest> &sample)
{
    namespace net = sage::net;
    ServePathSplit split;
    Loopback loopback;
    uint64_t request_id = 1;
    for (const RangeRequest &request : sample) {
        ++split.requests;
        double start = nowSeconds();
        auto outcome = service.readRangeSync(ids[request.archive],
                                             request.first, request.count);
        split.assembleSeconds += nowSeconds() - start;
        if (outcome.admission != sage::Admission::Admitted ||
            !outcome.result.ok() ||
            !archives[request.archive].matches(request.first,
                                               outcome.result.reads)) {
            ++split.failed;
            continue;
        }

        std::vector<uint8_t> frame;
        start = nowSeconds();
        net::appendReadReply(frame, net::MsgType::ReadRange, request_id++,
                             outcome.result.reads);
        split.encodeSeconds += nowSeconds() - start;
        split.replyBytes += frame.size();

        const uint8_t *body = frame.data() + net::kLenBytes;
        const size_t framed = frame.size() - net::kLenBytes;
        const size_t unsealed = framed - net::kFrameCrcBytes;
        start = nowSeconds();
        const uint32_t crc = sage::Crc32::of(body, unsealed);
        split.crcSeconds += nowSeconds() - start;
        uint32_t trailer = 0;
        for (size_t i = 0; i < net::kFrameCrcBytes; ++i)
            trailer |= static_cast<uint32_t>(body[unsealed + i]) << (8 * i);

        start = nowSeconds();
        size_t body_size = 0;
        bool parsed =
            net::verifyFrame(body, framed, &body_size) == net::FrameVerdict::Ok;
        if (parsed) {
            auto header = net::parseReplyHeader(body, body_size);
            auto reads = net::parseReadReplyPayload(
                body + net::kReplyHeaderBytes,
                body_size - net::kReplyHeaderBytes);
            parsed = header.ok() && reads.ok() &&
                reads.value().size() == request.count;
        }
        split.parseSeconds += nowSeconds() - start;

        const double wire = loopback.ok() ? loopback.transfer(frame) : -1.0;
        if (!parsed || wire < 0.0 || crc != trailer) {
            ++split.failed;
            continue;
        }
        split.socketSeconds += wire;
    }
    return split;
}

} // namespace perfbench
