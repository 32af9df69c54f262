/**
 * @file
 * One block of a host stream that decodes the first time a read needs
 * it and then stays resident (paper §5.1.5: headers and quality stay
 * off the data-preparation path until something asks for them). The
 * quality store's blocks and the header store's share it.
 */

#ifndef SAGE_COMPRESS_LAZY_BLOCK_HH
#define SAGE_COMPRESS_LAZY_BLOCK_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace sage {

/**
 * A stored block and, once decoded, its decoded form. get() is safe
 * from any number of threads: the block decodes once, under its own
 * lock, and concurrent first readers wait for that one decode. A
 * decode that throws stores nothing, so the next reader retries.
 */
template <typename Decoded>
class LazyBlock
{
  public:
    /** The block's stored bytes, in the stream its store keeps. */
    const uint8_t *payload = nullptr;
    size_t size = 0;

    /** The block as @p decode(payload, size) returns it, decoded on
     *  first use. */
    template <typename Decode>
    const Decoded &
    get(const Decode &decode) const
    {
        if (!ready_.load(std::memory_order_acquire)) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!ready_.load(std::memory_order_relaxed)) {
                // Assigned only once the decode returns: a throw leaves
                // the block empty and not ready.
                decoded_ = decode(payload, size);
                ready_.store(true, std::memory_order_release);
            }
        }
        return decoded_;
    }

  private:
    mutable std::mutex mutex_;
    mutable std::atomic<bool> ready_{false};
    mutable Decoded decoded_;
};

} // namespace sage

#endif // SAGE_COMPRESS_LAZY_BLOCK_HH
