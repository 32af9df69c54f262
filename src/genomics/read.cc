#include "genomics/read.hh"

namespace sage {

uint64_t
ReadColumns::capacityBytes() const
{
    return headers.capacity() + bases.capacity() + quals.capacity() +
           ends.capacity() * sizeof(Ends);
}

uint64_t
ReadSet::fastqBytes() const
{
    uint64_t total = 0;
    for (const auto &read : reads) {
        total += 1 + read.header.size() + 1;  // '@' + header + '\n'
        total += read.bases.size() + 1;
        total += 2;                           // "+\n"
        total += read.quals.size() + 1;
    }
    return total;
}

} // namespace sage
