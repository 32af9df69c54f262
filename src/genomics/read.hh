/**
 * @file
 * Read and ReadSet: the central data model of the repository.
 *
 * A Read is one sequenced fragment (bases + optional per-base quality
 * scores + header); a ReadSet is the collection produced from one sample,
 * the unit that gets compressed, stored and analyzed (paper §2.1).
 * ReadColumns stores many reads by field, the form a decoded chunk is
 * cached and served in, and hands them out as ReadViews.
 */

#ifndef SAGE_GENOMICS_READ_HH
#define SAGE_GENOMICS_READ_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace sage {

/** One sequencing read. */
struct Read
{
    std::string header;  ///< FASTQ header line without the leading '@'.
    std::string bases;   ///< A/C/G/T/N characters.
    std::string quals;   ///< Phred+33 ASCII; empty if not recorded.

    size_t length() const { return bases.size(); }
};

/** One read by reference: views of its three fields, valid while the
 *  storage they point into (a ReadColumns, or a Read) is unchanged. */
struct ReadView
{
    std::string_view header;
    std::string_view bases;
    std::string_view quals;

    ReadView() = default;

    ReadView(std::string_view header_bytes, std::string_view base_bytes,
             std::string_view qual_bytes)
        : header(header_bytes), bases(base_bytes), quals(qual_bytes)
    {}

    /** Views of @p read's fields; implicit, as std::string_view is
     *  from std::string. */
    ReadView(const Read &read)
        : header(read.header), bases(read.bases), quals(read.quals)
    {}

    size_t length() const { return bases.size(); }

    /** An owned copy. */
    Read
    toRead() const
    {
        return Read{std::string(header), std::string(bases),
                    std::string(quals)};
    }
};

/**
 * Reads stored by field: every read's header bytes back to back in one
 * arena, its bases in a second and its quality in a third, plus where
 * each read ends in each arena. n reads take four allocations, where
 * n Reads take up to 3n, and they are handed out as ReadViews. The
 * decoder writes a chunk's reads straight into columns
 * (SageDecoder::tryDecodeChunkShared), and the archive service caches
 * and serves decoded chunks in this form.
 */
struct ReadColumns
{
    /** Where one read's bytes end in each arena. */
    struct Ends
    {
        uint64_t header = 0;
        uint64_t bases = 0;
        uint64_t quals = 0;
    };

    /** Walks reads [first, last) of a ReadColumns as ReadViews. */
    class Iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = ReadView;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = ReadView;

        Iterator() = default;
        Iterator(const ReadColumns *columns, size_t index)
            : columns_(columns), index_(index)
        {}

        ReadView operator*() const { return (*columns_)[index_]; }

        Iterator &
        operator++()
        {
            ++index_;
            return *this;
        }

        Iterator
        operator++(int)
        {
            Iterator before = *this;
            ++index_;
            return before;
        }

        bool
        operator==(const Iterator &other) const
        {
            return columns_ == other.columns_ && index_ == other.index_;
        }

        bool
        operator!=(const Iterator &other) const
        {
            return !(*this == other);
        }

      private:
        const ReadColumns *columns_ = nullptr;
        size_t index_ = 0;
    };

    std::string headers;  ///< Header arena.
    std::string bases;    ///< Bases arena.
    std::string quals;    ///< Quality arena.
    /** One entry per read: read i is [ends[i - 1], ends[i]) of each
     *  arena, starting from 0 for read 0. */
    std::vector<Ends> ends;

    size_t size() const { return ends.size(); }
    bool empty() const { return ends.empty(); }

    /** Read @p i (< size()) as views into the arenas. */
    ReadView
    operator[](size_t i) const
    {
        const Ends start = i == 0 ? Ends{} : ends[i - 1];
        const Ends &end = ends[i];
        return ReadView(
            std::string_view(headers.data() + start.header,
                             end.header - start.header),
            std::string_view(bases.data() + start.bases,
                             end.bases - start.bases),
            std::string_view(quals.data() + start.quals,
                             end.quals - start.quals));
    }

    /** Close the last read: the bytes appended to each arena since
     *  the read before it are its fields. */
    void
    endRead()
    {
        ends.push_back(Ends{headers.size(), bases.size(), quals.size()});
    }

    /** Heap bytes held for the reads: the capacity of the three
     *  arenas and of the end table. */
    uint64_t capacityBytes() const;
};

/** Sequencing technology class a read set was produced with. */
enum class Technology : uint8_t {
    ShortAccurate,  ///< Illumina-like: 75-300 bp, ~99.9% accuracy.
    LongNoisy,      ///< Nanopore/PacBio-like: 500 bp-2 Mbp, ~99% accuracy.
};

/** A collection of reads from one sample. */
struct ReadSet
{
    std::string name;
    Technology technology = Technology::ShortAccurate;
    std::vector<Read> reads;

    size_t readCount() const { return reads.size(); }

    /** Total DNA bases across all reads. */
    uint64_t
    totalBases() const
    {
        uint64_t total = 0;
        for (const auto &read : reads)
            total += read.bases.size();
        return total;
    }

    /** True if any read carries quality scores. */
    bool
    hasQualityScores() const
    {
        for (const auto &read : reads) {
            if (!read.quals.empty())
                return true;
        }
        return false;
    }

    /**
     * Uncompressed FASTQ byte size (header + bases + '+' line + quality
     * + newlines), the denominator of every compression ratio we report.
     */
    uint64_t fastqBytes() const;

    /** Uncompressed size of the DNA stream alone (bases + newlines). */
    uint64_t
    dnaBytes() const
    {
        uint64_t total = 0;
        for (const auto &read : reads)
            total += read.bases.size() + 1;
        return total;
    }

    /** Uncompressed size of the quality stream alone. */
    uint64_t
    qualityBytes() const
    {
        uint64_t total = 0;
        for (const auto &read : reads)
            total += read.quals.size() + 1;
        return total;
    }
};

} // namespace sage

#endif // SAGE_GENOMICS_READ_HH
