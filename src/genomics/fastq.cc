#include "genomics/fastq.hh"

#include <algorithm>
#include <fstream>
#include <memory>

#include "genomics/kernels.hh"
#include "io/file_stream.hh"
#include "util/logging.hh"

namespace sage {

std::string
toFastq(const ReadSet &rs)
{
    std::string out;
    out.reserve(rs.fastqBytes());
    for (const auto &read : rs.reads) {
        out.push_back('@');
        out.append(read.header);
        out.push_back('\n');
        out.append(read.bases);
        out.push_back('\n');
        out.append("+\n");
        out.append(read.quals);
        out.push_back('\n');
    }
    return out;
}

ReadSet
fromFastq(std::string_view text, const std::string &name)
{
    ReadSet rs;
    rs.name = name;

    size_t pos = 0;
    auto next_line = [&](std::string_view &line) -> bool {
        if (pos >= text.size())
            return false;
        size_t end = text.find('\n', pos);
        if (end == std::string_view::npos)
            end = text.size();
        line = text.substr(pos, end - pos);
        // CRLF input: the '\r' is line framing, not data — without
        // this it would land in the stored bases/quals (and trip the
        // base-character guard below).
        if (!line.empty() && line.back() == '\r')
            line.remove_suffix(1);
        pos = end + 1;
        return true;
    };

    std::string_view header, bases, plus, quals;
    while (next_line(header)) {
        if (header.empty())
            continue;
        const size_t record_start = static_cast<size_t>(
            header.data() - text.data());
        if (header[0] != '@')
            sage_fatal("FASTQ record does not start with '@': ", header);
        if (!next_line(bases) || !next_line(plus) || !next_line(quals))
            sage_fatal("truncated FASTQ record: ", header);
        if (plus.empty() || plus[0] != '+')
            sage_fatal("FASTQ separator line missing '+': ", plus);
        if (!quals.empty() && quals.size() != bases.size()) {
            sage_fatal("FASTQ quality length ", quals.size(),
                       " != base length ", bases.size());
        }
        // Bulk-validate the sequence line (table-driven scan): binary
        // garbage and control characters die here with the record
        // named, instead of silently becoming N bases later.
        const size_t bad =
            kernels::findInvalidBase(bases.data(), bases.size());
        if (bad < bases.size()) {
            sage_fatal("FASTQ record ", header, ": invalid base ",
                       "character (byte value ",
                       static_cast<unsigned>(
                           static_cast<uint8_t>(bases[bad])),
                       ") at position ", bad);
        }
        // Size the record vector from the first record's length, but
        // reserve no more bytes of records than the text holds: a short
        // first record must not over-commit memory for a large file.
        if (rs.reads.empty()) {
            rs.reads.reserve(std::min(text.size() / (pos - record_start),
                                      text.size() / sizeof(Read)) + 1);
        }
        Read read;
        read.header = std::string(header.substr(1));
        read.bases = std::string(bases);
        read.quals = std::string(quals);
        rs.reads.push_back(std::move(read));
    }
    return rs;
}

void
writeFastqFile(const ReadSet &rs, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        sage_fatal("cannot open for writing: ", path);
    const std::string text = toFastq(rs);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

ReadSet
readFastqFile(const std::string &path)
{
    // FileSource reports every failure mode — missing file, I/O error,
    // short read — fatally with the offending path; the old ifstream
    // slurp silently truncated on read errors. The read overwrites the
    // whole buffer, so it is left uninitialised rather than zero-filled.
    const FileSource source(path);
    const auto size = static_cast<size_t>(source.size());
    const std::unique_ptr<char[]> text(new char[size]);
    source.readAt(0, text.get(), size);
    return fromFastq(std::string_view(text.get(), size), path);
}

} // namespace sage
