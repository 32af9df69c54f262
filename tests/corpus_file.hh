/**
 * @file
 * Committed archives of the fuzz corpus, read from the source tree
 * (SAGE_SOURCE_DIR, set by tests/CMakeLists.txt). Some were written by
 * earlier versions of the encoder and keep their decode covered.
 */

#ifndef SAGE_TESTS_CORPUS_FILE_HH
#define SAGE_TESTS_CORPUS_FILE_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace sage {

/** The bytes of fuzz/corpus/@p name; empty, with a test failure, when
 *  it cannot be read. */
inline std::vector<uint8_t>
corpusFile(const std::string &name)
{
    const std::string path =
        std::string(SAGE_SOURCE_DIR) + "/fuzz/corpus/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

} // namespace sage

#endif // SAGE_TESTS_CORPUS_FILE_HH
