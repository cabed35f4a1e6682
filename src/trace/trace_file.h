/**
 * @file
 * Binary memory-trace file writer and reader.
 *
 * Lets users capture an emulator run and replay it through different cache
 * configurations (trace-driven simulation) without re-running the
 * emulator. Format: a 16-byte header ("PIMTRACE", version, PE count) then
 * fixed 12-byte little-endian records {addr:u64, op:u8, area:u8, pe:u16}.
 */

#ifndef PIMCACHE_TRACE_TRACE_FILE_H_
#define PIMCACHE_TRACE_TRACE_FILE_H_

#include <cstdio>
#include <string>

#include "trace/ref.h"

namespace pim {

/** Streaming writer for the PIMTRACE format. */
class TraceWriter
{
  public:
    /** Open @p path for writing; fatal on failure. */
    TraceWriter(const std::string& path, std::uint32_t num_pes);
    ~TraceWriter();

    TraceWriter(const TraceWriter&) = delete;
    TraceWriter& operator=(const TraceWriter&) = delete;

    /** Append one reference. */
    void append(const MemRef& ref);

    /** Flush and close; called by the destructor if not already done. */
    void close();

    std::uint64_t recordsWritten() const { return records_; }

  private:
    std::FILE* file_;
    std::uint64_t records_ = 0;
};

/** Streaming reader for the PIMTRACE format. */
class TraceReader
{
  public:
    /** Open @p path; fatal on failure or bad magic. */
    explicit TraceReader(const std::string& path);
    ~TraceReader();

    TraceReader(const TraceReader&) = delete;
    TraceReader& operator=(const TraceReader&) = delete;

    /**
     * Read the next record; fatal if its op, area or PE is out of range.
     * @return false at end of file.
     */
    bool next(MemRef& ref);

    std::uint32_t numPes() const { return numPes_; }

  private:
    std::FILE* file_;
    std::string path_;
    std::uint32_t numPes_ = 0;
    std::uint64_t records_ = 0; ///< Records read so far.
};

} // namespace pim

#endif // PIMCACHE_TRACE_TRACE_FILE_H_
