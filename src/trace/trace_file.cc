#include "trace/trace_file.h"

#include <cstring>

#include "common/xassert.h"

namespace pim {

namespace {

constexpr char kMagic[8] = {'P', 'I', 'M', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t kVersion = 1;

#pragma pack(push, 1)
struct Record {
    std::uint64_t addr;
    std::uint8_t op;
    std::uint8_t area;
    std::uint16_t pe;
};
#pragma pack(pop)
static_assert(sizeof(Record) == 12);

} // namespace

TraceWriter::TraceWriter(const std::string& path, std::uint32_t num_pes)
    : file_(std::fopen(path.c_str(), "wb"))
{
    if (file_ == nullptr)
        PIM_FATAL("cannot open trace file for writing: ", path);
    std::fwrite(kMagic, 1, sizeof(kMagic), file_);
    std::fwrite(&kVersion, sizeof(kVersion), 1, file_);
    std::fwrite(&num_pes, sizeof(num_pes), 1, file_);
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::append(const MemRef& ref)
{
    PIM_ASSERT(file_ != nullptr, "trace writer already closed");
    Record rec{ref.addr, static_cast<std::uint8_t>(ref.op),
               static_cast<std::uint8_t>(ref.area),
               static_cast<std::uint16_t>(ref.pe)};
    std::fwrite(&rec, sizeof(rec), 1, file_);
    ++records_;
}

void
TraceWriter::close()
{
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

TraceReader::TraceReader(const std::string& path)
    : file_(std::fopen(path.c_str(), "rb")), path_(path)
{
    if (file_ == nullptr)
        PIM_FATAL("cannot open trace file: ", path);
    char magic[8];
    std::uint32_t version = 0;
    if (std::fread(magic, 1, sizeof(magic), file_) != sizeof(magic) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
        PIM_FATAL("not a PIMTRACE file: ", path);
    }
    if (std::fread(&version, sizeof(version), 1, file_) != 1 ||
        version != kVersion) {
        PIM_FATAL("unsupported PIMTRACE version in ", path);
    }
    if (std::fread(&numPes_, sizeof(numPes_), 1, file_) != 1)
        PIM_FATAL("truncated PIMTRACE header in ", path);
}

TraceReader::~TraceReader()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

bool
TraceReader::next(MemRef& ref)
{
    Record rec;
    if (std::fread(&rec, sizeof(rec), 1, file_) != 1)
        return false;
    // The fields index per-op, per-area and per-PE tables downstream.
    if (rec.op >= kNumMemOps || rec.area >= kNumAreaSlots ||
        rec.pe >= numPes_) {
        PIM_FATAL("PIMTRACE record ", records_, " in ", path_,
                  " is out of range: op ", unsigned(rec.op), ", area ",
                  unsigned(rec.area), ", pe ", rec.pe, " (", numPes_,
                  " PEs)");
    }
    ++records_;
    ref.addr = rec.addr;
    ref.op = static_cast<MemOp>(rec.op);
    ref.area = static_cast<Area>(rec.area);
    ref.pe = rec.pe;
    return true;
}

} // namespace pim
