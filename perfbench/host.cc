#include <sched.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cstring>

#include "perfbench.h"

namespace perfbench {

namespace {

/** The CPU brand string, read with CPUID (no file access needed). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
    if (max_leaf < 0x80000004u)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i) {
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    const auto last = model.find_last_not_of(' ');
    return first == std::string::npos ? "unknown"
                                      : model.substr(first, last - first + 1);
#else
    return "unknown";
#endif
}

/** CPUs this process may run on, as nproc(1) counts them. */
unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 0;
    return static_cast<unsigned>(CPU_COUNT(&set));
}

bool
sanitizedBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#else
    return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

} // namespace

HostInfo
probeHost()
{
    HostInfo host;
    host.nproc = usableCpus();
    host.cpu = cpuModel();
    host.compiler = PERFBENCH_COMPILER;
    host.buildType = PERFBENCH_BUILD_TYPE;
    host.sanitized = sanitizedBuild();
    return host;
}

} // namespace perfbench
