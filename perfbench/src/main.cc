/**
 * @file
 * Benchmark program: runs one workload for a fixed time and prints its
 * metrics; the last line of standard output is the result JSON.
 *
 *   perfbench --workload scale-4096|service-mix
 *             --seed N --seconds S --trace 0|1 [--trace-out FILE]
 */

#include <malloc.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "scale-4096|service-mix --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::string workload;
    RunOptions opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            workload = value;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
        } else if (key == "--trace") {
            opt.trace = value == "1";
        } else if (key == "--trace-out") {
            opt.traceFile = value;
        } else {
            return usage("unknown option " + key);
        }
        if (end != nullptr && *end != '\0')
            return usage("malformed value for " + key + ": " + value);
    }
    if (argc % 2 == 0)
        return usage("every option takes a value");
    if (!(opt.seconds > 0 && opt.seconds <= 600))
        return usage("--seconds must be in (0, 600]");

    // Keep freed heap memory in the process. By default glibc returns
    // it to the kernel and the next op faults it back in, a few
    // thousand page faults per 4096-GPU op whose cost on a shared VM
    // moves with the host's load: 10-20% of the op time between runs
    // minutes apart. The allocator's work is still measured.
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    mallopt(M_MMAP_THRESHOLD, 32 << 20); // the largest glibc accepts

    if (workload == "scale-4096")
        runScale4096(opt).print(std::cout, opt.trace);
    else if (workload == "service-mix")
        runServiceMix(opt).print(std::cout, opt.trace);
    else
        return usage("unknown workload '" + workload + "'");
    return 0;
}
