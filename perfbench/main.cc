/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--work-dir DIR] [--trace-dir DIR]
 *
 * Prints "# key: value" facts, then one JSON line with the keys
 * correct, attempted, failed and metrics.  Exits 1 when any answer was
 * wrong or a check failed, 2 on a usage error.
 */

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hh"
#include "support/errors.hh"
#include "support/logging.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload "
                 "keyed_cold|wire_zipf|ingest_mix|graph_solve "
                 "--seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR] [--trace-dir DIR]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            args.trace = std::strcmp(value, "0") != 0;
        else if (flag == "--work-dir")
            args.workDir = value;
        else if (flag == "--trace-dir")
            args.traceDir = value;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (!(args.seconds > 0.0))
        return usage("--seconds must be positive");

    Result (*run)(const Args &) = nullptr;
    if (args.workload == "keyed_cold")
        run = runKeyedCold;
    else if (args.workload == "wire_zipf")
        run = runWireZipf;
    else if (args.workload == "ingest_mix")
        run = runIngestMix;
    else if (args.workload == "graph_solve")
        run = runGraphSolve;
    else
        return usage(("unknown workload '" + args.workload + "'").c_str());

    clare::setQuiet(true);
    std::filesystem::create_directories(args.workDir);
    std::filesystem::create_directories(args.traceDir);
    try {
        return emit(args, run(args));
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << args.workload << " failed: "
                  << e.what() << "\n";
        return 1;
    }
}
