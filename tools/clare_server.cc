/**
 * @file
 * clare_server: one networked Clause Retrieval Server over a persisted
 * store.
 *
 * Prints "listening on PORT" once the socket is bound (an ephemeral
 * port when --port is omitted), then serves until SIGINT/SIGTERM.
 *
 * Usage:
 *   clare_server --store DIR [--port N] [--cache]
 *       [--wal FILE [--ingest FILE] [--ingest-delay-us N]]    (live)
 *       [--fault-seed N --fault-flip R --fault-transient R]   (disk)
 *       [--wire-seed N --wire-drop R --wire-truncate R
 *        --wire-corrupt R --wire-delay R]                     (wire)
 *
 * The disk knobs arm CrsConfig::faults (index/data corruption, the
 * degraded-scan path); the wire knobs arm NetServerConfig::wireFaults
 * (outbound frame drop/truncate/bit-flip/delay).  Both are the
 * deterministic seeded injector, so a cluster with one poisoned
 * backend is a reproducible experiment, not a flaky one.
 *
 * --wal attaches a crs::LiveStore: the store opens CURRENT-aware
 * (crs::openStore), committed WAL records past the manifest watermark
 * replay before serving starts, and a recovery banner reports what was
 * replayed.  --ingest streams clause lines from a file through the
 * live commit path on a background thread (one commit per clause) —
 * the crash-recovery smoke test kills the process mid-stream and
 * checks the reopened store serves exactly the committed prefix.
 *
 * SIGINT/SIGTERM shut down gracefully: stop accepting, drain in-flight
 * connections, finish the current ingest commit, and flush the WAL —
 * so an orchestrator's plain TERM never loses a committed update.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "crs/live_update.hh"
#include "crs/server.hh"
#include "crs/store_io.hh"
#include "net/server.hh"
#include "term/term_reader.hh"

namespace {

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

const char *
value(const char *arg, const char *name)
{
    std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=')
        return arg + n + 1;
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace clare;

    std::string storeDir;
    std::string walPath;
    std::string ingestPath;
    unsigned long ingestDelayUs = 0;
    net::NetServerConfig netConfig;
    crs::CrsConfig crsConfig;
    bool cache = false;
    support::FaultConfig diskFaults;
    bool haveDiskFaults = false;
    support::FaultConfig wireFaults;
    bool haveWireFaults = false;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--store") == 0 && i + 1 < argc)
            storeDir = argv[++i];
        else if (const char *v = value(arg, "--store"))
            storeDir = v;
        else if (const char *v = value(arg, "--port"))
            netConfig.port =
                static_cast<std::uint16_t>(std::strtoul(v, nullptr, 10));
        else if (std::strcmp(arg, "--wal") == 0 && i + 1 < argc)
            walPath = argv[++i];
        else if (const char *v = value(arg, "--wal"))
            walPath = v;
        else if (std::strcmp(arg, "--ingest") == 0 && i + 1 < argc)
            ingestPath = argv[++i];
        else if (const char *v = value(arg, "--ingest"))
            ingestPath = v;
        else if (const char *v = value(arg, "--ingest-delay-us"))
            ingestDelayUs = std::strtoul(v, nullptr, 10);
        else if (std::strcmp(arg, "--cache") == 0)
            cache = true;
        else if (const char *v = value(arg, "--fault-seed")) {
            diskFaults.seed = std::strtoull(v, nullptr, 10);
            haveDiskFaults = true;
        } else if (const char *v = value(arg, "--fault-flip"))
            diskFaults.bitFlipRate = std::strtod(v, nullptr);
        else if (const char *v = value(arg, "--fault-transient"))
            diskFaults.transientReadRate = std::strtod(v, nullptr);
        else if (const char *v = value(arg, "--wire-seed")) {
            wireFaults.seed = std::strtoull(v, nullptr, 10);
            haveWireFaults = true;
        } else if (const char *v = value(arg, "--wire-drop"))
            wireFaults.frameDropRate = std::strtod(v, nullptr);
        else if (const char *v = value(arg, "--wire-truncate"))
            wireFaults.frameTruncateRate = std::strtod(v, nullptr);
        else if (const char *v = value(arg, "--wire-corrupt"))
            wireFaults.frameCorruptRate = std::strtod(v, nullptr);
        else if (const char *v = value(arg, "--wire-delay"))
            wireFaults.frameDelayRate = std::strtod(v, nullptr);
        else {
            std::fprintf(stderr, "unknown argument: %s\n", arg);
            return 2;
        }
    }
    if (storeDir.empty()) {
        std::fprintf(stderr,
                     "usage: clare_server --store DIR [--port N] "
                     "[--cache] [--wal FILE "
                     "[--ingest FILE] [--ingest-delay-us N]] "
                     "[fault knobs]\n");
        return 2;
    }

    try {
        term::SymbolTable symbols;
        crs::StoreWalInfo walInfo;
        crs::PredicateStore store =
            crs::openStore(storeDir, symbols, &walInfo);

        support::FaultInjector diskInjector(diskFaults);
        if (haveDiskFaults)
            crsConfig.faults = &diskInjector;
        crsConfig.cache.enabled = cache;

        crs::ClauseRetrievalServer server(symbols, store, crsConfig);

        std::unique_ptr<crs::LiveStore> live;
        if (!walPath.empty()) {
            live = std::make_unique<crs::LiveStore>(
                store, symbols, walPath, walInfo.appliedLsn);
            live->attachSink(&server);
            std::printf("wal recovered %zu commits (%llu tail bytes "
                        "discarded), head generation %llu\n",
                        live->recoveredCommits(),
                        static_cast<unsigned long long>(
                            live->wal().truncatedBytes()),
                        static_cast<unsigned long long>(
                            store.headGeneration()));
        }

        support::FaultInjector wireInjector(wireFaults);
        if (haveWireFaults)
            netConfig.wireFaults = &wireInjector;

        net::NetServer netServer(symbols, store, server, netConfig);
        netServer.start();
        std::printf("listening on %u\n",
                    static_cast<unsigned>(netServer.port()));
        std::fflush(stdout);

        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);

        // Background ingest: stream clause lines through the live
        // commit path, one durable commit each.  Progress lines let
        // the crash smoke correlate a kill point with the number of
        // commits the recovered store must serve.
        std::thread ingest;
        if (!ingestPath.empty() && live != nullptr) {
            ingest = std::thread([&] {
                try {
                    std::ifstream in(ingestPath);
                    term::TermReader reader(symbols);
                    std::string line;
                    std::size_t n = 0;
                    while (!g_stop.load() && std::getline(in, line)) {
                        if (line.empty())
                            continue;
                        live->assertz(reader.parseClause(line));
                        std::printf("ingested %zu\n", ++n);
                        std::fflush(stdout);
                        if (ingestDelayUs != 0)
                            std::this_thread::sleep_for(
                                std::chrono::microseconds(
                                    ingestDelayUs));
                    }
                    std::printf("ingest done\n");
                    std::fflush(stdout);
                } catch (const Error &e) {
                    std::fprintf(stderr, "ingest: %s\n", e.what());
                }
            });
        }

        while (!g_stop.load())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));

        // Graceful shutdown: drain connections, let the in-flight
        // ingest commit finish, flush the WAL.  Every update a client
        // saw acknowledged is durable when the process exits.
        if (ingest.joinable())
            ingest.join();
        netServer.stop();
        if (live != nullptr)
            live->wal().sync();
        std::printf("shutdown complete\n");
        std::fflush(stdout);
    } catch (const Error &e) {
        std::fprintf(stderr, "clare_server: %s\n", e.what());
        return 1;
    }
    return 0;
}
