/**
 * @file
 * Shared helpers for the benchmark harnesses: program-to-store
 * compilation, formatting, and machine-readable JSON export
 * (`--json <path>` on every harness).
 */

#ifndef CLARE_BENCH_BENCH_UTIL_HH
#define CLARE_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "crs/server.hh"
#include "crs/store.hh"
#include "support/fault_injector.hh"
#include "support/json.hh"
#include "support/obs.hh"
#include "term/clause.hh"
#include "term/symbol_table.hh"

namespace clare::bench {

/** A compiled store plus its server, owned together. */
struct CompiledStore
{
    std::unique_ptr<crs::PredicateStore> store;
    std::unique_ptr<crs::ClauseRetrievalServer> server;
};

/** Compile a program into a predicate store and bring up a CRS. */
inline CompiledStore
compileStore(term::SymbolTable &symbols, const term::Program &program,
             scw::ScwConfig scw_config = {},
             crs::CrsConfig crs_config = {})
{
    CompiledStore out;
    out.store = std::make_unique<crs::PredicateStore>(
        symbols, scw::CodewordGenerator(scw_config));
    out.store->addProgram(program);
    out.store->finalize();
    out.server = std::make_unique<crs::ClauseRetrievalServer>(
        symbols, *out.store, crs_config);
    return out;
}

/** One goal through the unified front door. */
inline crs::RetrievalResponse
serveOne(crs::ClauseRetrievalServer &server, const term::TermArena &arena,
         term::TermRef goal, std::optional<crs::SearchMode> mode = {})
{
    crs::RetrievalRequest request;
    request.arena = &arena;
    request.goal = goal;
    request.mode = mode;
    return server.serve(request);
}

/** "12.34 ms" style human duration from ticks. */
inline std::string
formatTime(Tick t)
{
    char buf[64];
    double ns = static_cast<double>(t) / kNanosecond;
    if (ns < 1e3)
        std::snprintf(buf, sizeof(buf), "%.0f ns", ns);
    else if (ns < 1e6)
        std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
    else if (ns < 1e9)
        std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
    else
        std::snprintf(buf, sizeof(buf), "%.3f s", ns / 1e9);
    return buf;
}

/** "4.25 MB/s" from a bytes-per-second rate. */
inline std::string
formatRate(double bytes_per_second)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f MB/s", bytes_per_second / 1e6);
    return buf;
}

/**
 * Parse `--json <path>` / `--json=<path>` from the harness command
 * line; empty string when absent.  Unknown arguments are ignored so
 * harness-specific flags can coexist.
 */
inline std::string
jsonPathArg(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            return argv[i + 1];
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            return argv[i] + 7;
    }
    return "";
}

/**
 * Parse the optional fault-injection knobs: `--fault-seed=N` arms the
 * deterministic injector, and `--fault-flip=R` / `--fault-transient=R`
 * / `--fault-delay=R` set the per-chunk fault rates (in [0,1]).
 * Returns nullopt unless --fault-seed was given, so a default run is
 * bit-identical to a fault-free build.
 */
inline std::optional<support::FaultConfig>
faultConfigArg(int argc, char **argv)
{
    std::optional<support::FaultConfig> config;
    auto value = [](const char *arg, const char *name) -> const char * {
        std::size_t n = std::strlen(name);
        if (std::strncmp(arg, name, n) == 0 && arg[n] == '=')
            return arg + n + 1;
        return nullptr;
    };
    double flip = 0, transient = 0, delay = 0;
    for (int i = 1; i < argc; ++i) {
        if (const char *v = value(argv[i], "--fault-seed")) {
            if (!config)
                config.emplace();
            config->seed = std::strtoull(v, nullptr, 10);
        } else if (const char *v = value(argv[i], "--fault-flip")) {
            flip = std::strtod(v, nullptr);
        } else if (const char *v = value(argv[i], "--fault-transient")) {
            transient = std::strtod(v, nullptr);
        } else if (const char *v = value(argv[i], "--fault-delay")) {
            delay = std::strtod(v, nullptr);
        }
    }
    if (config) {
        config->bitFlipRate = flip;
        config->transientReadRate = transient;
        config->delayRate = delay;
    }
    return config;
}

/**
 * Parsed `--cache-*` knobs shared by the bench harnesses.  Absent
 * flags leave everything disabled, so a default run is bit-identical
 * to a cache-free build.
 */
struct CacheKnobs
{
    /** `--cache`: enable the goal cache at the server defaults. */
    bool enabled = false;
    /** `--cache-l3=N`: goal-cache capacity (entries; implies on). */
    std::uint32_t l3Capacity = 0;
    /** `--cache-bypass`: set bypassCache on every request served. */
    bool bypass = false;

    /** Fold the knobs into a server config. */
    void
    apply(crs::CrsConfig &config) const
    {
        config.cache.enabled = enabled;
        if (l3Capacity > 0)
            config.cache.goalCapacity = l3Capacity;
    }
};

/**
 * Parse the goal-cache knobs: `--cache` enables the server's goal
 * cache at its defaults, `--cache-l3=N` sizes it (implies `--cache`),
 * and `--cache-bypass` serves every request with bypassCache set.
 */
inline CacheKnobs
cacheConfigArg(int argc, char **argv)
{
    CacheKnobs knobs;
    auto value = [](const char *arg, const char *name) -> const char * {
        std::size_t n = std::strlen(name);
        if (std::strncmp(arg, name, n) == 0 && arg[n] == '=')
            return arg + n + 1;
        return nullptr;
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--cache") == 0) {
            knobs.enabled = true;
        } else if (const char *v = value(argv[i], "--cache-l3")) {
            knobs.l3Capacity = static_cast<std::uint32_t>(
                std::strtoul(v, nullptr, 10));
            knobs.enabled = true;
        } else if (std::strcmp(argv[i], "--cache-bypass") == 0) {
            knobs.bypass = true;
        }
    }
    return knobs;
}

/** One retrieval as a JSON row (shared shape across harnesses). */
inline json::Value
responseJson(const crs::RetrievalResponse &r)
{
    json::Value row = json::Value::object();
    row.set("mode", crs::searchModeSlug(r.mode));
    row.set("candidates", static_cast<std::uint64_t>(r.candidates.size()));
    row.set("answers", static_cast<std::uint64_t>(r.answers.size()));
    row.set("false_drop_rate", r.falseDropRate());
    row.set("elapsed_ticks", r.elapsed);
    row.set("breakdown", crs::toJson(r.breakdown));
    return row;
}

/**
 * Write the harness's machine-readable output: the per-experiment
 * results plus the server's cumulative metrics (and spans, when any
 * were traced).  No-op when @p path is empty.
 */
inline bool
writeBenchJson(const std::string &path, const std::string &bench,
               json::Value results,
               const crs::ClauseRetrievalServer *server = nullptr)
{
    if (path.empty())
        return true;
    json::Value doc = json::Value::object();
    doc.set("bench", bench);
    doc.set("results", std::move(results));
    if (server != nullptr) {
        doc.set("metrics", obs::metricsJson(server->metrics()));
        if (server->tracer().spanCount() > 0)
            doc.set("spans", obs::spansJson(server->tracer()));
    }
    return obs::writeFile(path, doc.dump(2) + "\n");
}

} // namespace clare::bench

#endif // CLARE_BENCH_BENCH_UTIL_HH
