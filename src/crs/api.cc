#include "crs/api.hh"

#include <cmath>

#include "crs/server.hh"

namespace clare::crs {

json::Value
toJson(const StageBreakdown &breakdown)
{
    json::Value doc = json::Value::object();
    // Only cache-served retrievals carry the cache stage, so a
    // default (cache-off) run's JSON stays byte-stable.
    if (breakdown.cacheTime > 0)
        doc.set("cache_ticks", breakdown.cacheTime);
    doc.set("index_ticks", breakdown.indexTime);
    doc.set("filter_ticks", breakdown.filterTime);
    doc.set("host_unify_ticks", breakdown.hostUnifyTime);
    doc.set("total_ticks", breakdown.serviceTime());
    return doc;
}

namespace {

void
require(bool ok, const char *field, const std::string &why)
{
    if (!ok)
        throw ConfigError(field, why);
}

} // namespace

void
CrsConfig::validate() const
{
    // Host cost model: the per-item costs multiply clause and
    // candidate counts, so a cost above one simulated second is a
    // unit mistake (they are all microsecond-scale) and risks Tick
    // overflow over large predicates.
    require(host.perClause <= kSecond, "host.perClause",
            "per-clause cost above one second — Tick is picoseconds");
    require(host.perOp <= kSecond, "host.perOp",
            "per-op cost above one second — Tick is picoseconds");
    require(host.perCandidateUnify <= kSecond, "host.perCandidateUnify",
            "per-candidate cost above one second — Tick is picoseconds");

    // FS1: the scan rate divides byte counts into busy time — zero or
    // negative rates produce infinite times rather than a clamped
    // fallback.
    require(std::isfinite(fs1.scanRate) && fs1.scanRate > 0,
            "fs1.scanRate", "scan rate must be a positive byte rate");
    require(fs1::kernelSupported(fs1.kernel), "fs1.kernel",
            std::string("kernel '") + fs1::kernelName(fs1.kernel) +
                "' is not supported on this host (use 'auto' to pick "
                "the widest supported one)");

    // FS2: the microprogram is assembled for levels 1-3; the stream
    // needs a non-empty double buffer bank and result slots that fit
    // the result memory.
    require(fs2.level >= 1 && fs2.level <= 3, "fs2.level",
            "matching level must be 1, 2, or 3");
    require(fs2.doubleBufferBank > 0, "fs2.doubleBufferBank",
            "double buffer bank must hold at least one byte");
    require(fs2.resultSlotBytes > 0, "fs2.resultSlotBytes",
            "result slots must hold at least one byte");
    require(fs2.resultSlotBytes <= fs2.resultMemoryBytes,
            "fs2.resultSlotBytes",
            "result slot larger than the result memory");
    require(fs2.sequencerOverhead <= kMillisecond,
            "fs2.sequencerOverhead",
            "per-microinstruction overhead above a millisecond — "
            "Tick is picoseconds");

    // Goal cache: a zero-capacity enabled cache would mean "consult
    // a cache that can never hold anything", so reject the
    // contradiction.  The hit cost is a memory-scale lookup; anything
    // above a simulated second is a unit mistake (Tick is
    // picoseconds).
    if (cache.enabled) {
        require(cache.goalCapacity >= 1, "cache.goalCapacity",
                "an enabled goal cache needs at least one entry");
        require(cache.goalHitCost <= kSecond, "cache.goalHitCost",
                "hit cost above one second — Tick is picoseconds");
    }

    // Fault handling: zero attempts would mean "never read anything";
    // an unbounded retry count turns a permanently bad sector into a
    // hang, so the bound is part of the contract.
    require(retry.maxAttempts >= 1, "retry.maxAttempts",
            "need at least one read attempt per chunk");
    require(retry.maxAttempts <= 64, "retry.maxAttempts",
            "more than 64 retries only hides a dead device");
}

} // namespace clare::crs
