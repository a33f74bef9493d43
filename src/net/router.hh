/**
 * @file
 * Router: the predicate-sharded front of a multi-backend cluster.
 *
 * Clients speak the same framed protocol to the router they would
 * speak to a single NetServer — the router is transparent.  For each
 * Request it reads the predicate TLV field (never the PIF goal: the
 * goal bytes stay opaque), picks the predicate's replica set, and
 * relays the request payload *verbatim* to one backend, then relays
 * the response payload verbatim back.  Verbatim relay is what makes
 * the exactness contract compose: the bytes the client decodes are the
 * bytes the backend's serve() produced, so answers and modeled
 * StageBreakdown ticks through the router are bit-identical to a
 * single-process serve() on the same store.
 *
 * Sharding and replication: with a ShardCatalog loaded (catalog.hh)
 * the placement is *data* sharding — each backend holds only its
 * slice of the store (crs::saveStoreSlice) and predicate p's replica
 * set is exactly the catalog's `replicas[shardOf(p)]` list, so
 * per-backend memory scales down with the shard count.  Reloading the
 * catalog (reloadCatalog/setCatalog) re-routes on the next lookup,
 * which is how a slice is rebalanced: copy the slice directory to the
 * new backend, edit the catalog, reload.  Without a catalog the
 * legacy policy applies: replicas (hash(p) + i) mod N over backends
 * that each load the full store — a cache-locality routing policy,
 * not a data partition.
 *
 * Batches: a BatchRequest is scattered by predicate — items are
 * grouped per replica set, each group travels to its shard as one
 * sub-batch (issued concurrently across shards), and the item
 * response payloads are gathered back into the original batch order
 * verbatim.  Backends serve a sub-batch through the same serveBatch()
 * front door a local caller uses, so the per-item responses are the
 * ones an unsharded serveBatch() of the same items would produce:
 * serveBatch() serves its items one after another through the
 * per-request path, and all retrieval state is keyed per predicate,
 * so any split that keeps same-predicate items in order is exact (the
 * batch split contract in crs/server.hh).
 *
 * Failover: a replica attempt fails over to the next replica on a
 * transport fault (IoError), a damaged frame (CorruptionError), or an
 * Error frame of code Overloaded/Unavailable/Internal (BadRequest is
 * the client's fault and is relayed, not retried).  A *degraded*
 * response (backend index corruption downgraded the scan) is held and
 * the next replica is tried for a clean one — the degraded answer is
 * returned only when no replica can do better, so one poisoned store
 * in a 3-replica set is invisible to clients except in the counters.
 * The two hunts are counted separately: router.failovers counts
 * attempts after a *failure*, router.degraded_retries counts attempts
 * after a held degraded reply.  When every replica fails, the client
 * gets Error(Unavailable).
 *
 * Health: replicas that fail are marked down and skipped; a dedicated
 * probe thread (its own connections, never the event loop) brings
 * them back, so a hung backend can stall at most the requests routed
 * to it — unrelated client traffic keeps flowing while a probe waits
 * out its timeout.  Load shedding mirrors NetServer: a connection cap
 * at the door plus a per-connection outbound bound.
 *
 * The router owns its MetricsRegistry (router.* counters: relayed,
 * failovers, degraded_retries, degraded_held, unavailable, shed,
 * probes, batches).  The health/admin channel (Health frame) reports
 * backend health and the loaded catalog in one JSON document.
 */

#ifndef CLARE_NET_ROUTER_HH
#define CLARE_NET_ROUTER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/catalog.hh"
#include "net/socket.hh"
#include "net/wire.hh"
#include "support/obs.hh"
#include "term/clause.hh"

namespace clare::net {

/** Router knobs. */
struct RouterConfig
{
    /** Listen port; 0 picks an ephemeral port. */
    std::uint16_t port = 0;

    /** Backend NetServer ports, in shard order. */
    std::vector<std::uint16_t> backendPorts;

    /** Replicas tried per predicate (clamped to the backend count).
     *  Only the hash fallback uses this; a catalog carries its own
     *  replica lists. */
    std::uint32_t replication = 2;

    /** Per-call deadline against one backend. */
    int backendTimeoutMillis = 2000;

    /** Health-probe period (dedicated probe thread). */
    int probeIntervalMillis = 500;

    /** Client-side admission bounds (as in NetServerConfig). */
    std::uint32_t maxConnections = 64;
    std::uint32_t maxOutboundBytes = 4u << 20;

    /** Shard catalog to load at construction ("" = hash routing). */
    std::string catalogPath;
};

/** The predicate-sharding relay. */
class Router
{
  public:
    /**
     * Binds immediately; relays nothing until start().
     * @throws IoError when the port cannot be bound
     * @throws Error on an empty backend list, zero replication, or a
     *         catalog that does not fit the backend list
     */
    explicit Router(RouterConfig config);
    ~Router();

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    std::uint16_t port() const { return listener_.port(); }

    void start();
    void stop();

    /**
     * Replica set of @p pred: the catalog's list when one is loaded
     * (empty when the predicate is not in the catalog — such requests
     * answer Unavailable), the hash policy otherwise.  Exposed for
     * tests.
     */
    std::vector<std::uint32_t>
    replicasOf(const term::PredicateId &pred) const;

    /** Install @p catalog (validated against the backend list). */
    void setCatalog(ShardCatalog catalog);

    /** Reload the catalog from @p path (or the configured path). */
    void reloadCatalog(const std::string &path = "");

    /** The loaded catalog, or nullptr under hash routing. */
    std::shared_ptr<const ShardCatalog> catalog() const;

    obs::MetricsRegistry &metrics() { return metrics_; }
    const obs::MetricsRegistry &metrics() const { return metrics_; }

  private:
    struct Backend
    {
        std::uint16_t port = 0;
        std::string name;
        /** Relay stream: lazy, rebuilt on fault.  Guarded by mutex —
         *  concurrent sub-batches may target the same backend. */
        std::optional<ClientStream> stream;
        std::mutex streamMutex;
        /** Probe stream: touched only by the probe thread. */
        std::optional<ClientStream> probeStream;
        std::atomic<bool> healthy{true};
    };

    struct Connection
    {
        OwnedFd fd;
        std::string peer;
        std::vector<std::uint8_t> inbound;
        std::size_t needed = kFrameHeaderBytes;
        bool readingHeader = true;
        FrameHeader header;
        std::vector<std::uint8_t> outbound;
        std::size_t outboundAt = 0;
    };

    /** What one replica-set relay attempt chain produced. */
    struct GroupOutcome
    {
        enum class Kind { Relayed, BadRequest, Unavailable };
        Kind kind = Kind::Unavailable;
        /** Relayed: per-item response payloads (sub-batch order). */
        std::vector<std::vector<std::uint8_t>> items;
        /** BadRequest: the backend's error payload, relayed verbatim. */
        std::vector<std::uint8_t> errorPayload;
    };

    void run();
    void probeLoop();
    void acceptPending();
    bool readReady(Connection &conn);
    bool writeReady(Connection &conn);
    bool dispatchFrame(Connection &conn,
                       std::vector<std::uint8_t> payload);
    void relayRequest(Connection &conn,
                      const std::vector<std::uint8_t> &payload);
    void relayBatch(Connection &conn,
                    const std::vector<std::uint8_t> &payload);

    /**
     * Relay one sub-batch (or, with a single item, one request) along
     * @p replicas: healthy replicas first, fail over on faults, hold
     * degraded replies while hunting for a clean replica.  Runs on
     * the event loop for single requests and on fan-out threads for
     * concurrent sub-batches (backend streams are mutex-guarded).
     */
    GroupOutcome
    relayToReplicas(const std::vector<std::uint32_t> &replicas,
                    const std::vector<std::vector<std::uint8_t>> &items);

    void probeBackends();
    json::Value healthJson();

    /**
     * One attempt against one backend: send the payload, read one
     * frame.  Throws the typed taxonomy on any failure; marks the
     * backend down on transport/framing faults.
     */
    ReceivedFrame callBackend(Backend &backend, FrameType type,
                              const std::vector<std::uint8_t> &payload);

    void queueFrame(Connection &conn, FrameType type,
                    const std::vector<std::uint8_t> &payload);
    void updateEpoll(Connection &conn);
    void closeConnection(int fd);

    RouterConfig config_;
    Listener listener_;
    OwnedFd epollFd_;
    OwnedFd wakeFd_;
    std::deque<Backend> backends_; ///< deque: Backend is immovable
    std::map<int, Connection> connections_;
    obs::MetricsRegistry metrics_;
    std::thread thread_;
    std::thread probeThread_;
    std::mutex probeMutex_;
    std::condition_variable probeCv_;
    std::atomic<bool> running_{false};

    mutable std::mutex catalogMutex_;
    std::shared_ptr<const ShardCatalog> catalog_;
};

} // namespace clare::net

#endif // CLARE_NET_ROUTER_HH
