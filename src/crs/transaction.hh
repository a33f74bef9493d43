/**
 * @file
 * Concurrency control for multi-client access to the CRS.
 *
 * The paper notes the CRS "will also support simultaneous access by
 * multiple clients which involves procedures for concurrency control
 * and transaction handling".  This module provides the classical
 * building blocks: a per-predicate shared/exclusive lock manager with
 * deadlock avoidance by ordered acquisition, and transactions that
 * release everything on commit or abort.
 */

#ifndef CLARE_CRS_TRANSACTION_HH
#define CLARE_CRS_TRANSACTION_HH

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "term/clause.hh"

namespace clare::crs {

/** Client identity. */
using ClientId = std::uint32_t;

/** Lock strength. */
enum class LockKind : std::uint8_t
{
    Shared,     ///< concurrent readers
    Exclusive,  ///< single writer
};

/**
 * Per-predicate shared/exclusive locks.  Non-blocking interface: a
 * client either acquires a lock or is told it must wait; the caller
 * (a scheduler or test harness) decides what to do next.
 */
class LockManager
{
  public:
    /** Try to acquire; returns false on conflict. */
    bool acquire(ClientId client, const term::PredicateId &pred,
                 LockKind kind);

    /** Upgrade a held shared lock to exclusive (fails on conflict). */
    bool upgrade(ClientId client, const term::PredicateId &pred);

    /**
     * Downgrade the client's exclusive lock back to shared (the
     * inverse of a sole-sharer upgrade; used to undo an in-place
     * strengthen when a batched acquisition rolls back).
     */
    void downgrade(ClientId client, const term::PredicateId &pred);

    /** Release one lock (must be held by the client). */
    void release(ClientId client, const term::PredicateId &pred);

    /** Release everything a client holds. */
    void releaseAll(ClientId client);

    /** Does the client hold a lock on the predicate? */
    bool holds(ClientId client, const term::PredicateId &pred) const;

    /** Strength the client holds on the predicate, if any. */
    std::optional<LockKind> heldKind(ClientId client,
                                     const term::PredicateId &pred) const;

    /** Number of clients holding locks on the predicate. */
    std::size_t holders(const term::PredicateId &pred) const;

  private:
    struct Entry
    {
        std::set<ClientId> sharers;
        ClientId exclusiveOwner = 0;
        bool exclusive = false;
    };

    std::map<term::PredicateId, Entry> locks_;
};

/**
 * Receiver of cache-invalidation notices.  The retrieval server
 * implements this: a committed transaction that held a predicate
 * exclusively must flush every cached result derived from it (its
 * goal-cache entries) before readers can observe the commit.
 */
class CacheInvalidationSink
{
  public:
    virtual ~CacheInvalidationSink() = default;

    /** A write to @p pred committed; drop derived cached state. */
    virtual void invalidatePredicate(const term::PredicateId &pred) = 0;
};

/**
 * A transaction: accumulates predicate locks (acquired in a canonical
 * order to avoid deadlock when pre-declared), releases them on commit
 * or abort.
 *
 * When an invalidation sink is attached, commit() notifies it of
 * every predicate this transaction held *exclusively* — while the
 * locks are still held, so no reader can cache a stale result between
 * the invalidation and the release.  abort() never invalidates (an
 * aborted writer published nothing).
 */
class Transaction
{
  public:
    Transaction(LockManager &manager, ClientId client,
                CacheInvalidationSink *sink = nullptr)
        : manager_(manager), client_(client), sink_(sink)
    {}

    Transaction(const Transaction &) = delete;
    Transaction &operator=(const Transaction &) = delete;

    ~Transaction();

    /**
     * Acquire the given predicates (sorted canonically) with one
     * strength.  All-or-nothing: on any conflict, locks acquired by
     * this call are released and false is returned.
     */
    bool acquireAll(std::vector<term::PredicateId> preds, LockKind kind);

    /** Acquire a single lock. */
    bool acquire(const term::PredicateId &pred, LockKind kind);

    /**
     * Upgrade a held shared lock to exclusive.  Succeeds when this
     * transaction is the sole sharer (or already exclusive); fails on
     * any co-sharer.  On success commit() treats the predicate as
     * written (invalidation).
     */
    bool upgrade(const term::PredicateId &pred);

    void commit();
    void abort();

    bool active() const { return active_; }
    ClientId client() const { return client_; }

  private:
    LockManager &manager_;
    ClientId client_;
    CacheInvalidationSink *sink_;
    /**
     * Held locks with the strength they were acquired at — one entry
     * per predicate (re-acquisition records the strongest kind in
     * place; the manager's grants are idempotent).
     */
    std::vector<std::pair<term::PredicateId, LockKind>> held_;
    bool active_ = true;

    void recordHeld(const term::PredicateId &pred, LockKind kind);
    void releaseHeld();
};

} // namespace clare::crs

#endif // CLARE_CRS_TRANSACTION_HH
