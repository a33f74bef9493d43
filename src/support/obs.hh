/**
 * @file
 * Pipeline observability: a lightweight span tracer, a metrics
 * registry, and JSON/CSV exporters.
 *
 * The retrieval pipeline is instrumented at every layer — FS1 plane
 * scans, FS2 streams and double-buffer fills, disk transfers, host
 * unification, and per-query roots in the CRS — and this module is
 * the common substrate:
 *
 *  - Spans are RAII-scoped (ScopedSpan) and dual-clocked: wall time is
 *    measured on the host's steady clock, simulated time is attached
 *    by the component that computed it (the pipeline's Tick model is
 *    analytic, not sampled).  Parents nest implicitly through a
 *    thread-local current span, or explicitly by id for work handed
 *    to another thread.
 *
 *  - Metrics are registered by name: monotonically increasing
 *    counters, last-value gauges, and fixed-bucket histograms.  All
 *    updates are lock-free atomics so engines shared by concurrent
 *    serve() callers can account concurrently; registration takes
 *    a registry lock and returns references that stay valid for the
 *    registry's lifetime.
 *
 *  - Exporters render a registry and/or tracer as a json::Value tree
 *    (machine-diffable bench output) or CSV rows.
 *
 * Producers receive an Observer — a {tracer, metrics} pointer pair —
 * and must accept a null tracer (tracing is per-request opt-in) and a
 * null metrics registry (standalone engine use).
 */

#ifndef CLARE_SUPPORT_OBS_HH
#define CLARE_SUPPORT_OBS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "support/json.hh"
#include "support/sim_time.hh"

namespace clare::obs {

/** Span identifier; 0 means "no span". */
using SpanId = std::uint64_t;

/** Attribute payload attached to a span. */
using AttrValue =
    std::variant<std::uint64_t, std::int64_t, double, std::string>;

struct SpanAttr
{
    std::string key;
    AttrValue value;
};

/** A finished span as stored by the tracer. */
struct SpanRecord
{
    SpanId id = 0;
    SpanId parent = 0;
    std::string name;
    /** Wall-clock start, ns since the tracer's epoch. */
    std::uint64_t wallStartNs = 0;
    /** Wall-clock duration in ns. */
    std::uint64_t wallNs = 0;
    /** Simulated duration attached by the producer (0 if none). */
    Tick simTicks = 0;
    std::vector<SpanAttr> attrs;
};

/**
 * Collects finished spans.  Allocation of ids and appending records
 * are thread-safe; one tracer serves the whole retrieval pipeline.
 */
class Tracer
{
  public:
    Tracer() : epoch_(std::chrono::steady_clock::now()) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Reserve the next span id. */
    SpanId
    allocate()
    {
        return next_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Append a finished span. */
    void record(SpanRecord rec);

    /** Copy of every finished span, in completion order. */
    std::vector<SpanRecord> snapshot() const;

    std::size_t spanCount() const;

    /** Drop all recorded spans (ids keep increasing). */
    void clear();

    /** Nanoseconds of wall time since this tracer was constructed. */
    std::uint64_t sinceEpochNs() const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::atomic<SpanId> next_{1};
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/** The calling thread's innermost open span (0 outside any span). */
SpanId currentSpan();

/**
 * RAII span.  A default-constructed or null-tracer span is inert and
 * costs a few branches; an active span measures wall time from
 * construction to finish()/destruction and records itself into the
 * tracer.  While open it is the thread's current span, so same-thread
 * children nest under it automatically.
 */
class ScopedSpan
{
  public:
    ScopedSpan() = default;

    /**
     * Open a span whose parent is the thread's current span.  The name
     * is copied only when the span is active, so an inert span over a
     * static name never allocates.
     */
    ScopedSpan(Tracer *tracer, std::string_view name);

    /** Open a span under an explicit parent (0 for a root). */
    ScopedSpan(Tracer *tracer, std::string_view name, SpanId parent);

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan() { finish(); }

    bool active() const { return open_; }

    /** This span's id (0 when inert). */
    SpanId id() const { return rec_.id; }

    /** Attach simulated duration. */
    void addSimTicks(Tick t) { rec_.simTicks += t; }
    void setSimTicks(Tick t) { rec_.simTicks = t; }

    /** Attach an attribute (no-op when inert). */
    ScopedSpan &attr(std::string_view key, AttrValue value);

    /**
     * Attach a string attribute, built only when the span is active
     * (an AttrValue argument would build its string either way).
     */
    ScopedSpan &attr(std::string_view key, const char *value);

    /** Close and record the span now (idempotent). */
    void finish();

  private:
    void open(Tracer *tracer, std::string_view name, SpanId parent);

    Tracer *tracer_ = nullptr;
    bool open_ = false;
    SpanRecord rec_;
    SpanId prevCurrent_ = 0;
};

// ---------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------

/** A monotonically increasing counter (relaxed atomic). */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    Counter &
    operator+=(std::uint64_t n)
    {
        add(n);
        return *this;
    }

    Counter &
    operator++()
    {
        add(1);
        return *this;
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** A last-value gauge. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { set(0.0); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * A fixed-bucket histogram.  Bucket i counts samples <= bounds[i]
 * (bounds ascending); one extra overflow bucket counts the rest.
 * record() is lock-free.
 */
class Histogram
{
  public:
    /** @param bounds ascending bucket upper bounds (may be empty) */
    explicit Histogram(std::vector<double> bounds);

    void record(double v);

    const std::vector<double> &bounds() const { return bounds_; }

    /** Bucket count including the overflow bucket. */
    std::size_t buckets() const { return counts_.size(); }

    std::uint64_t bucketCount(std::size_t i) const;

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double sum() const;

    void reset();

    /**
     * Geometric bucket bounds: first, first*factor, ... (n values).
     * The default metrics use these for latency distributions.
     */
    static std::vector<double> exponential(double first, double factor,
                                           std::size_t n);

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> counts_;
    std::atomic<std::uint64_t> count_{0};
    /** Sum of samples, stored as a double bit pattern (CAS updates). */
    std::atomic<std::uint64_t> sumBits_{0};
};

/**
 * Estimated value at quantile @p q in [0, 1] (0.5 = median, 0.99 =
 * p99) from the histogram's bucket counts, linearly interpolated
 * inside the containing bucket.  Samples landing in the overflow
 * bucket pin the estimate to the last finite bound — pick bounds that
 * cover the tail you care about.  Returns 0 for an empty histogram.
 */
double histogramPercentile(const Histogram &h, double q);

/**
 * A named collection of metrics.  Registration returns references
 * valid for the registry's lifetime; looking up an existing name
 * returns the same instrument.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Counter &counter(const std::string &name,
                     const std::string &desc = "");
    Gauge &gauge(const std::string &name, const std::string &desc = "");
    /** @p bounds is used only when the histogram is first created. */
    Histogram &histogram(const std::string &name,
                         std::vector<double> bounds,
                         const std::string &desc = "");

    /** Zero every instrument (registrations persist). */
    void reset();

    // Read-side snapshots, in registration order.
    struct CounterView
    {
        std::string name, desc;
        std::uint64_t value;
    };
    struct GaugeView
    {
        std::string name, desc;
        double value;
    };
    struct HistogramView
    {
        std::string name, desc;
        std::vector<double> bounds;
        std::vector<std::uint64_t> counts;
        std::uint64_t count;
        double sum;
    };

    std::vector<CounterView> counters() const;
    std::vector<GaugeView> gauges() const;
    std::vector<HistogramView> histograms() const;

  private:
    template <typename T> struct Entry
    {
        std::string name, desc;
        std::unique_ptr<T> instrument;
    };

    mutable std::mutex mutex_;
    std::vector<Entry<Counter>> counters_;
    std::vector<Entry<Gauge>> gauges_;
    std::vector<Entry<Histogram>> histograms_;
};

// ---------------------------------------------------------------------
// The producer-facing handle and the exporters.
// ---------------------------------------------------------------------

/**
 * What instrumented components receive: both pointers optional.  A
 * null tracer disables spans (per-request opt-in); a null registry
 * disables metrics (standalone engine use).
 */
struct Observer
{
    Tracer *tracer = nullptr;
    MetricsRegistry *metrics = nullptr;

    bool tracing() const { return tracer != nullptr; }
};

/** Render a registry as {"counters": [...], "gauges": ..., ...}. */
json::Value metricsJson(const MetricsRegistry &metrics);

/** Render a tracer's spans as an array of span objects. */
json::Value spansJson(const Tracer &tracer);

/** Combined export; either argument may be null. */
json::Value exportJson(const MetricsRegistry *metrics,
                       const Tracer *tracer);

/** "kind,name,value" CSV rows (histogram buckets flattened). */
std::string metricsCsv(const MetricsRegistry &metrics);

/** Write a string to a file; false (with a warning) on failure. */
bool writeFile(const std::string &path, const std::string &content);

} // namespace clare::obs

#endif // CLARE_SUPPORT_OBS_HH
