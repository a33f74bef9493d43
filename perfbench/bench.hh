/**
 * @file
 * Shared harness of the repository benchmark: command-line arguments,
 * exact percentiles over raw samples, process probes (peak RSS, thread
 * count), the in-memory span tracer of the traced run, and the result
 * record every workload fills.
 *
 * Each workload is one function `Result run<Name>(const Args &)`.  An
 * untraced run (`--trace 0`) reports the end-to-end metrics; a traced
 * run (`--trace 1`) replays the workload's operation sequence with a
 * span around every call into a layer's public function and reports
 * the per-layer metrics.  Every metric name of either kind is listed in
 * kEndToEnd / kPerLayer, and every run prints every name of its kind.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace clare {}

namespace perfbench {

using namespace clare;
using Clock = std::chrono::steady_clock;

/** Microseconds between two steady-clock points. */
inline double
micros(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Seconds since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for persisted stores and WAL files. */
    std::string workDir = ".bench_build/work";
    /** Where the traced run writes its span log. */
    std::string traceDir = ".bench_build/traces";
};

/**
 * Raw latency samples.  Percentiles are order statistics (nearest
 * rank) of the recorded values, never interpolated inside buckets.
 */
class Samples
{
  public:
    void record(double v)
    {
        values_.push_back(v);
        sorted_ = false;
    }
    void append(const Samples &other)
    {
        values_.insert(values_.end(), other.values_.begin(),
                       other.values_.end());
        sorted_ = false;
    }
    std::size_t count() const { return values_.size(); }

    /** Nearest-rank quantile: the ceil(q * n)-th smallest sample. */
    double quantile(double q) const;
    double mean() const;

  private:
    mutable std::vector<double> values_;
    mutable bool sorted_ = false;
};

/**
 * Timed operations of the measured window, reported per window: the
 * run is cut into up to kMaxWindows consecutive windows of at least
 * kMinWindowSamples operations each, every window yields its own
 * quantile or rate, and the result is the median over the windows.  A
 * transient stall on a shared host then moves one window instead of
 * the result.
 */
class Timeline
{
  public:
    static constexpr std::size_t kMaxWindows = 5;
    static constexpr std::size_t kMinWindowSamples = 1000;

    /** An operation that completed @p at seconds into the window. */
    void record(double at, double us) { ops_.push_back({at, us}); }
    void append(const Timeline &other);
    std::size_t count() const { return ops_.size(); }

    /** Median over windows of each window's nearest-rank quantile. */
    double quantile(double q) const;
    /** Median over windows of operations per second. */
    double rate() const;

  private:
    struct Op
    {
        double at;
        double us;
    };
    /** Operations in completion order, split into windows. */
    std::vector<std::vector<Op>> windows() const;

    std::vector<Op> ops_;
};

/** Peak resident set of this process, in MB (getrusage). */
double peakRssMb();
/** Current resident set of this process, in bytes (/proc/self/statm). */
std::uint64_t currentRssBytes();
/** Threads of this process right now (/proc/self/status). */
unsigned threadCount();
/** Online CPUs (nproc). */
unsigned nproc();

/** Order-sensitive 64-bit fold used for the modeled-ticks checksum. */
inline std::uint64_t
foldChecksum(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h * 0x100000001b3ULL;
}

/** Median of a handful of values (set-up repetitions). */
double median(std::vector<double> values);

// ---------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around calls into layers.
// ---------------------------------------------------------------------

/** Per-name totals, kept for every span (the log is capped). */
struct SpanTotals
{
    std::uint64_t calls = 0;
    double totalUs = 0.0;
    double selfUs = 0.0;
};

/**
 * Single-threaded span recorder.  Spans nest through an explicit
 * stack; self time (duration minus the children's durations) is
 * folded into per-name totals as each span closes.  Full records
 * (name, start, end, parent, operation id) are kept only for the first
 * kLoggedOps operations, so a long traced run stays small in memory,
 * and are written as JSON when the run ends.
 */
class Tracer
{
  public:
    static constexpr std::uint64_t kLoggedOps = 16;

    Tracer() : epoch_(Clock::now()) {}

    /** Start operation @p op: spans opened from now on carry its id. */
    void beginOp(std::uint64_t op) { op_ = op; }

    void open(const char *name);
    /** Close the innermost span; returns its duration in us. */
    double close();

    /** Totals of @p name (all zero when no such span closed). */
    SpanTotals totalsOf(const std::string &name) const;

    /** Write the logged spans as one JSON document. */
    bool writeJson(const std::string &path,
                   const std::string &workload) const;

  private:
    struct Open
    {
        std::uint32_t id;
        const char *name;
        std::int64_t startNs;
        double childUs;
    };
    struct Record
    {
        const char *name;
        std::uint64_t op;
        std::uint32_t id;
        std::uint32_t parent; ///< 0 = root of its operation
        std::int64_t startNs;
        std::int64_t endNs;
    };

    std::int64_t nowNs() const;

    Clock::time_point epoch_;
    std::uint64_t op_ = 0;
    std::uint32_t nextId_ = 1;
    std::vector<Open> stack_;
    std::vector<Record> log_;
    std::map<std::string, SpanTotals> totals_;
};

/** RAII span; a null tracer records nothing. */
class Span
{
  public:
    Span(Tracer *tracer, const char *name) : tracer_(tracer)
    {
        if (tracer_ != nullptr)
            tracer_->open(name);
    }
    ~Span()
    {
        if (tracer_ != nullptr)
            tracer_->close();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
};

// ---------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------

/** The end-to-end metrics (untraced run): name, unit. */
extern const std::vector<std::pair<const char *, const char *>> kEndToEnd;
/** The per-layer metrics (traced run): name, unit. */
extern const std::vector<std::pair<const char *, const char *>> kPerLayer;

/** What one invocation reports. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** A check outside the per-operation count failed. */
    bool checkFailed = false;
    /** Metric values by name; units come from kEndToEnd / kPerLayer. */
    std::map<std::string, double> metrics;
    /** Human-readable facts printed as "# key: value" lines. */
    std::vector<std::pair<std::string, std::string>> notes;

    void set(const std::string &name, double value)
    {
        metrics[name] = value;
    }
    void note(const std::string &key, const std::string &value)
    {
        notes.emplace_back(key, value);
    }
    void note(const std::string &key, double value);

    /** A run-level check failed: report it and mark the run incorrect. */
    void fail(const std::string &what);

    bool correct() const { return failed == 0 && !checkFailed; }
};

/** Mean duration in us of the spans named @p name (0 when none). */
double meanSpanUs(const Tracer &tracer, const std::string &name);

/** Print the notes, then the final JSON line; returns the exit code. */
int emit(const Args &args, const Result &result);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
