#include "bench.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <thread>

namespace perfbench {

double
Samples::quantile(double q) const
{
    if (values_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(values_.begin(), values_.end());
        sorted_ = true;
    }
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values_.size())));
    rank = std::clamp<std::size_t>(rank, 1, values_.size());
    return values_[rank - 1];
}

double
Samples::mean() const
{
    if (values_.empty())
        return 0.0;
    return std::accumulate(values_.begin(), values_.end(), 0.0) /
        static_cast<double>(values_.size());
}

void
Timeline::append(const Timeline &other)
{
    ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
}

std::vector<std::vector<Timeline::Op>>
Timeline::windows() const
{
    std::vector<Op> ops = ops_;
    std::stable_sort(ops.begin(), ops.end(),
                     [](const Op &a, const Op &b) { return a.at < b.at; });
    const std::size_t k = std::clamp<std::size_t>(
        ops.size() / kMinWindowSamples, 1, kMaxWindows);
    std::vector<std::vector<Op>> out(k);
    for (std::size_t i = 0; i < ops.size(); ++i)
        out[i * k / ops.size()].push_back(ops[i]);
    return out;
}

double
Timeline::quantile(double q) const
{
    if (ops_.empty())
        return 0.0;
    std::vector<double> per_window;
    for (const std::vector<Op> &window : windows()) {
        Samples s;
        for (const Op &op : window)
            s.record(op.us);
        per_window.push_back(s.quantile(q));
    }
    return median(per_window);
}

double
Timeline::rate() const
{
    if (ops_.empty())
        return 0.0;
    std::vector<double> per_window;
    double start = 0.0;
    for (const std::vector<Op> &window : windows()) {
        const double end = window.back().at;
        if (end > start)
            per_window.push_back(static_cast<double>(window.size()) /
                                 (end - start));
        start = end;
    }
    return median(per_window);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB -> MB
}

std::uint64_t
currentRssBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0, resident = 0;
    statm >> size >> resident;
    return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

unsigned
threadCount()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return static_cast<unsigned>(std::stoul(line.substr(8)));
    }
    return 0;
}

unsigned
nproc()
{
    long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n)
                 : std::max(1u, std::thread::hardware_concurrency());
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

void
Tracer::open(const char *name)
{
    stack_.push_back(Open{nextId_++, name, nowNs(), 0.0});
}

double
Tracer::close()
{
    const std::int64_t end = nowNs();
    Open span = stack_.back();
    stack_.pop_back();
    const double dur = static_cast<double>(end - span.startNs) / 1e3;
    SpanTotals &t = totals_[span.name];
    ++t.calls;
    t.totalUs += dur;
    t.selfUs += dur - span.childUs;
    std::uint32_t parent = 0;
    if (!stack_.empty()) {
        stack_.back().childUs += dur;
        parent = stack_.back().id;
    }
    if (op_ < kLoggedOps)
        log_.push_back(Record{span.name, op_, span.id, parent,
                              span.startNs, end});
    return dur;
}

SpanTotals
Tracer::totalsOf(const std::string &name) const
{
    auto it = totals_.find(name);
    return it == totals_.end() ? SpanTotals{} : it->second;
}

bool
Tracer::writeJson(const std::string &path,
                  const std::string &workload) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"workload\": \"" << workload << "\", \"logged_ops\": "
        << kLoggedOps << ", \"spans\": [";
    for (std::size_t i = 0; i < log_.size(); ++i) {
        const Record &r = log_[i];
        out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << r.name
            << "\", \"op\": " << r.op << ", \"id\": " << r.id
            << ", \"parent\": " << r.parent << ", \"start_ns\": "
            << r.startNs << ", \"end_ns\": " << r.endNs << "}";
    }
    out << "\n], \"totals\": {";
    bool first = true;
    for (const auto &[name, t] : totals_) {
        out << (first ? "\n" : ",\n") << "\"" << name
            << "\": {\"calls\": " << t.calls << ", \"total_us\": "
            << t.totalUs << ", \"self_us\": " << t.selfUs << "}";
        first = false;
    }
    out << "\n}}\n";
    return static_cast<bool>(out);
}

double
meanSpanUs(const Tracer &tracer, const std::string &name)
{
    SpanTotals t = tracer.totalsOf(name);
    return t.calls == 0 ? 0.0 : t.totalUs / static_cast<double>(t.calls);
}

// ---------------------------------------------------------------------
// Metric catalog and output
// ---------------------------------------------------------------------

const std::vector<std::pair<const char *, const char *>> kEndToEnd = {
    {"setup_s", "s"},
    {"ops_per_s", "ops/s"},
    {"p50_us", "us"},
    {"p99_us", "us"},
    {"rss_peak_mb", "MB"},
};

const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"crs.serve_us", "us"},
    {"crs.candidates_per_op", "count"},
    {"crs.answers_per_candidate", "ratio"},
    {"crs.mode_share.fs1", "ratio"},
    {"crs.mode_share.two_stage", "ratio"},
    {"crs.mode_share.fs2", "ratio"},
    {"crs.mode_share.software", "ratio"},
    {"crs.cache.hit_ratio", "ratio"},
    {"scw.encode_us", "us"},
    {"fs1.scan_us", "us"},
    {"fs1.entries_per_op", "count"},
    {"fs1.survivors_per_op", "count"},
    {"fs2.search_us", "us"},
    {"fs2.clauses_per_op", "count"},
    {"storage.fetch_us", "us"},
    {"wal.commit_us", "us"},
    {"term.parse_us", "us"},
    {"term.parses_per_op", "count"},
    {"unify.match_us", "us"},
    {"live.publish_us", "us"},
    {"live.bytes_per_commit", "bytes"},
    {"net.codec_us", "us"},
    {"net.hop_us", "us"},
    {"router.hop_us", "us"},
    {"router.failovers", "count"},
    {"kb.retrievals_per_solve", "count"},
    {"kb.steps_per_solve", "count"},
    {"kb.clauses_for_us", "us"},
    {"kb.resolve_self_us", "us"},
    {"loadgen.lag_p99_us", "us"},
    {"trace.overhead", "ratio"},
    {"trace.unattributed_share", "ratio"},
};

void
Result::note(const std::string &key, double value)
{
    std::ostringstream s;
    s.precision(6);
    s << value;
    notes.emplace_back(key, s.str());
}

void
Result::fail(const std::string &what)
{
    checkFailed = true;
    notes.emplace_back("CHECK FAILED", what);
}

namespace {

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
emit(const Args &args, const Result &result)
{
    for (const auto &[key, value] : result.notes)
        std::cout << "# " << key << ": " << value << "\n";

    // A traced run reports the per-layer catalog; a layer the workload
    // does not exercise reads 0 (see perfbench/README.md).
    const auto &catalog = args.trace ? kPerLayer : kEndToEnd;
    std::ostringstream json;
    json << "{\"correct\": " << (result.correct() ? "true" : "false")
         << ", \"attempted\": " << result.attempted
         << ", \"failed\": " << result.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, unit] : catalog) {
        auto it = result.metrics.find(name);
        double value = it == result.metrics.end() ? 0.0 : it->second;
        json << (first ? "" : ", ") << "\"" << name
             << "\": {\"value\": " << jsonNumber(value)
             << ", \"unit\": \"" << unit << "\"}";
        first = false;
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return result.correct() ? 0 : 1;
}

} // namespace perfbench
