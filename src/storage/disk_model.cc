#include "storage/disk_model.hh"

#include <algorithm>

#include "support/errors.hh"
#include "support/logging.hh"

namespace clare::storage {

DiskGeometry
DiskGeometry::micropolis1325()
{
    DiskGeometry g;
    g.name = "Micropolis 1325 (SCSI)";
    g.bytesPerSector = 512;
    g.sectorsPerTrack = 64;
    g.rpm = 3600;
    g.averageSeek = 28 * kMillisecond;
    g.transferRate = 1.0e6;     // SCSI-era sustained rate, ~1 MB/s
    return g;
}

DiskGeometry
DiskGeometry::fujitsuM2351A()
{
    DiskGeometry g;
    g.name = "Fujitsu M2351A (SMD)";
    g.bytesPerSector = 512;
    g.sectorsPerTrack = 64;
    g.rpm = 3961;
    g.averageSeek = 18 * kMillisecond;
    g.transferRate = 2.0e6;     // the paper's "circa 2 Mbytes/second"
    return g;
}

DiskModel::DiskModel(DiskGeometry geometry)
    : geometry_(std::move(geometry))
{
    clare_assert(geometry_.transferRate > 0, "transfer rate must be > 0");
}

void
DiskModel::load(std::vector<std::uint8_t> image)
{
    image_ = std::move(image);
    extent_ = image_.size();
}

void
DiskModel::setExtent(std::uint64_t bytes)
{
    image_ = {};
    extent_ = bytes;
}

Tick
DiskModel::accessTime() const
{
    // Half a rotation of latency on average.  Synthetic zero-rpm
    // geometries (e.g. a memory-backed feed) have no rotational
    // latency at all.
    if (geometry_.rpm == 0)
        return geometry_.averageSeek;
    double rotation_s = 60.0 / geometry_.rpm;
    Tick half_rotation = static_cast<Tick>(rotation_s / 2.0 * kSecond);
    return geometry_.averageSeek + half_rotation;
}

Tick
DiskModel::transferTime(std::uint64_t bytes) const
{
    double seconds = static_cast<double>(bytes) / geometry_.transferRate;
    return static_cast<Tick>(seconds * kSecond);
}

ReadTiming
DiskModel::modelRead(std::uint64_t length) const
{
    if (length == 0)
        return {};
    return {accessTime(), transferTime(length)};
}

Tick
DiskModel::stream(std::uint64_t offset, std::uint64_t length,
                  std::uint32_t chunk_bytes, Tick start,
                  const std::function<void(const std::uint8_t *,
                                           std::uint32_t, Tick)> &sink,
                  const obs::Observer &obs, obs::SpanId parent,
                  const support::FaultInjector *faults,
                  RetryPolicy retry, std::string_view site) const
{
    clare_assert(chunk_bytes > 0, "chunk size must be positive");
    clare_assert(retry.maxAttempts >= 1,
                 "need at least one read attempt per chunk");
    if (length == 0)
        return start;
    clare_assert(offset + length <= image_.size(),
                 "stream range [%llu, +%llu) exceeds image of %zu bytes",
                 static_cast<unsigned long long>(offset),
                 static_cast<unsigned long long>(length),
                 image_.size());
    if (faults != nullptr && !faults->config().anyFaults())
        faults = nullptr;

    obs::ScopedSpan span(obs.tracer, "disk.stream", parent);

    // Fault penalties accumulate into the head position time, so a
    // retried or delayed chunk honestly pushes out every later chunk
    // of the stream.
    Tick ready = start + accessTime();
    std::uint64_t done = 0;
    std::uint64_t chunks = 0;
    std::uint64_t retries = 0;
    std::uint64_t flips = 0;
    std::vector<std::uint8_t> scratch;
    while (done < length) {
        std::uint32_t n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(chunk_bytes, length - done));
        const std::uint8_t *data = image_.data() + offset + done;
        if (faults != nullptr) {
            std::uint64_t key = faults->chunkKey(offset + done);
            std::uint32_t attempt = 0;
            while (attempt < retry.maxAttempts &&
                   faults->transientError(site, key, attempt)) {
                ++attempt;
            }
            retries += attempt;
            // Each failed attempt forces a re-position before the
            // chunk can be read again.
            ready += static_cast<Tick>(attempt) * accessTime();
            if (attempt == retry.maxAttempts) {
                if (obs.metrics != nullptr) {
                    obs.metrics->counter(
                        "disk.retry.attempts",
                        "chunk re-reads after transient errors") +=
                        retries;
                    ++obs.metrics->counter(
                        "disk.retry.exhausted",
                        "chunks unreadable after bounded retries");
                }
                throw IoError(geometry_.name,
                              "chunk at byte " +
                              std::to_string(offset + done) +
                              " unreadable after " +
                              std::to_string(retry.maxAttempts) +
                              " attempts");
            }
            if (faults->corruptChunk(site, key)) {
                scratch.assign(data, data + n);
                faults->flipBit(site, key, scratch.data(),
                                scratch.size());
                data = scratch.data();
                ++flips;
            }
            ready += faults->chunkDelay(site, key);
        }
        // Delivery completes once all bytes of the chunk have been
        // transferred at the sustained rate.
        Tick delivered = ready + transferTime(done + n);
        sink(data, n, delivered);
        done += n;
        ++chunks;
    }
    Tick end = ready + transferTime(length);
    if (span.active()) {
        span.attr("bytes", length);
        span.attr("chunks", chunks);
        if (retries > 0)
            span.attr("retries", retries);
        span.setSimTicks(end - start);
    }
    if (obs.metrics != nullptr) {
        ++obs.metrics->counter("disk.streams", "DMA stream commands");
        obs.metrics->counter("disk.bytes_streamed",
                             "bytes delivered by DMA streams") += length;
        obs.metrics->counter("disk.chunks", "DMA chunks delivered") +=
            chunks;
        // Fault counters are created lazily, only on actual fault
        // events, so clean runs keep a bit-identical metrics dump.
        if (retries > 0)
            obs.metrics->counter(
                "disk.retry.attempts",
                "chunk re-reads after transient errors") += retries;
        if (flips > 0)
            obs.metrics->counter(
                "disk.faults.bit_flips",
                "chunks delivered with an injected bit flip") += flips;
    }
    return end;
}

} // namespace clare::storage
