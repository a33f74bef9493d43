/**
 * @file
 * Parameterized model of the disks CLARE streams clauses from.
 *
 * The paper's target platform is a SUN3/160 with either a SCSI disk
 * (e.g. Micropolis 1325) or a faster SMD disk (e.g. Fujitsu M2351A,
 * peak transfer circa 2 Mbytes/s).  The evaluation argument rests on
 * the sustained transfer rate — the filters must keep up with it — and
 * on the one-track worst case used to size the Result Memory, so the
 * model captures transfer rate, track geometry, and average access
 * time, and delivers data in DMA chunks with timestamps.
 */

#ifndef CLARE_STORAGE_DISK_MODEL_HH
#define CLARE_STORAGE_DISK_MODEL_HH

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "support/fault_injector.hh"
#include "support/obs.hh"
#include "support/sim_time.hh"

namespace clare::storage {

/**
 * Bounded retry of transient device errors.  Each retry re-positions
 * the head, so it costs a full accessTime(); a chunk that fails every
 * attempt is a permanent failure (IoError).
 */
struct RetryPolicy
{
    std::uint32_t maxAttempts = 3;
};

/** Static description of a disk. */
struct DiskGeometry
{
    std::string name;
    std::uint32_t bytesPerSector = 512;
    std::uint32_t sectorsPerTrack = 64;     ///< 32 KB tracks by default
    std::uint32_t rpm = 3600;
    Tick averageSeek = 20 * kMillisecond;
    /** Sustained transfer rate in bytes per second. */
    double transferRate = 2.0e6;

    std::uint32_t
    trackBytes() const
    {
        return bytesPerSector * sectorsPerTrack;
    }

    /** SCSI disk option of the SUN3/160 (slower transfer). */
    static DiskGeometry micropolis1325();

    /** SMD disk option, tuned to its ~2 MB/s peak rate. */
    static DiskGeometry fujitsuM2351A();
};

/** Modeled timing of one read (see DiskModel::modelRead). */
struct ReadTiming
{
    Tick access = 0;    ///< seek + rotation
    Tick transfer = 0;  ///< at the sustained transfer rate

    Tick total() const { return access + transfer; }
};

/**
 * A disk holding one byte image, streamed in DMA chunks.
 *
 * The model is deliberately simple: an access (seek + half rotation)
 * positions the head, then bytes arrive at the sustained transfer
 * rate.  Chunk delivery times are exact fractions of the rate so that
 * filter-vs-disk rate comparisons are faithful.
 */
class DiskModel
{
  public:
    explicit DiskModel(DiskGeometry geometry);

    const DiskGeometry &geometry() const { return geometry_; }

    /** Replace the stored image; the extent becomes its size. */
    void load(std::vector<std::uint8_t> image);
    /** The same, from a copy of @p image (e.g. a file's image()). */
    void load(std::span<const std::uint8_t> image)
    {
        load(std::vector<std::uint8_t>(image.begin(), image.end()));
    }

    /**
     * Model a disk of @p bytes without holding them: timing and fault
     * ranges need only offsets, so a disk that is never stream()ed
     * (the predicate store's pair) keeps no copy of its images.
     */
    void setExtent(std::uint64_t bytes);

    /** Bytes laid out on the disk, whether held or not. */
    std::uint64_t extent() const { return extent_; }

    const std::vector<std::uint8_t> &image() const { return image_; }

    /** Average positioning time: seek plus half a rotation. */
    Tick accessTime() const;

    /** Pure transfer time for a byte count at the sustained rate. */
    Tick transferTime(std::uint64_t bytes) const;

    /**
     * Analytic timing of one sequential read, used by the CRS for
     * index streams and candidate fetches: exactly
     * {accessTime(), transferTime(length)}, or zero for an empty
     * range.  The disk is read only at its sustained rate.
     */
    ReadTiming modelRead(std::uint64_t length) const;

    /**
     * Stream a byte range as DMA chunks.
     *
     * @param offset,length range within the image
     * @param chunk_bytes DMA chunk size (e.g. one Double Buffer bank)
     * @param start simulated time the command is issued
     * @param sink called per chunk with (data pointer, size,
     *        delivery-complete time); delivery times include the
     *        initial access time
     * @param obs optional sinks: a "disk.stream" span (simTicks = the
     *        modeled access + transfer time) and counters
     *        disk.streams / disk.bytes_streamed / disk.chunks (plus
     *        disk.retry.* when faults force re-reads)
     * @param parent span the "disk.stream" span nests under
     * @param faults optional fault oracle; transient errors force a
     *        bounded re-read (each costing a re-seek that shows in the
     *        delivery times), corrupt chunks are delivered from a
     *        scratch copy with the deterministic bit flipped, delayed
     *        chunks shift the rest of the stream
     * @param retry bound on the re-read attempts per chunk
     * @param site fault-oracle channel name the chunk keys live in
     * @return the time the final chunk completes (= start + access +
     *         transfer of all bytes + fault penalties), or start for
     *         an empty range
     * @throws IoError when a chunk fails every bounded attempt
     */
    Tick stream(std::uint64_t offset, std::uint64_t length,
                std::uint32_t chunk_bytes, Tick start,
                const std::function<void(const std::uint8_t *,
                                         std::uint32_t, Tick)> &sink,
                const obs::Observer &obs = {},
                obs::SpanId parent = 0,
                const support::FaultInjector *faults = nullptr,
                RetryPolicy retry = {},
                std::string_view site = "disk.data") const;

  private:
    DiskGeometry geometry_;
    std::vector<std::uint8_t> image_;
    std::uint64_t extent_ = 0;
};

} // namespace clare::storage

#endif // CLARE_STORAGE_DISK_MODEL_HH
