/**
 * @file
 * The fault-injection suite (ctest label: faults): determinism of the
 * seeded fault oracle, bounded retry and typed failure in the disk
 * model, corruption detection in every checksummed on-disk format,
 * whole-store discrepancy auditing, Result Memory overflow accounting,
 * and the CRS degradation contract — a corrupt or unreadable index
 * downgrades the query to a full scan with the *same answer set* as a
 * clean run, never a crash and never silent garbage.  A proof deeper
 * than the native stack ends the same way: a typed flag, not a crash.
 */

#include <gtest/gtest.h>

#include <pthread.h>

#include <cstdio>
#include <cstring>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "crs/server.hh"
#include "crs/store_io.hh"
#include "fs2/fs2_engine.hh"
#include "fs2/result_memory.hh"
#include "kb/knowledge_base.hh"
#include "kb/resolution.hh"
#include "pif/type_tags.hh"
#include "storage/disk_model.hh"
#include "storage/file_io.hh"
#include "support/crc32.hh"
#include "support/fault_injector.hh"
#include "term/term_reader.hh"

namespace clare {
namespace {

// ---------------------------------------------------------------------
// The deterministic fault oracle.
// ---------------------------------------------------------------------

support::FaultConfig
mixedRates(std::uint64_t seed)
{
    support::FaultConfig config;
    config.seed = seed;
    config.bitFlipRate = 0.5;
    config.transientReadRate = 0.4;
    config.delayRate = 0.3;
    config.truncateRate = 0.5;
    return config;
}

TEST(FaultInjectorTest, DecisionsAreAPureFunctionOfTheSeed)
{
    support::FaultInjector a(mixedRates(7));
    support::FaultInjector b(mixedRates(7));
    for (std::uint64_t key = 0; key < 128; ++key) {
        for (std::uint32_t attempt = 0; attempt < 4; ++attempt) {
            EXPECT_EQ(a.transientError("disk.data", key, attempt),
                      b.transientError("disk.data", key, attempt));
        }
        EXPECT_EQ(a.corruptChunk("disk.index", key),
                  b.corruptChunk("disk.index", key));
        EXPECT_EQ(a.chunkDelay("disk.data", key),
                  b.chunkDelay("disk.data", key));
    }
    EXPECT_EQ(a.truncatedSize("file", "/kb/pred_1_2.kbc", 9999),
              b.truncatedSize("file", "/kb/pred_1_2.kbc", 9999));
}

TEST(FaultInjectorTest, DifferentSeedsInjectDifferentFaults)
{
    support::FaultInjector a(mixedRates(1));
    support::FaultInjector b(mixedRates(2));
    int differing = 0;
    for (std::uint64_t key = 0; key < 256; ++key) {
        if (a.corruptChunk("disk.data", key) !=
            b.corruptChunk("disk.data", key))
            ++differing;
    }
    EXPECT_GT(differing, 0);
}

TEST(FaultInjectorTest, SitesAreIndependentChannels)
{
    support::FaultInjector inj(mixedRates(5));
    int differing = 0;
    for (std::uint64_t key = 0; key < 256; ++key) {
        if (inj.corruptChunk("disk.index", key) !=
            inj.corruptChunk("disk.data", key))
            ++differing;
    }
    EXPECT_GT(differing, 0);
}

TEST(FaultInjectorTest, SiteCoverageReportTracksArmedConsults)
{
    // The coverage report exists so a fuzz sweep can prove its armed
    // sites actually fired — a silently dead site is a sweep that
    // tests nothing.
    support::FaultConfig config;
    config.seed = 13;
    config.bitFlipRate = 0.5;
    config.transientReadRate = 0.25;
    support::FaultInjector inj(config);
    EXPECT_TRUE(inj.sites().empty());

    std::uint64_t flips = 0;
    for (std::uint64_t key = 0; key < 128; ++key)
        flips += inj.corruptChunk("disk.index", key) ? 1 : 0;
    std::uint64_t transients = 0;
    for (std::uint64_t key = 0; key < 128; ++key)
        transients += inj.transientError("disk.data", key, 0) ? 1 : 0;
    // Un-armed families never count as consults: delay is off, and no
    // kill point is armed.
    inj.chunkDelay("disk.data", 1);
    inj.killOffset("wal.commit", 0, 100);

    std::vector<support::SiteReport> sites = inj.sites();
    ASSERT_EQ(sites.size(), 2u); // sorted by site name
    EXPECT_EQ(sites[0].site, "disk.data");
    EXPECT_EQ(sites[0].consulted, 128u);
    EXPECT_EQ(sites[0].triggered, transients);
    EXPECT_EQ(sites[1].site, "disk.index");
    EXPECT_EQ(sites[1].consulted, 128u);
    EXPECT_EQ(sites[1].triggered, flips);
    // At these rates over 128 draws, a dead site means a broken oracle.
    EXPECT_GT(flips, 0u);
    EXPECT_GT(transients, 0u);
}

TEST(FaultInjectorTest, KillPointConsultsReportThroughSites)
{
    support::FaultConfig config;
    config.killSite = "wal.commit";
    config.killAtByte = 50;
    support::FaultInjector inj(config);
    // Armed site, range misses the kill byte: consulted, not triggered.
    EXPECT_FALSE(inj.killOffset("wal.commit", 0, 10).has_value());
    // Different site: not even a consult.
    EXPECT_FALSE(inj.killOffset("wal.checkpoint", 0, 100).has_value());
    // Range covering the kill byte: triggered.
    ASSERT_TRUE(inj.killOffset("wal.commit", 40, 60).has_value());

    std::vector<support::SiteReport> sites = inj.sites();
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_EQ(sites[0].site, "wal.commit");
    EXPECT_EQ(sites[0].consulted, 2u);
    EXPECT_EQ(sites[0].triggered, 1u);
    // A kill-only config must not arm the probabilistic fault paths.
    EXPECT_FALSE(config.anyFaults());
}

TEST(FaultInjectorTest, ZeroRatesInjectNothing)
{
    support::FaultConfig config;
    config.seed = 99;
    support::FaultInjector inj(config);
    EXPECT_FALSE(config.anyFaults());
    for (std::uint64_t key = 0; key < 64; ++key) {
        EXPECT_FALSE(inj.transientError("disk.data", key, 0));
        EXPECT_FALSE(inj.corruptChunk("disk.data", key));
        EXPECT_EQ(inj.chunkDelay("disk.data", key), 0u);
    }
    EXPECT_EQ(inj.truncatedSize("file", "/x", 1234u), 1234u);
    support::RangeFaults rf = inj.rangeFaults("disk.data", 0, 1 << 20, 3);
    EXPECT_EQ(rf.retries, 0u);
    EXPECT_EQ(rf.corruptChunks, 0u);
    EXPECT_EQ(rf.delayTicks, 0u);
    EXPECT_FALSE(rf.permanent);
}

TEST(FaultInjectorTest, FlipBitFlipsExactlyOneBit)
{
    support::FaultInjector inj(mixedRates(3));
    std::vector<std::uint8_t> buf(256);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i * 31);
    std::vector<std::uint8_t> orig = buf;

    std::uint64_t bit = inj.flipBit("disk.data", 17, buf.data(),
                                    buf.size());
    ASSERT_LT(bit, buf.size() * 8u);
    int flipped = 0;
    for (std::size_t i = 0; i < buf.size(); ++i) {
        std::uint8_t delta = buf[i] ^ orig[i];
        while (delta != 0) {
            flipped += delta & 1;
            delta >>= 1;
        }
    }
    EXPECT_EQ(flipped, 1);
    EXPECT_NE(buf[bit / 8] & (1u << (bit % 8)),
              orig[bit / 8] & (1u << (bit % 8)));
}

TEST(FaultInjectorTest, RangeFaultsUseAbsoluteChunkBoundaries)
{
    // Folding [0, 2 chunks) must agree with folding each chunk alone:
    // faults are pinned to disk locations, not to access patterns.
    support::FaultInjector inj(mixedRates(11));
    const std::uint32_t chunk = inj.config().chunkBytes;
    support::RangeFaults whole = inj.rangeFaults("disk.data", 0,
                                                 2ull * chunk, 4);
    support::RangeFaults lo = inj.rangeFaults("disk.data", 0, chunk, 4);
    support::RangeFaults hi = inj.rangeFaults("disk.data", chunk, chunk,
                                              4);
    EXPECT_EQ(whole.retries, lo.retries + hi.retries);
    EXPECT_EQ(whole.corruptChunks, lo.corruptChunks + hi.corruptChunks);
    EXPECT_EQ(whole.delayTicks, lo.delayTicks + hi.delayTicks);
    EXPECT_EQ(whole.permanent, lo.permanent || hi.permanent);

    // An unaligned range still faults the chunks it touches.
    support::RangeFaults off = inj.rangeFaults("disk.data", chunk / 2,
                                               chunk, 4);
    EXPECT_EQ(off.corruptChunks, lo.corruptChunks + hi.corruptChunks);
}

TEST(FaultInjectorTest, CertainTransientErrorsArePermanent)
{
    support::FaultConfig config;
    config.seed = 4;
    config.transientReadRate = 1.0;
    support::FaultInjector inj(config);
    support::RangeFaults rf = inj.rangeFaults("disk.data", 0, 4096, 8);
    EXPECT_TRUE(rf.permanent);
}

// ---------------------------------------------------------------------
// CRC-32.
// ---------------------------------------------------------------------

TEST(Crc32Test, MatchesTheIeeeCheckValue)
{
    const char *check = "123456789";
    EXPECT_EQ(support::crc32(
                  reinterpret_cast<const std::uint8_t *>(check), 9),
              0xCBF43926u);
}

TEST(Crc32Test, PageChecksumsCoverTheShortFinalPage)
{
    std::vector<std::uint8_t> data(10000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i);
    std::vector<std::uint32_t> crcs = support::pageChecksums(
        data.data(), data.size());
    ASSERT_EQ(crcs.size(), 3u);
    EXPECT_EQ(crcs[0], support::crc32(data.data(), 4096));
    EXPECT_EQ(crcs[2], support::crc32(data.data() + 8192,
                                      data.size() - 8192));
    EXPECT_TRUE(support::pageChecksums(nullptr, 0).empty());
}

TEST(Crc32Test, DetectsEverySingleBitFlip)
{
    std::vector<std::uint8_t> page(512);
    for (std::size_t i = 0; i < page.size(); ++i)
        page[i] = static_cast<std::uint8_t>(i * 7 + 3);
    std::uint32_t clean = support::crc32(page.data(), page.size());
    for (std::size_t bit = 0; bit < page.size() * 8; ++bit) {
        page[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_NE(support::crc32(page.data(), page.size()), clean)
            << "bit " << bit;
        page[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
}

// ---------------------------------------------------------------------
// Disk streams under injected faults.
// ---------------------------------------------------------------------

class DiskStreamFaultTest : public ::testing::Test
{
  protected:
    storage::DiskModel disk_{storage::DiskGeometry::fujitsuM2351A()};

    void
    SetUp() override
    {
        std::vector<std::uint8_t> image(3 * 4096 + 100);
        for (std::size_t i = 0; i < image.size(); ++i)
            image[i] = static_cast<std::uint8_t>(i * 13 + 1);
        disk_.load(std::move(image));
    }

    /** Stream the whole image, returning (delivered bytes, end tick). */
    std::pair<std::vector<std::uint8_t>, Tick>
    streamAll(const support::FaultInjector *faults,
              storage::RetryPolicy retry = {},
              obs::MetricsRegistry *metrics = nullptr)
    {
        std::vector<std::uint8_t> delivered;
        obs::Observer obs{nullptr, metrics};
        Tick end = disk_.stream(
            0, disk_.image().size(), 4096, 0,
            [&](const std::uint8_t *data, std::uint32_t n, Tick) {
                delivered.insert(delivered.end(), data, data + n);
            },
            obs, 0, faults, retry);
        return {std::move(delivered), end};
    }

    static std::uint64_t
    counterValue(const obs::MetricsRegistry &metrics,
                 const std::string &name)
    {
        for (const auto &c : metrics.counters()) {
            if (c.name == name)
                return c.value;
        }
        return 0;
    }
};

TEST_F(DiskStreamFaultTest, ZeroRateInjectorIsBitIdenticalToNone)
{
    support::FaultInjector idle{support::FaultConfig{}};
    auto [clean_bytes, clean_end] = streamAll(nullptr);
    auto [idle_bytes, idle_end] = streamAll(&idle);
    EXPECT_EQ(clean_bytes, disk_.image());
    EXPECT_EQ(idle_bytes, clean_bytes);
    EXPECT_EQ(idle_end, clean_end);
}

TEST_F(DiskStreamFaultTest, TransientErrorsCostReseeksAndAreCounted)
{
    support::FaultConfig config;
    config.transientReadRate = 0.5;
    // Pick a seed whose transient draws force at least one retry but
    // never exhaust the bound, so the stream must still succeed.
    std::uint32_t retries = 0;
    for (config.seed = 1; config.seed < 64; ++config.seed) {
        support::FaultInjector probe(config);
        support::RangeFaults rf = probe.rangeFaults(
            "disk.data", 0, disk_.image().size(), 8);
        if (rf.retries > 0 && !rf.permanent) {
            retries = rf.retries;
            break;
        }
    }
    ASSERT_GT(retries, 0u) << "no usable seed below 64";

    support::FaultInjector inj(config);
    obs::MetricsRegistry metrics;
    auto [clean_bytes, clean_end] = streamAll(nullptr);
    auto [bytes, end] = streamAll(&inj, {.maxAttempts = 8}, &metrics);

    EXPECT_EQ(bytes, clean_bytes); // transient errors never corrupt
    EXPECT_EQ(end, clean_end +
              static_cast<Tick>(retries) * disk_.accessTime());
    EXPECT_EQ(counterValue(metrics, "disk.retry.attempts"), retries);
    EXPECT_EQ(counterValue(metrics, "disk.retry.exhausted"), 0u);
}

TEST_F(DiskStreamFaultTest, ExhaustedRetriesThrowTypedIoError)
{
    support::FaultConfig config;
    config.seed = 9;
    config.transientReadRate = 1.0;
    support::FaultInjector inj(config);
    obs::MetricsRegistry metrics;
    EXPECT_THROW(streamAll(&inj, {.maxAttempts = 3}, &metrics), IoError);
    EXPECT_EQ(counterValue(metrics, "disk.retry.exhausted"), 1u);
    EXPECT_EQ(counterValue(metrics, "disk.retry.attempts"), 3u);
}

TEST_F(DiskStreamFaultTest, CorruptChunksFlipOneBitButSpareTheMaster)
{
    support::FaultConfig config;
    config.seed = 21;
    config.bitFlipRate = 1.0;
    support::FaultInjector inj(config);
    std::vector<std::uint8_t> master = disk_.image();
    obs::MetricsRegistry metrics;
    auto [bytes, end] = streamAll(&inj, {}, &metrics);
    (void)end;

    EXPECT_EQ(disk_.image(), master); // scratch-copy corruption only
    ASSERT_EQ(bytes.size(), master.size());
    // Every 4096-byte chunk was delivered with exactly one flipped bit.
    std::size_t chunks = (master.size() + 4095) / 4096;
    for (std::size_t c = 0; c < chunks; ++c) {
        std::size_t lo = c * 4096;
        std::size_t hi = std::min(master.size(), lo + 4096);
        int flipped = 0;
        for (std::size_t i = lo; i < hi; ++i) {
            std::uint8_t delta = bytes[i] ^ master[i];
            while (delta != 0) {
                flipped += delta & 1;
                delta >>= 1;
            }
        }
        EXPECT_EQ(flipped, 1) << "chunk " << c;
    }
    EXPECT_EQ(counterValue(metrics, "disk.faults.bit_flips"), chunks);
}

TEST_F(DiskStreamFaultTest, DelayedChunksShiftTheWholeStream)
{
    support::FaultConfig config;
    config.seed = 2;
    config.delayRate = 1.0;
    config.delayTicks = kMillisecond;
    support::FaultInjector inj(config);
    auto [clean_bytes, clean_end] = streamAll(nullptr);
    auto [bytes, end] = streamAll(&inj);
    EXPECT_EQ(bytes, clean_bytes);
    std::size_t chunks = (disk_.image().size() + 4095) / 4096;
    EXPECT_EQ(end, clean_end + static_cast<Tick>(chunks) * kMillisecond);
}

// ---------------------------------------------------------------------
// Checksummed on-disk formats: every single-bit flip is detected.
// ---------------------------------------------------------------------

class FormatFaultTest : public ::testing::Test
{
  protected:
    std::string path_ = ::testing::TempDir() + "clare_faults.bin";

    void TearDown() override { std::remove(path_.c_str()); }

    /**
     * Flip one bit in every byte of the file in turn and require the
     * loader to reject each mutation with a CorruptionError.
     */
    template <typename LoadFn>
    void
    expectEveryByteFlipDetected(LoadFn load)
    {
        std::vector<std::uint8_t> pristine = storage::readBytes(path_);
        for (std::size_t i = 0; i < pristine.size(); ++i) {
            std::vector<std::uint8_t> bytes = pristine;
            bytes[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
            storage::writeBytes(path_, bytes);
            EXPECT_THROW(load(), CorruptionError) << "byte " << i;
        }
        storage::writeBytes(path_, pristine);
    }

    storage::ClauseFile
    buildClauseFile()
    {
        term::SymbolTable sym;
        term::TermReader reader(sym);
        term::TermWriter writer(sym);
        storage::ClauseFileBuilder builder(writer);
        for (const auto &c : reader.parseProgram(
                 "p(a, [1, 2]).\np(f(X), Y) :- p(Y, [1, 2]).\n"
                 "p(zzz, 4.25).\n"))
            builder.add(c);
        return builder.finish();
    }
};

TEST_F(FormatFaultTest, ClauseFileRejectsEveryBitFlip)
{
    storage::saveClauseFile(path_, buildClauseFile());
    expectEveryByteFlipDetected(
        [&] { storage::loadClauseFile(path_); });
}

TEST_F(FormatFaultTest, V1FlippedTagByteIsTypedCorruptionNotACrash)
{
    // A v1 clause file has no page checksums, and its load-time walk
    // parses only record headers — a flipped tag byte *inside* the PIF
    // item stream loads without complaint.  The damage must then
    // surface as a typed CorruptionError when the stream is decoded
    // for the engine: not a clare_fatal abort (invalid tag), and not a
    // map-ROM trap abort (a tag that is valid but belongs to the query
    // side).
    storage::ClauseFile file = buildClauseFile();
    auto write_v1 = [&](const std::vector<std::uint8_t> &image) {
        std::vector<std::uint8_t> out;
        auto put = [&](std::uint32_t v) {
            for (int i = 0; i < 4; ++i)
                out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        };
        put(storage::kClauseFileMagic);
        put(storage::kClauseFileVersionCompat);
        put(file.predicate().functor);
        put(file.predicate().arity);
        put(static_cast<std::uint32_t>(file.clauseCount()));
        put(static_cast<std::uint32_t>(image.size()));
        out.insert(out.end(), image.begin(), image.end());
        storage::writeBytes(path_, out);
    };

    // The first item's tag byte of clause 0.
    const std::size_t tag_at =
        file.record(0).offset + storage::kRecordHeaderBytes;
    const std::uint8_t flips[] = {
        0x00,                   // not a PIF tag at all
        pif::kFirstQueryVar,    // valid tag, wrong side of the stream
        0xff,                   // in-line list of arity 31: overrun
    };
    for (std::uint8_t bad : flips) {
        std::vector<std::uint8_t> image(file.image().begin(),
                                        file.image().end());
        ASSERT_NE(image[tag_at], bad);
        image[tag_at] = bad;
        write_v1(image);

        storage::ClauseFile damaged = storage::loadClauseFile(path_);
        ASSERT_EQ(damaged.clauseCount(), file.clauseCount());

        EXPECT_THROW(damaged.decodeArgs(0), CorruptionError)
            << "tag 0x" << std::hex << static_cast<int>(bad);

        // The full scans decode every record into one scratch: the
        // damaged record throws through it too, and the scratch then
        // decodes an intact record exactly as a fresh decode does.
        pif::EncodedArgs scratch;
        damaged.decodeArgsInto(damaged.record(1), scratch);
        EXPECT_THROW(damaged.decodeArgsInto(damaged.record(0), scratch),
                     CorruptionError)
            << "tag 0x" << std::hex << static_cast<int>(bad);
        damaged.decodeArgsInto(damaged.record(1), scratch);
        const pif::EncodedArgs fresh = damaged.decodeArgs(1);
        EXPECT_EQ(scratch.items, fresh.items);
        EXPECT_EQ(scratch.argIndex, fresh.argIndex);
        EXPECT_EQ(scratch.varSlots, fresh.varSlots);

        // End to end: the same damage reached through an FS2 search
        // over the loaded file (the engine decodes each record as the
        // stream arrives).
        pif::EncodedArgs qargs;
        qargs.items.push_back(pif::PifItem{pif::kFirstQueryVar, 0, 0});
        qargs.items.push_back(pif::PifItem{pif::kFirstQueryVar, 1, 0});
        qargs.varSlots = 2;
        qargs.argIndex = {0, 1};
        fs2::Fs2Engine engine;
        engine.setQuery(qargs, damaged.predicate());
        EXPECT_THROW(engine.search(damaged), CorruptionError)
            << "tag 0x" << std::hex << static_cast<int>(bad);
    }

    // The pristine image still decodes and retrieves cleanly through
    // the same v1 vehicle.
    write_v1({file.image().begin(), file.image().end()});
    storage::ClauseFile clean = storage::loadClauseFile(path_);
    EXPECT_NO_THROW(clean.decodeArgs(0));
}

TEST_F(FormatFaultTest, FramedBytesRejectEveryBitFlip)
{
    std::vector<std::uint8_t> payload(5000);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 97 + 5);
    storage::writeFramedBytes(path_, payload);
    EXPECT_EQ(storage::readFramedBytes(path_), payload);
    expectEveryByteFlipDetected(
        [&] { storage::readFramedBytes(path_); });
}

TEST_F(FormatFaultTest, FramedBytesRoundTripEmptyPayload)
{
    storage::writeFramedBytes(path_, {});
    EXPECT_TRUE(storage::readFramedBytes(path_).empty());
}

TEST_F(FormatFaultTest, SymbolTableRejectsEveryBitFlip)
{
    term::SymbolTable sym;
    sym.intern("alpha");
    sym.intern("beta");
    sym.internFloat(2.5);
    storage::saveSymbolTable(path_, sym);
    expectEveryByteFlipDetected([&] {
        term::SymbolTable fresh;
        storage::loadSymbolTable(path_, fresh);
    });
}

TEST_F(FormatFaultTest, VersionOneClauseFileStillLoads)
{
    storage::ClauseFile original = buildClauseFile();

    // Hand-assemble the v1 layout (header without checksums, image at
    // byte 24) to prove read compatibility with pre-CRC stores.
    std::vector<std::uint8_t> v1;
    auto put = [&](std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            v1.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    put(storage::kClauseFileMagic);
    put(1);
    put(original.predicate().functor);
    put(original.predicate().arity);
    put(static_cast<std::uint32_t>(original.clauseCount()));
    put(static_cast<std::uint32_t>(original.image().size()));
    v1.insert(v1.end(), original.image().begin(), original.image().end());
    storage::writeBytes(path_, v1);

    storage::ClauseFile loaded = storage::loadClauseFile(path_);
    EXPECT_EQ(loaded.predicate(), original.predicate());
    EXPECT_EQ(loaded.clauseCount(), original.clauseCount());
    EXPECT_EQ(loaded.image(), original.image());
}

TEST_F(FormatFaultTest, VersionOneSymbolTableStillLoads)
{
    term::SymbolTable sym;
    sym.intern("gamma");
    sym.internFloat(-1.5);

    std::vector<std::uint8_t> v1;
    auto put = [&](std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            v1.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    put(storage::kSymbolFileMagic);
    put(1);
    put(sym.atomCount());
    put(sym.floatCount());
    for (std::uint32_t i = 0; i < sym.atomCount(); ++i) {
        const std::string &name = sym.name(i);
        put(static_cast<std::uint32_t>(name.size()));
        v1.insert(v1.end(), name.begin(), name.end());
    }
    for (std::uint32_t i = 0; i < sym.floatCount(); ++i) {
        double v = sym.floatValue(i);
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        put(static_cast<std::uint32_t>(bits));
        put(static_cast<std::uint32_t>(bits >> 32));
    }
    storage::writeBytes(path_, v1);

    term::SymbolTable fresh;
    storage::loadSymbolTable(path_, fresh);
    EXPECT_EQ(fresh.atomCount(), sym.atomCount());
    EXPECT_EQ(fresh.lookup("gamma"), sym.lookup("gamma"));
    EXPECT_DOUBLE_EQ(fresh.floatValue(0), -1.5);
}

// ---------------------------------------------------------------------
// Whole-store audit and manifest compatibility.
// ---------------------------------------------------------------------

class StoreFaultTest : public ::testing::Test
{
  protected:
    std::string dir_ = ::testing::TempDir() + "clare_store_faults";
    term::SymbolTable sym_;
    std::unique_ptr<crs::PredicateStore> store_;

    void
    SetUp() override
    {
        term::TermReader reader(sym_);
        term::Program program;
        for (auto &c : reader.parseProgram(
                 "p(a, 1).\np(b, 2).\np(a, 3).\np(c, 4).\n"
                 "q(a).\nq(b).\n"))
            program.add(std::move(c));
        store_ = std::make_unique<crs::PredicateStore>(
            sym_, scw::CodewordGenerator{});
        store_->addProgram(program);
        store_->finalize();
        crs::saveStore(dir_, *store_, sym_);
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    std::string
    stemOf(std::uint32_t arity) const
    {
        for (const term::PredicateId &pred : store_->predicates()) {
            if (pred.arity == arity)
                return "pred_" + std::to_string(pred.functor) + "_" +
                    std::to_string(pred.arity);
        }
        ADD_FAILURE() << "no predicate of arity " << arity;
        return "";
    }
};

TEST_F(StoreFaultTest, AuditListsEveryDiscrepancyInOneError)
{
    std::string missing = stemOf(2) + ".kbc";
    std::string resized = stemOf(1) + ".idx";
    std::filesystem::remove(dir_ + "/" + missing);
    {
        std::ofstream grow(dir_ + "/" + resized,
                           std::ios::binary | std::ios::app);
        grow << "junk";
    }
    storage::writeBytes(dir_ + "/pred_777_3.kbc", {1, 2, 3});

    term::SymbolTable fresh;
    try {
        crs::loadStore(dir_, fresh);
        FAIL() << "damaged store loaded";
    } catch (const CorruptionError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("3 store discrepancies"), std::string::npos)
            << what;
        EXPECT_NE(what.find("missing file '" + missing + "'"),
                  std::string::npos) << what;
        EXPECT_NE(what.find("'" + resized + "'"), std::string::npos)
            << what;
        EXPECT_NE(what.find("manifest says"), std::string::npos) << what;
        EXPECT_NE(what.find("extra file 'pred_777_3.kbc'"),
                  std::string::npos) << what;
    }
}

TEST_F(StoreFaultTest, CorruptIndexPayloadIsTypedError)
{
    std::string idx = dir_ + "/" + stemOf(2) + ".idx";
    std::vector<std::uint8_t> bytes = storage::readBytes(idx);
    bytes[bytes.size() - 1] ^= 0x10; // payload tail: page CRC mismatch
    storage::writeBytes(idx, bytes);
    term::SymbolTable fresh;
    EXPECT_THROW(crs::loadStore(dir_, fresh), CorruptionError);
}

TEST_F(StoreFaultTest, VersionTwoStoreStillLoads)
{
    // Downgrade the saved store in place to the v2 layout: manifest
    // without the index-format line or file sizes, raw (unframed)
    // secondary files.
    std::vector<std::string> pred_lines;
    std::string scw_line;
    {
        std::ifstream in(dir_ + "/manifest.txt");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("scw ", 0) == 0)
                scw_line = line;
            if (line.rfind("pred ", 0) == 0) {
                std::istringstream fields(line);
                std::string word, stem;
                std::uint32_t functor = 0, arity = 0;
                fields >> word >> functor >> arity >> stem;
                pred_lines.push_back("pred " + std::to_string(functor) +
                                     " " + std::to_string(arity) + " " +
                                     stem);
                std::vector<std::uint8_t> raw = storage::readFramedBytes(
                    dir_ + "/" + stem + ".idx");
                // A real v2 secondary file is the bare entry image —
                // drop the v3 bit-sliced plane section.
                raw.resize(store_
                               ->predicateVersion(
                                   term::PredicateId{functor, arity})
                               ->index.image()
                               .size());
                storage::writeBytes(dir_ + "/" + stem + ".idx", raw);
            }
        }
    }
    ASSERT_EQ(pred_lines.size(), 2u);
    ASSERT_FALSE(scw_line.empty());
    {
        std::ofstream out(dir_ + "/manifest.txt");
        out << "clare-store 2\n" << scw_line << '\n';
        for (const std::string &p : pred_lines)
            out << p << '\n';
    }

    term::SymbolTable fresh;
    crs::PredicateStore loaded = crs::loadStore(dir_, fresh);
    EXPECT_EQ(loaded.predicates().size(), store_->predicates().size());
    EXPECT_EQ(loaded.dataBytes(), store_->dataBytes());
    EXPECT_EQ(loaded.indexBytes(), store_->indexBytes());

    crs::ClauseRetrievalServer original(sym_, *store_);
    crs::ClauseRetrievalServer reloaded(fresh, loaded);
    term::TermReader reader(sym_);
    term::TermReader fresh_reader(fresh);
    term::ParsedTerm q1 = reader.parseTerm("p(a, X)");
    term::ParsedTerm q2 = fresh_reader.parseTerm("p(a, X)");
    for (crs::SearchMode mode : {crs::SearchMode::SoftwareOnly,
                                 crs::SearchMode::Fs1Only,
                                 crs::SearchMode::Fs2Only,
                                 crs::SearchMode::TwoStage}) {
        crs::RetrievalRequest ra;
        ra.arena = &q1.arena;
        ra.goal = q1.root;
        ra.mode = mode;
        crs::RetrievalRequest rb;
        rb.arena = &q2.arena;
        rb.goal = q2.root;
        rb.mode = mode;
        crs::RetrievalResponse a = original.serve(ra);
        crs::RetrievalResponse b = reloaded.serve(rb);
        EXPECT_EQ(a.candidates, b.candidates);
        EXPECT_EQ(a.answers, b.answers);
    }
}

// ---------------------------------------------------------------------
// Result Memory overflow accounting.
// ---------------------------------------------------------------------

TEST(ResultMemoryOverflowTest, ExactlySixtyFourSatisfiersFit)
{
    fs2::ResultMemory rm; // paper sizing: 32 KB / 512 B = 64 slots
    ASSERT_EQ(rm.slotCount(), 64u);
    std::uint8_t byte = 0xaa;
    for (int i = 0; i < 64; ++i) {
        rm.beginClause(&byte, 1);
        rm.commit();
    }
    EXPECT_EQ(rm.satisfierCount(), 64u);
    EXPECT_FALSE(rm.overflowed());
    EXPECT_EQ(rm.droppedSatisfiers(), 0u);
}

TEST(ResultMemoryOverflowTest, SatisfierSixtyFiveOverflowsExplicitly)
{
    fs2::ResultMemory rm;
    for (int i = 0; i < 65; ++i) {
        std::uint8_t byte = static_cast<std::uint8_t>(i);
        rm.beginClause(&byte, 1);
        rm.commit();
    }
    EXPECT_EQ(rm.satisfierCount(), 64u);
    EXPECT_TRUE(rm.overflowed());
    EXPECT_EQ(rm.droppedSatisfiers(), 1u);
    // The real 6-bit counter would wrap and overwrite slot 0; the
    // model must preserve it.
    EXPECT_EQ(rm.slot(0), std::vector<std::uint8_t>{0});
}

TEST(ResultMemoryOverflowTest, ResetClearsOverflowState)
{
    fs2::ResultMemory rm;
    for (int i = 0; i < 70; ++i) {
        std::uint8_t byte = 1;
        rm.beginClause(&byte, 1);
        rm.commit();
    }
    EXPECT_TRUE(rm.overflowed());
    rm.reset();
    EXPECT_FALSE(rm.overflowed());
    EXPECT_EQ(rm.droppedSatisfiers(), 0u);
    EXPECT_EQ(rm.satisfierCount(), 0u);
}

// ---------------------------------------------------------------------
// CRS graceful degradation.
// ---------------------------------------------------------------------

class CrsFaultTest : public ::testing::Test
{
  protected:
    term::SymbolTable sym_;
    std::unique_ptr<crs::PredicateStore> store_;

    void
    SetUp() override
    {
        term::TermReader reader(sym_);
        std::string text;
        for (int i = 0; i < 96; ++i) {
            text += "p(k" + std::to_string(i % 8) + ", v" +
                std::to_string(i) + ").\n";
        }
        text += "p(X, X).\n";
        term::Program program;
        for (auto &c : reader.parseProgram(text))
            program.add(std::move(c));
        store_ = std::make_unique<crs::PredicateStore>(
            sym_, scw::CodewordGenerator{});
        store_->addProgram(program);
        store_->finalize();
    }

    crs::RetrievalResponse
    ask(crs::ClauseRetrievalServer &server, crs::SearchMode mode)
    {
        term::TermReader reader(sym_);
        term::ParsedTerm q = reader.parseTerm("p(k3, V)");
        crs::RetrievalRequest request;
        request.arena = &q.arena;
        request.goal = q.root;
        request.mode = mode;
        return server.serve(request);
    }

    std::shared_ptr<const crs::StoredPredicate>
    storedP() const
    {
        for (const term::PredicateId &pred : store_->predicates()) {
            if (pred.arity == 2)
                return store_->predicateVersion(pred);
        }
        throw std::logic_error("p/2 not stored");
    }

    static std::uint64_t
    counterValue(crs::ClauseRetrievalServer &server,
                 const std::string &name)
    {
        for (const auto &c : server.metrics().counters()) {
            if (c.name == name)
                return c.value;
        }
        return 0;
    }
};

TEST_F(CrsFaultTest, CorruptIndexDegradesToFullScanWithSameAnswers)
{
    crs::ClauseRetrievalServer clean(sym_, *store_);
    crs::RetrievalResponse clean_two = ask(clean,
                                           crs::SearchMode::TwoStage);
    crs::RetrievalResponse clean_fs2 = ask(clean,
                                           crs::SearchMode::Fs2Only);

    support::FaultConfig config;
    config.seed = 42;
    config.bitFlipRate = 1.0; // every delivered index page is corrupt
    support::FaultInjector inj(config);
    crs::CrsConfig cfg;
    cfg.faults = &inj;
    crs::ClauseRetrievalServer faulty(sym_, *store_, cfg);

    crs::RetrievalResponse r = ask(faulty, crs::SearchMode::TwoStage);
    EXPECT_TRUE(r.degraded);
    EXPECT_GT(r.corruptIndexPages, 0u);
    EXPECT_EQ(r.mode, crs::SearchMode::Fs2Only);
    // The degradation contract: same answers as any clean mode, and
    // the same candidates a clean full scan would examine.
    EXPECT_EQ(r.answers, clean_two.answers);
    EXPECT_EQ(r.candidates, clean_fs2.candidates);
    EXPECT_GT(r.breakdown.indexTime, 0u); // the read that found damage

    EXPECT_EQ(counterValue(faulty, "crs.degraded.queries"), 1u);
    EXPECT_GT(counterValue(faulty, "crs.degraded.corrupt_index_pages"),
              0u);

    // Modes that never touch FS1 are not degraded by index damage.
    crs::RetrievalResponse soft = ask(faulty,
                                      crs::SearchMode::SoftwareOnly);
    EXPECT_FALSE(soft.degraded);
    EXPECT_EQ(soft.answers, clean_two.answers);
}

TEST_F(CrsFaultTest, UnreadableIndexDegradesWithoutCorruptPages)
{
    crs::ClauseRetrievalServer clean(sym_, *store_);
    crs::RetrievalResponse clean_two = ask(clean,
                                           crs::SearchMode::TwoStage);

    // Find a seed where the index range fails every bounded attempt
    // but the data range stays readable, so degradation — not a data
    // IoError — is the outcome under test.
    const std::shared_ptr<const crs::StoredPredicate> pinned = storedP();
    const crs::StoredPredicate &sp = *pinned;
    crs::CrsConfig cfg;
    support::FaultConfig config;
    config.transientReadRate = 0.8;
    bool found = false;
    for (config.seed = 1; config.seed < 512 && !found; ++config.seed) {
        support::FaultInjector probe(config);
        bool index_dead = probe.rangeFaults(
            "disk.index", sp.indexFileOffset, sp.index.image().size(),
            cfg.retry.maxAttempts).permanent;
        bool data_dead = probe.rangeFaults(
            "disk.data", sp.clauseFileOffset, sp.clauses.image().size(),
            cfg.retry.maxAttempts).permanent;
        found = index_dead && !data_dead;
    }
    ASSERT_TRUE(found) << "no usable seed below 512";
    --config.seed; // the loop increments past the match

    support::FaultInjector inj(config);
    cfg.faults = &inj;
    crs::ClauseRetrievalServer faulty(sym_, *store_, cfg);
    crs::RetrievalResponse r = ask(faulty, crs::SearchMode::TwoStage);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.corruptIndexPages, 0u);
    EXPECT_EQ(r.answers, clean_two.answers);
    EXPECT_EQ(counterValue(faulty, "crs.degraded.queries"), 1u);
}

TEST_F(CrsFaultTest, PermanentDataFailureIsTypedIoError)
{
    support::FaultConfig config;
    config.seed = 3;
    config.transientReadRate = 1.0;
    support::FaultInjector inj(config);
    crs::CrsConfig cfg;
    cfg.faults = &inj;
    crs::ClauseRetrievalServer faulty(sym_, *store_, cfg);
    EXPECT_THROW(ask(faulty, crs::SearchMode::Fs2Only), IoError);
}

TEST_F(CrsFaultTest, TransientFaultsPreserveAnswersAndChargeRetries)
{
    crs::ClauseRetrievalServer clean(sym_, *store_);
    crs::RetrievalResponse clean_two = ask(clean,
                                           crs::SearchMode::TwoStage);

    support::FaultConfig config;
    config.transientReadRate = 0.5;
    int successes = 0;
    bool charged = false;
    for (config.seed = 1; config.seed <= 20; ++config.seed) {
        support::FaultInjector inj(config);
        crs::CrsConfig cfg;
        cfg.faults = &inj;
        cfg.retry.maxAttempts = 8;
        crs::ClauseRetrievalServer faulty(sym_, *store_, cfg);
        try {
            crs::RetrievalResponse r = ask(faulty,
                                           crs::SearchMode::TwoStage);
            ++successes;
            EXPECT_EQ(r.answers, clean_two.answers)
                << "seed " << config.seed;
            EXPECT_GE(r.elapsed, clean_two.elapsed);
            if (counterValue(faulty, "disk.retry.attempts") > 0) {
                charged = true;
                EXPECT_GT(r.elapsed, clean_two.elapsed);
            }
        } catch (const IoError &) {
            // Some seeds exhaust the bounded retries: a typed error,
            // never a crash.
        }
    }
    EXPECT_GT(successes, 0);
    EXPECT_TRUE(charged) << "no seed below 21 forced a retry";
}

TEST_F(CrsFaultTest, NullAndIdleInjectorsAreBitIdentical)
{
    crs::ClauseRetrievalServer plain(sym_, *store_);
    support::FaultInjector idle{support::FaultConfig{.seed = 77}};
    crs::CrsConfig cfg;
    cfg.faults = &idle; // no rates set: the server must ignore it
    crs::ClauseRetrievalServer gated(sym_, *store_, cfg);

    for (crs::SearchMode mode : {crs::SearchMode::SoftwareOnly,
                                 crs::SearchMode::Fs1Only,
                                 crs::SearchMode::Fs2Only,
                                 crs::SearchMode::TwoStage}) {
        crs::RetrievalResponse a = ask(plain, mode);
        crs::RetrievalResponse b = ask(gated, mode);
        EXPECT_EQ(a.candidates, b.candidates);
        EXPECT_EQ(a.answers, b.answers);
        EXPECT_EQ(a.elapsed, b.elapsed);
        EXPECT_EQ(a.breakdown.indexTime, b.breakdown.indexTime);
        EXPECT_EQ(a.breakdown.filterTime, b.breakdown.filterTime);
        EXPECT_EQ(a.breakdown.hostUnifyTime, b.breakdown.hostUnifyTime);
        EXPECT_FALSE(b.degraded);
    }
}

TEST_F(CrsFaultTest, RetryPolicyIsValidated)
{
    crs::CrsConfig cfg;
    cfg.retry.maxAttempts = 0;
    EXPECT_THROW(cfg.validate(), crs::ConfigError);
    cfg.retry.maxAttempts = 65;
    EXPECT_THROW(cfg.validate(), crs::ConfigError);
    cfg.retry.maxAttempts = 64;
    EXPECT_NO_THROW(cfg.validate());
}

} // namespace
} // namespace clare

namespace clare {
namespace {

// ---------------------------------------------------------------------
// A proof deeper than the native stack stops with a flag.
// ---------------------------------------------------------------------

/** Run @p body on a thread with an 8 MB stack, whatever the rlimit. */
void
onEightMegabyteStack(const std::function<void()> &body)
{
    pthread_attr_t attr;
    ASSERT_EQ(pthread_attr_init(&attr), 0);
    ASSERT_EQ(pthread_attr_setstacksize(&attr, 8u << 20), 0);
    pthread_t thread;
    auto run = [](void *arg) -> void * {
        (*static_cast<const std::function<void()> *>(arg))();
        return nullptr;
    };
    ASSERT_EQ(pthread_create(&thread, &attr, run,
                             const_cast<std::function<void()> *>(&body)),
              0);
    pthread_join(thread, nullptr);
    pthread_attr_destroy(&attr);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CLARE_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CLARE_TEST_SANITIZED 1
#endif
#endif

/** Optimised and unsanitized: the stack frames the headroom is sized for. */
constexpr bool kLeanFrames =
#if defined(__OPTIMIZE__) && !defined(CLARE_TEST_SANITIZED)
    true;
#else
    false;
#endif

/** Solve each query on an 8 MB stack, recording answers and stats. */
void
solveOnEightMegabyteStack(kb::Solver &solver,
                          const std::vector<const char *> &queries,
                          std::vector<std::size_t> &found,
                          std::vector<kb::SolveStats> &stats)
{
    onEightMegabyteStack([&] {
        for (const char *query : queries) {
            found.push_back(solver.solve(query).size());
            stats.push_back(solver.stats());
        }
    });
}

const char *const kCount = "count(0).\n"
                           "count(N) :- N > 0, M is N - 1, count(M).\n";

TEST(SolverStackTest, DeepRecursionStopsWithAFlagInsteadOfCrashing)
{
    // Each level nests the continuation-passing search's frames; well
    // inside the default step budget, these proofs outgrow an 8 MB
    // stack (and a sanitizer's larger frames sooner).  The stop is
    // final: findall/3 and \+ ignore whether their sub-proof stopped,
    // and a truncated sub-proof must not let the query answer.
    kb::KnowledgeBase base;
    base.consult(kCount);
    kb::Solver solver(base);
    std::vector<kb::SolveStats> stats;
    std::vector<std::size_t> found;
    const std::vector<const char *> deep = {
        "count(6000)", "count(50000)", "findall(N, count(6000), L)",
        "\\+ count(6000)", "\\+ count(6000) ; true"};
    std::vector<const char *> queries = deep;
    queries.push_back("count(100)");
    solveOnEightMegabyteStack(solver, queries, found, stats);
    ASSERT_EQ(stats.size(), queries.size());
    for (std::size_t i = 0; i < deep.size(); ++i) {
        EXPECT_EQ(found[i], 0u) << deep[i];
        EXPECT_TRUE(stats[i].stackExhausted) << deep[i];
        EXPECT_FALSE(stats[i].budgetExhausted) << deep[i];
    }
    // A shallow proof still succeeds, and the flag is per solve.
    EXPECT_EQ(found.back(), 1u);
    EXPECT_FALSE(stats.back().stackExhausted);
}

TEST(SolverStackTest, HeadroomLeavesTheParentsDepth)
{
    // count(5000) fit an 8 MB stack before the check existed; the
    // headroom must not take that depth away.
    if (!kLeanFrames)
        GTEST_SKIP() << "frames of an unoptimised or sanitized build";
    kb::KnowledgeBase base;
    base.consult(kCount);
    kb::Solver solver(base);
    std::vector<kb::SolveStats> stats;
    std::vector<std::size_t> found;
    solveOnEightMegabyteStack(solver, {"count(5000)"}, found, stats);
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(found[0], 1u);
    EXPECT_FALSE(stats[0].stackExhausted);
}

} // namespace
} // namespace clare
