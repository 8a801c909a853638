/**
 * @file
 * Persistent store tests: content addressing, atomic publish, tolerant
 * loading (corruption / truncation / mislabeling quarantines instead of
 * throwing), LRU eviction order, single-flight racing through the
 * two-tier cache, and the end-to-end guarantee that a corrupted on-disk
 * artifact costs a recompilation, never a failed request.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "lmdes/image.h"
#include "machines/machines.h"
#include "random_mdes.h"
#include "service/cache.h"
#include "service/service.h"
#include "store/store.h"
#include "support/faultsim.h"
#include "support/fnv.h"
#include "support/rng.h"

namespace mdes {
namespace {

namespace fs = std::filesystem;

using lmdes::LowMdes;
using store::ArtifactStore;
using store::StoreConfig;

/** A fresh per-test store directory under the system temp dir. */
fs::path
freshDir(const std::string &name)
{
    fs::path dir = fs::temp_directory_path() /
                   ("mdes-test-store-" + std::to_string(::getpid()) + "-" +
                    name);
    fs::remove_all(dir);
    return dir;
}

/** A tiny distinct machine per @p salt so tests can mint distinct keys. */
Mdes
tinyMachine(int salt = 0)
{
    Mdes m("tiny" + std::to_string(salt));
    ResourceId r = m.addResourceClass("R", 2 + salt);
    OptionId o = m.addOption({{{0, r}, {1, r + 1}}});
    OrTreeId t = m.addOrTree({"T", {o}});
    TreeId tree = m.addTree({"Tbl", {t}});
    m.addOpClass({"OP", tree, 2, kInvalidId, "test"});
    return m;
}

/** Read a whole file into a string. */
std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Rewrite @p path with @p data plus a freshly computed whole-file
 * trailer, so deliberate *format* patches are not mistaken for rot. */
void
resealArtifact(const fs::path &path, std::string data)
{
    ASSERT_GE(data.size(), 8u);
    uint64_t sum = fnv1a64(data.data(), data.size() - 8);
    std::memcpy(&data[data.size() - 8], &sum, sizeof(sum));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), std::streamsize(data.size()));
}

/** Flip one byte of @p path at @p offset (from the end if negative). */
void
flipByte(const fs::path &path, int64_t offset)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekg(0, std::ios::end);
    int64_t size = f.tellg();
    int64_t at = offset >= 0 ? offset : size + offset;
    ASSERT_GE(at, 0);
    ASSERT_LT(at, size);
    f.seekg(at);
    char c = 0;
    f.read(&c, 1);
    c = char(uint8_t(c) ^ 0xA5);
    f.seekp(at);
    f.write(&c, 1);
}

TEST(StoreKey, StableAndInputSensitive)
{
    const std::string source = "fake hmdes source";
    uint64_t base =
        store::artifactKey(source, PipelineConfig::all(), true);
    EXPECT_EQ(base,
              store::artifactKey(source, PipelineConfig::all(), true));
    EXPECT_NE(base, store::artifactKey(source + " ",
                                       PipelineConfig::all(), true));
    EXPECT_NE(base,
              store::artifactKey(source, PipelineConfig::none(), true));
    EXPECT_NE(base,
              store::artifactKey(source, PipelineConfig::all(), false));
    EXPECT_NE(base, store::artifactKey(source, PipelineConfig::all(), true,
                                       exp::Rep::OrTree));

    PipelineConfig backward = PipelineConfig::all();
    backward.direction = SchedDirection::Backward;
    EXPECT_NE(base, store::artifactKey(source, backward, true));
}

TEST(Store, BuiltInSourceHashContinuesToTheSameKey)
{
    // Requests for built-in machines key from the FNV state saved with
    // the registry. The keys must stay bit-identical to hashing source
    // then config fingerprint in one pass, or every artifact already in
    // a disk tier would be orphaned.
    std::vector<const machines::MachineInfo *> infos = machines::all();
    for (const auto *info : machines::extensions())
        infos.push_back(info);
    ASSERT_EQ(infos.size(), 6u);
    for (const auto *info : infos) {
        for (const PipelineConfig &cfg :
             {PipelineConfig::none(), PipelineConfig::all()}) {
            for (bool bit_vector : {false, true}) {
                uint64_t fp = store::configFingerprint(cfg, bit_vector);
                std::string bytes(info->source);
                bytes.append(reinterpret_cast<const char *>(&fp),
                             sizeof(fp));
                uint64_t one_pass = fnv1a64(bytes);
                EXPECT_EQ(store::artifactKey(info->source, cfg, bit_vector),
                          one_pass)
                    << info->name;
                EXPECT_EQ(store::artifactKeyFromSourceHash(
                              info->source_hash, cfg, bit_vector),
                          one_pass)
                    << info->name;
            }
        }
    }
}

TEST(Store, PublishIsAtomicAndRoundTrips)
{
    fs::path dir = freshDir("roundtrip");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    uint64_t key = 0x1234ABCDull;

    ASSERT_TRUE(s.store(key, low, 42));
    EXPECT_TRUE(fs::exists(dir / store::artifactFileName(key)));
    EXPECT_TRUE(fs::exists(dir / store::metaFileName(key)));
    // Nothing half-written may remain after a successful publish.
    for (const auto &entry : fs::directory_iterator(dir))
        EXPECT_EQ(entry.path().filename().string().find(".tmp-"),
                  std::string::npos)
            << entry.path();

    auto loaded = s.load(key);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(*loaded, low);

    auto infos = s.list();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos[0].key, key);
    EXPECT_EQ(infos[0].config_fingerprint, 42u);
    EXPECT_FALSE(infos[0].quarantined);

    store::StoreStats st = s.stats();
    EXPECT_EQ(st.stores, 1u);
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.corrupt, 0u);
    fs::remove_all(dir);
}

TEST(Store, OrphanedPublishTempsAreSweptAtOpenAndByPrune)
{
    // A publisher killed between temp-write and rename (kill -9 under
    // the supervision plane) leaves a ".tmp-*" orphan. The next open
    // must sweep it, count it, and leave real artifacts alone.
    fs::path dir = freshDir("residue");
    {
        ArtifactStore s(StoreConfig{.dir = dir.string()});
        LowMdes low = LowMdes::lower(tinyMachine(), {});
        ASSERT_TRUE(s.store(0xBEEF, low, 7));
    }
    std::ofstream(dir / ".tmp-123-abc") << "half-written artifact";
    std::ofstream(dir / ".tmp-456-def") << "another casualty";

    ArtifactStore s(StoreConfig{.dir = dir.string()});
    EXPECT_EQ(s.stats().residue_swept, 2u);
    for (const auto &entry : fs::directory_iterator(dir))
        EXPECT_EQ(entry.path().filename().string().find(".tmp-"),
                  std::string::npos)
            << entry.path();
    // The real artifact survived the sweep.
    EXPECT_NE(s.load(0xBEEF), nullptr);

    // prune() also sweeps residue that appeared while the store was
    // open (a sibling process crashing mid-publish into the same dir).
    std::ofstream(dir / ".tmp-789-ghi") << "late orphan";
    store::PruneResult pr = s.prune(UINT64_MAX);
    EXPECT_EQ(pr.residue_removed, 1u);
    EXPECT_EQ(pr.removed, 0u);
    EXPECT_EQ(s.stats().residue_swept, 3u);
    EXPECT_FALSE(fs::exists(dir / ".tmp-789-ghi"));
    fs::remove_all(dir);
}

TEST(Store, MissOnAbsentKey)
{
    fs::path dir = freshDir("miss");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    EXPECT_EQ(s.load(0xDEAD), nullptr);
    EXPECT_EQ(s.stats().misses, 1u);
    fs::remove_all(dir);
}

TEST(Store, CorruptArtifactIsQuarantinedThenReplaced)
{
    fs::path dir = freshDir("corrupt");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    uint64_t key = 7;
    ASSERT_TRUE(s.store(key, low, 0));

    flipByte(dir / store::artifactFileName(key), -10);
    EXPECT_EQ(s.load(key), nullptr);
    EXPECT_FALSE(fs::exists(dir / store::artifactFileName(key)));
    EXPECT_FALSE(fs::exists(dir / store::metaFileName(key)));
    EXPECT_TRUE(fs::exists(dir / store::quarantineFileName(key)));
    store::StoreStats st = s.stats();
    EXPECT_EQ(st.corrupt, 1u);
    EXPECT_EQ(st.misses, 1u);

    auto infos = s.list();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_TRUE(infos[0].quarantined);

    // Republishing heals the slot and clears the quarantine file.
    ASSERT_TRUE(s.store(key, low, 0));
    EXPECT_FALSE(fs::exists(dir / store::quarantineFileName(key)));
    auto loaded = s.load(key);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(*loaded, low);
    fs::remove_all(dir);
}

TEST(Store, TruncatedArtifactIsQuarantined)
{
    fs::path dir = freshDir("truncated");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    uint64_t key = 9;
    ASSERT_TRUE(s.store(key, low, 0));

    fs::path file = dir / store::artifactFileName(key);
    fs::resize_file(file, fs::file_size(file) / 2);
    EXPECT_EQ(s.load(key), nullptr);
    EXPECT_TRUE(fs::exists(dir / store::quarantineFileName(key)));
    EXPECT_EQ(s.stats().corrupt, 1u);
    fs::remove_all(dir);
}

TEST(Store, MislabeledArtifactIsQuarantined)
{
    // A file whose header names a different key (e.g. a bad copy) must
    // not be served under the name it sits at.
    fs::path dir = freshDir("mislabel");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    ASSERT_TRUE(s.store(11, low, 0));
    fs::copy_file(dir / store::artifactFileName(11),
                  dir / store::artifactFileName(12));
    EXPECT_EQ(s.load(12), nullptr);
    EXPECT_TRUE(fs::exists(dir / store::quarantineFileName(12)));
    // The honest slot still serves.
    EXPECT_NE(s.load(11), nullptr);
    fs::remove_all(dir);
}

TEST(Store, PruneEvictsLeastRecentlyAccessedFirst)
{
    fs::path dir = freshDir("prune");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    uint64_t total = 0;
    for (int i = 0; i < 3; ++i) {
        LowMdes low = LowMdes::lower(tinyMachine(i), {});
        ASSERT_TRUE(s.store(uint64_t(i + 1), low, 0));
        total += fs::file_size(dir / store::artifactFileName(i + 1));
    }
    // Pin the access order deterministically: key 2 oldest, then 3,
    // key 1 most recent.
    auto now = fs::file_time_type::clock::now();
    using std::chrono::hours;
    fs::last_write_time(dir / store::metaFileName(2), now - hours(48));
    fs::last_write_time(dir / store::metaFileName(3), now - hours(24));
    fs::last_write_time(dir / store::metaFileName(1), now);

    // Budget for two artifacts: exactly the oldest (key 2) must go.
    uint64_t one = fs::file_size(dir / store::artifactFileName(1));
    store::PruneResult pr = s.prune(total - one + 1);
    EXPECT_EQ(pr.removed, 1u);
    EXPECT_FALSE(fs::exists(dir / store::artifactFileName(2)));
    EXPECT_TRUE(fs::exists(dir / store::artifactFileName(3)));
    EXPECT_TRUE(fs::exists(dir / store::artifactFileName(1)));
    EXPECT_LE(pr.bytes_after, pr.bytes_before);
    EXPECT_EQ(s.stats().evictions, 1u);

    // A zero budget clears the store.
    pr = s.prune(0);
    EXPECT_EQ(pr.removed, 2u);
    EXPECT_EQ(pr.bytes_after, 0u);
    fs::remove_all(dir);
}

TEST(Store, PruneRemovesQuarantinedFiles)
{
    fs::path dir = freshDir("prune_bad");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    ASSERT_TRUE(s.store(1, low, 0));
    flipByte(dir / store::artifactFileName(1), -10);
    EXPECT_EQ(s.load(1), nullptr);
    ASSERT_TRUE(fs::exists(dir / store::quarantineFileName(1)));

    // Even an unbounded sweep drops quarantined files.
    s.prune(uint64_t(-1));
    EXPECT_FALSE(fs::exists(dir / store::quarantineFileName(1)));
    fs::remove_all(dir);
}

TEST(Store, QuarantineRacingPruneIsSafe)
{
    // Quarantine (corrupt loads renaming artifacts to .bad), republish,
    // and prune all race on one store. Nothing may crash, and once the
    // dust settles a pruned slot stays pruned - quarantine must never
    // resurrect an artifact.
    fs::path dir = freshDir("quarantine_race");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    constexpr uint64_t kKeys = 4;
    LowMdes low = LowMdes::lower(tinyMachine(), {});

    // Seed every slot and verify the quarantine accounting that `store
    // stat` reports: corrupt loads flag each artifact in list().
    faultsim::install(faultsim::Plan::parse("seed=21,store/corrupt-byte=1"));
    for (uint64_t key = 1; key <= kKeys; ++key)
        ASSERT_TRUE(s.store(key, low, 0));
    for (uint64_t key = 1; key <= kKeys; ++key)
        EXPECT_EQ(s.load(key), nullptr);
    uint64_t quarantined = 0;
    for (const auto &info : s.list())
        quarantined += info.quarantined;
    EXPECT_EQ(quarantined, kKeys);

    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    // Publishers keep healing slots, loaders keep quarantining them
    // (every read corrupts under the plan), the pruner keeps emptying
    // the directory out from under both.
    for (int t = 0; t < 2; ++t)
        threads.emplace_back([&] {
            while (!stop)
                for (uint64_t key = 1; key <= kKeys; ++key)
                    s.store(key, low, 0);
        });
    for (int t = 0; t < 2; ++t)
        threads.emplace_back([&] {
            while (!stop)
                for (uint64_t key = 1; key <= kKeys; ++key)
                    s.load(key);
        });
    threads.emplace_back([&] {
        while (!stop)
            s.prune(0);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    stop = true;
    for (auto &t : threads)
        t.join();
    faultsim::uninstall();

    // Final sweep: a pruned store stays empty (no resurrection), and
    // every slot reads as a clean miss.
    s.prune(0);
    EXPECT_TRUE(fs::is_empty(dir));
    for (uint64_t key = 1; key <= kKeys; ++key)
        EXPECT_EQ(s.load(key), nullptr);
    // The store still works after the storm.
    ASSERT_TRUE(s.store(1, low, 0));
    auto healed = s.load(1);
    ASSERT_NE(healed, nullptr);
    EXPECT_EQ(*healed, low);
    fs::remove_all(dir);
}

TEST(Store, SizeBudgetTriggersEvictionOnPublish)
{
    fs::path dir = freshDir("budget");
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    // Measure one published artifact (container header + padding +
    // image + trailer); every key yields the same size, so a budget of
    // exactly one file means at most one survives each publish.
    uint64_t artifact_bytes = 0;
    {
        fs::path probe_dir = freshDir("budget_probe");
        ArtifactStore probe(StoreConfig{.dir = probe_dir.string()});
        ASSERT_TRUE(probe.store(1, low, 0));
        artifact_bytes =
            fs::file_size(probe_dir / store::artifactFileName(1));
        fs::remove_all(probe_dir);
    }
    ArtifactStore s(StoreConfig{.dir = dir.string(),
                                .max_bytes = artifact_bytes});
    for (uint64_t key = 1; key <= 4; ++key)
        ASSERT_TRUE(s.store(key, low, 0));
    uint64_t artifacts = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".lmdes")
            ++artifacts;
    EXPECT_EQ(artifacts, 1u);
    EXPECT_GT(s.stats().evictions, 0u);
    fs::remove_all(dir);
}

TEST(Store, RandomMachinesRoundTripThroughDisk)
{
    fs::path dir = freshDir("random");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    Rng rng(0xBEEFull);
    for (uint64_t key = 1; key <= 8; ++key) {
        Mdes m = testing::randomMdes(rng);
        lmdes::LowerOptions opts;
        opts.pack_bit_vector = rng.chance(0.5);
        LowMdes low = LowMdes::lower(m, opts);
        ASSERT_TRUE(s.store(key, low, key));
        auto loaded = s.load(key);
        ASSERT_NE(loaded, nullptr);
        EXPECT_EQ(*loaded, low);
    }
    fs::remove_all(dir);
}

TEST(Store, MappedHitBorrowsTheFileAndSkipsDeserialization)
{
    // The tentpole contract: a warm load attaches the artifact in place
    // (mapped, zero full deserializations), it does not parse it.
    fs::path dir = freshDir("mapped");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    ASSERT_TRUE(s.store(5, low, 0));

    uint64_t before = lmdes::fullDeserializations();
    auto loaded = s.load(5);
    ASSERT_NE(loaded, nullptr);
    EXPECT_TRUE(loaded->mapped());
    EXPECT_EQ(lmdes::fullDeserializations(), before);
    EXPECT_EQ(*loaded, low);
    EXPECT_EQ(s.stats().mapped_hits, 1u);
    fs::remove_all(dir);
}

TEST(Store, StaleContainerVersionIsEvictedNotQuarantined)
{
    // Plant an artifact whose *container* claims an older store format:
    // healthy bytes from another release. The load must read as a plain
    // miss, silently drop the entry (no .bad residue, no corrupt
    // count), and let a republish heal the slot.
    fs::path dir = freshDir("stale_container");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    uint64_t key = 31;
    ASSERT_TRUE(s.store(key, low, 0));

    fs::path file = dir / store::artifactFileName(key);
    std::string data = slurp(file);
    uint32_t old_version = 2;
    std::memcpy(&data[4], &old_version, sizeof(old_version));
    resealArtifact(file, std::move(data));

    // list() can see the staleness before any load touches it.
    auto infos = s.list();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_TRUE(infos[0].stale);
    EXPECT_FALSE(infos[0].quarantined);

    EXPECT_EQ(s.load(key), nullptr);
    EXPECT_FALSE(fs::exists(file));
    EXPECT_FALSE(fs::exists(dir / store::metaFileName(key)));
    EXPECT_FALSE(fs::exists(dir / store::quarantineFileName(key)));
    store::StoreStats st = s.stats();
    EXPECT_EQ(st.stale_evicted, 1u);
    EXPECT_EQ(st.corrupt, 0u);
    EXPECT_EQ(st.misses, 1u);

    // The recompile-and-republish path starts from a clean slot.
    ASSERT_TRUE(s.store(key, low, 0));
    auto healed = s.load(key);
    ASSERT_NE(healed, nullptr);
    EXPECT_EQ(*healed, low);
    fs::remove_all(dir);
}

TEST(Store, StaleImageVersionIsEvictedNotQuarantined)
{
    // Same contract one layer down: the container is current but the
    // LMDES image inside speaks an older format version. Still "written
    // by another release", still a silent evict-and-recompile.
    fs::path dir = freshDir("stale_image");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    uint64_t key = 33;
    ASSERT_TRUE(s.store(key, low, 0));

    fs::path file = dir / store::artifactFileName(key);
    std::string data = slurp(file);
    size_t img_off = data.find("LMDS", 4);
    ASSERT_NE(img_off, std::string::npos);
    uint32_t old_version = 6;
    std::memcpy(&data[img_off + 4], &old_version, sizeof(old_version));
    resealArtifact(file, std::move(data));

    EXPECT_EQ(s.load(key), nullptr);
    EXPECT_FALSE(fs::exists(file));
    EXPECT_FALSE(fs::exists(dir / store::quarantineFileName(key)));
    store::StoreStats st = s.stats();
    EXPECT_EQ(st.stale_evicted, 1u);
    EXPECT_EQ(st.corrupt, 0u);
    fs::remove_all(dir);
}

TEST(Store, MidPageCorruptionQuarantines)
{
    // A flip in the middle of the image (not near the header or the
    // trailer) must still read as Corrupt: the trailer covers every
    // byte of the file.
    fs::path dir = freshDir("midpage");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    uint64_t key = 40;
    ASSERT_TRUE(s.store(key, low, 0));
    fs::path file = dir / store::artifactFileName(key);
    flipByte(file, int64_t(fs::file_size(file) / 2));

    EXPECT_EQ(s.load(key), nullptr);
    EXPECT_TRUE(fs::exists(dir / store::quarantineFileName(key)));
    store::StoreStats st = s.stats();
    EXPECT_EQ(st.corrupt, 1u);
    EXPECT_EQ(st.stale_evicted, 0u);
    fs::remove_all(dir);
}

TEST(Store, LiveMappingSurvivesPruneAndQuarantine)
{
    // The munmap-on-release contract: a held artifact stays valid after
    // the file underneath it is pruned, republished, corrupted, and
    // quarantined - the mapping pins the old inode.
    fs::path dir = freshDir("live_mapping");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    uint64_t key = 50;
    ASSERT_TRUE(s.store(key, low, 0));

    auto held = s.load(key);
    ASSERT_NE(held, nullptr);
    ASSERT_TRUE(held->mapped());

    // Prune everything out from under the mapping.
    s.prune(0);
    EXPECT_FALSE(fs::exists(dir / store::artifactFileName(key)));
    EXPECT_EQ(*held, low);

    // Republish, corrupt, quarantine - the held view never wobbles.
    ASSERT_TRUE(s.store(key, low, 0));
    auto second = s.load(key);
    ASSERT_NE(second, nullptr);
    flipByte(dir / store::artifactFileName(key), -10);
    EXPECT_EQ(s.load(key), nullptr);
    EXPECT_TRUE(fs::exists(dir / store::quarantineFileName(key)));
    EXPECT_EQ(*held, low);
    EXPECT_EQ(*second, low);

    // Releasing the views (munmap) after all that must be clean too.
    held.reset();
    second.reset();
    fs::remove_all(dir);
}

/** Order-sensitive FNV over every POD pool of @p low, so two processes
 * can compare the bytes they are actually scheduling from. */
uint64_t
podFingerprint(const lmdes::LowMdes &low)
{
    uint64_t h = kFnvOffset;
    auto span = [&h](auto s) { h = fnv1a64(s.data(), s.size_bytes(), h); };
    span(low.checks());
    span(low.options());
    span(low.optionRefs());
    span(low.orTrees());
    span(low.orRefs());
    span(low.trees());
    span(low.treeSummaries());
    span(low.prefilter());
    span(low.bypasses());
    return h;
}

TEST(Store, ForkedProcessesServeBitIdenticalArtifacts)
{
    // N sharded `mdesc serve` processes are modeled by a fork: parent
    // and child each open the store and map the same artifact; the
    // bytes they serve must be bit-identical (one physical copy in the
    // page cache, not N deserialized replicas).
    fs::path dir = freshDir("forked");
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    uint64_t key = 60;
    {
        ArtifactStore publisher(StoreConfig{.dir = dir.string()});
        ASSERT_TRUE(publisher.store(key, low, 0));
    }

    int pipefd[2];
    ASSERT_EQ(::pipe(pipefd), 0);
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: its own store handle, its own mapping, its own
        // fingerprint back through the pipe. _exit keeps gtest and
        // stdio state out of the forked copy.
        ::close(pipefd[0]);
        uint64_t fp = 0;
        try {
            ArtifactStore child(StoreConfig{.dir = dir.string()});
            auto loaded = child.load(key);
            if (loaded && loaded->mapped())
                fp = podFingerprint(*loaded);
        } catch (...) {
        }
        ssize_t n = ::write(pipefd[1], &fp, sizeof(fp));
        ::close(pipefd[1]);
        ::_exit(n == sizeof(fp) ? 0 : 1);
    }
    ::close(pipefd[1]);
    uint64_t child_fp = 0;
    ASSERT_EQ(::read(pipefd[0], &child_fp, sizeof(child_fp)),
              ssize_t(sizeof(child_fp)));
    ::close(pipefd[0]);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    ArtifactStore parent(StoreConfig{.dir = dir.string()});
    auto loaded = parent.load(key);
    ASSERT_NE(loaded, nullptr);
    ASSERT_TRUE(loaded->mapped());
    EXPECT_NE(child_fp, 0u);
    EXPECT_EQ(podFingerprint(*loaded), child_fp);
    EXPECT_EQ(podFingerprint(low), child_fp);
    fs::remove_all(dir);
}

TEST(TwoTierCache, RacingThreadsCompileOnceAndPublishOnce)
{
    fs::path dir = freshDir("race");
    auto disk = std::make_shared<ArtifactStore>(
        StoreConfig{.dir = dir.string()});
    service::DescriptionCache cache(8);
    cache.attachStore(disk);

    const uint64_t key = 77;
    std::atomic<int> compiled{0};
    auto compile = [&]() -> service::CompileResult {
        ++compiled;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return {std::make_shared<const LowMdes>(
                    LowMdes::lower(tinyMachine(), {})),
                false};
    };

    std::vector<std::thread> threads;
    std::vector<service::CompiledMdes> results(8);
    for (size_t i = 0; i < results.size(); ++i)
        threads.emplace_back(
            [&, i] { results[i] = cache.getOrCompile(key, compile); });
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(compiled.load(), 1);
    for (const auto &r : results) {
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r, results[0]); // one shared artifact, not copies
    }
    EXPECT_EQ(disk->stats().stores, 1u);
    EXPECT_TRUE(fs::exists(dir / store::artifactFileName(key)));

    // A later process (fresh memory tier, same store) never compiles.
    service::DescriptionCache restarted(8);
    restarted.attachStore(disk);
    service::DescriptionCache::Lookup lookup;
    auto again = restarted.getOrCompile(key, compile, &lookup);
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(compiled.load(), 1);
    EXPECT_FALSE(lookup.hit);
    EXPECT_TRUE(lookup.disk);
    EXPECT_EQ(*again, *results[0]);
    fs::remove_all(dir);
}

TEST(TwoTierCache, CorruptStoredArtifactMeansRecompileNotFailure)
{
    // The acceptance guarantee: corrupting a stored artifact yields a
    // recompilation, never a caller-visible error.
    fs::path dir = freshDir("service_corrupt");
    service::ScheduleRequest req;
    req.machine = "K5";
    req.synth_ops = 200;

    {
        service::MdesService svc({.num_workers = 2,
                                  .store_dir = dir.string()});
        auto responses = svc.runBatch({req});
        ASSERT_TRUE(responses[0].ok()) << responses[0].error.message;
    }
    // Exactly one artifact was published; rot it.
    uint64_t artifacts = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".lmdes")
            continue;
        ++artifacts;
        flipByte(entry.path(), -10);
    }
    ASSERT_EQ(artifacts, 1u);

    service::MdesService svc({.num_workers = 2,
                              .store_dir = dir.string()});
    auto responses = svc.runBatch({req});
    ASSERT_TRUE(responses[0].ok()) << responses[0].error.message;
    EXPECT_FALSE(responses[0].disk_hit);

    service::DescriptionCache::Stats cs = svc.cache().stats();
    EXPECT_EQ(cs.compiles, 1u);
    EXPECT_EQ(cs.disk_hits, 0u);
    EXPECT_EQ(cs.disk_corrupt, 1u);
    // The recompiled artifact was republished and now serves restarts.
    service::MdesService healed({.num_workers = 2,
                                 .store_dir = dir.string()});
    auto after = healed.runBatch({req});
    ASSERT_TRUE(after[0].ok());
    EXPECT_TRUE(after[0].disk_hit);
    EXPECT_EQ(healed.cache().stats().compiles, 0u);
    fs::remove_all(dir);
}

} // namespace
} // namespace mdes
