/**
 * @file
 * End-to-end model-lifecycle tests: sharded checkpointable dataset
 * generation (bitwise resume), resumable training (bitwise resume of
 * the full optimizer state), versioned ModelArtifact round-trips,
 * registry hot-swap under concurrent load, and the CLI's strict
 * exit-code contract for every subcommand.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/artifacts.hh"
#include "core/dataset.hh"
#include "core/model_artifact.hh"
#include "serve/prediction_service.hh"

namespace concorde
{
namespace
{

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = "/tmp/concorde_lifecycle_" + name;
    const std::string cmd = "rm -rf '" + dir + "'";
    EXPECT_EQ(std::system(cmd.c_str()), 0);
    return dir;
}

DatasetConfig
smallConfig(size_t n, uint64_t seed)
{
    DatasetConfig config;
    config.numSamples = n;
    config.regionChunks = 2;
    config.seed = seed;
    return config;
}

/** Shared labeled dataset for the training tests (built once). */
const Dataset &
trainingData()
{
    static const Dataset data = buildDataset(smallConfig(48, 4242));
    return data;
}

TrainConfig
smallTrainConfig()
{
    TrainConfig tc;
    tc.epochs = 6;
    tc.batchSize = 16;
    tc.seed = 99;
    tc.threads = 2;
    tc.valFraction = 0.25;
    return tc;
}

// ---- sharded dataset generation ----

TEST(ShardedDataset, MatchesMonolithicBuildBitwise)
{
    const DatasetConfig config = smallConfig(17, 1001);
    const std::string dir = freshDir("shard_match");
    const auto result = buildDatasetShards(config, dir, 5);
    EXPECT_EQ(result.shardsBuilt, 4u);      // 5+5+5+2
    EXPECT_TRUE(result.complete());

    const Dataset sharded = loadDatasetShards(dir);
    const Dataset mono = buildDataset(config);
    ASSERT_EQ(sharded.size(), mono.size());
    EXPECT_EQ(sharded.dim, mono.dim);
    EXPECT_EQ(sharded.features, mono.features);
    EXPECT_EQ(sharded.labels, mono.labels);
    for (size_t i = 0; i < mono.size(); ++i) {
        EXPECT_TRUE(sharded.meta[i].params == mono.meta[i].params);
        EXPECT_EQ(sharded.meta[i].region.startChunk,
                  mono.meta[i].region.startChunk);
        EXPECT_EQ(sharded.meta[i].mispredicts, mono.meta[i].mispredicts);
        EXPECT_EQ(sharded.meta[i].execRatio, mono.meta[i].execRatio);
    }
}

TEST(ShardedDataset, InterruptedResumeIsByteIdentical)
{
    const DatasetConfig config = smallConfig(13, 2002);
    const size_t shard_samples = 4;     // shards of 4,4,4,1

    const std::string dir_full = freshDir("shard_full");
    const auto full = buildDatasetShards(config, dir_full, shard_samples);
    EXPECT_TRUE(full.complete());

    // "Kill" the run after every shard: each call generates one shard
    // and stops, mimicking a job that dies and restarts repeatedly.
    const std::string dir_resumed = freshDir("shard_resumed");
    size_t calls = 0;
    while (true) {
        const auto step =
            buildDatasetShards(config, dir_resumed, shard_samples, 1);
        ++calls;
        ASSERT_LE(calls, 16u) << "resume loop did not converge";
        if (step.complete())
            break;
        EXPECT_EQ(step.shardsBuilt, 1u);
    }
    EXPECT_EQ(calls, 4u);

    // Every artifact of the interrupted run must equal the
    // uninterrupted one byte for byte: manifest and all shards.
    EXPECT_EQ(fileBytes(DatasetManifest::manifestFile(dir_full)),
              fileBytes(DatasetManifest::manifestFile(dir_resumed)));
    const DatasetManifest manifest =
        DatasetManifest::load(DatasetManifest::manifestFile(dir_full));
    ASSERT_EQ(manifest.numShards(), 4u);
    for (size_t s = 0; s < manifest.numShards(); ++s) {
        EXPECT_EQ(fileBytes(DatasetManifest::shardFile(dir_full, s)),
                  fileBytes(DatasetManifest::shardFile(dir_resumed, s)))
            << "shard " << s;
    }

    // And a truncated-tempfile crash must not poison a resume: only
    // atomically renamed shards count.
    EXPECT_EQ(loadDatasetShards(dir_resumed).size(), 13u);
}

TEST(ShardedDataset, ReportsProgressAndSkipsCompletedShards)
{
    const DatasetConfig config = smallConfig(9, 3003);
    const std::string dir = freshDir("shard_progress");

    const auto first = buildDatasetShards(config, dir, 3, 1);
    EXPECT_EQ(first.shardsBuilt, 1u);
    EXPECT_EQ(first.shardsSkipped, 0u);
    EXPECT_EQ(first.shardsRemaining, 2u);
    EXPECT_FALSE(first.complete());

    const auto second = buildDatasetShards(config, dir, 3);
    EXPECT_EQ(second.shardsBuilt, 2u);
    EXPECT_EQ(second.shardsSkipped, 1u);
    EXPECT_TRUE(second.complete());

    // A fully complete rerun is a no-op.
    const auto third = buildDatasetShards(config, dir, 3);
    EXPECT_EQ(third.shardsBuilt, 0u);
    EXPECT_EQ(third.shardsSkipped, 3u);
    EXPECT_TRUE(third.complete());

    EXPECT_NE(datasetManifestHash(dir), 0u);
}

TEST(ShardedDatasetDeathTest, RejectsMismatchedConfig)
{
    DatasetConfig config = smallConfig(6, 4004);
    const std::string dir = freshDir("shard_mismatch");
    buildDatasetShards(config, dir, 3, 1);
    config.seed = 5005;     // different generation plan, same directory
    EXPECT_EXIT(buildDatasetShards(config, dir, 3),
                ::testing::ExitedWithCode(1), "different dataset config");
}

// ---- resumable training ----

TEST(ResumableTraining, ValidationMetricsArePopulated)
{
    const Dataset &data = trainingData();
    const TrainConfig tc = smallTrainConfig();
    const TrainRun run = trainMlpResumable(data.features, data.labels,
                                           data.dim, tc);
    EXPECT_TRUE(run.finished);
    ASSERT_EQ(run.history.size(), tc.epochs);
    for (size_t e = 0; e < run.history.size(); ++e) {
        EXPECT_EQ(run.history[e].epoch, e);
        EXPECT_GT(run.history[e].trainRelErr, 0.0);
        EXPECT_GE(run.history[e].valRelErr, 0.0) << "no held-out metric";
        EXPECT_GT(run.history[e].lr, 0.0);
    }
    // Training must actually reduce training error.
    EXPECT_LT(run.history.back().trainRelErr,
              run.history.front().trainRelErr);
    EXPECT_TRUE(run.model.valid());
}

TEST(ResumableTraining, NoValSplitMatchesLegacyTrainMlp)
{
    // valFraction == 0 must reproduce the historical trainMlp path
    // bit-for-bit (standardization over all rows, identity order).
    const Dataset &data = trainingData();
    TrainConfig tc = smallTrainConfig();
    tc.valFraction = 0.0;
    const TrainedModel via_wrapper =
        trainMlp(data.features, data.labels, data.dim, tc);
    const TrainRun run = trainMlpResumable(data.features, data.labels,
                                           data.dim, tc);
    const std::string path_a = "/tmp/concorde_lifecycle_legacy_a.bin";
    const std::string path_b = "/tmp/concorde_lifecycle_legacy_b.bin";
    via_wrapper.save(path_a);
    run.model.save(path_b);
    EXPECT_EQ(fileBytes(path_a), fileBytes(path_b));
    EXPECT_LT(run.history.back().valRelErr, 0.0) << "no split requested";
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(ResumableTraining, InterruptedResumeIsBitwiseIdentical)
{
    const Dataset &data = trainingData();
    const TrainConfig tc = smallTrainConfig();
    const std::string ckpt_full = "/tmp/concorde_lifecycle_ckpt_full.bin";
    const std::string ckpt_resume =
        "/tmp/concorde_lifecycle_ckpt_resume.bin";
    std::remove(ckpt_full.c_str());
    std::remove(ckpt_resume.c_str());

    const TrainRun full = trainMlpResumable(
        data.features, data.labels, data.dim, tc, nullptr, ckpt_full);
    EXPECT_TRUE(full.finished);

    // Kill training after epochs 2, 3 (1 more), and resume to the end.
    TrainRun resumed = trainMlpResumable(
        data.features, data.labels, data.dim, tc, nullptr, ckpt_resume, 2);
    EXPECT_FALSE(resumed.finished);
    EXPECT_EQ(resumed.epochsCompleted(), 2u);
    resumed = trainMlpResumable(
        data.features, data.labels, data.dim, tc, nullptr, ckpt_resume, 1);
    EXPECT_FALSE(resumed.finished);
    EXPECT_EQ(resumed.epochsCompleted(), 3u);
    resumed = trainMlpResumable(
        data.features, data.labels, data.dim, tc, nullptr, ckpt_resume);
    EXPECT_TRUE(resumed.finished);
    ASSERT_EQ(resumed.history.size(), full.history.size());

    // The resumed run must be indistinguishable from the uninterrupted
    // one: identical per-epoch metrics, identical final checkpoint
    // bytes, identical saved model bytes.
    for (size_t e = 0; e < full.history.size(); ++e) {
        EXPECT_EQ(resumed.history[e].trainRelErr,
                  full.history[e].trainRelErr) << "epoch " << e;
        EXPECT_EQ(resumed.history[e].valRelErr, full.history[e].valRelErr)
            << "epoch " << e;
        EXPECT_EQ(resumed.history[e].lr, full.history[e].lr);
    }
    EXPECT_EQ(fileBytes(ckpt_full), fileBytes(ckpt_resume));

    const std::string model_full = "/tmp/concorde_lifecycle_model_f.bin";
    const std::string model_resume = "/tmp/concorde_lifecycle_model_r.bin";
    full.model.save(model_full);
    resumed.model.save(model_resume);
    EXPECT_EQ(fileBytes(model_full), fileBytes(model_resume));
    std::remove(ckpt_full.c_str());
    std::remove(ckpt_resume.c_str());
    std::remove(model_full.c_str());
    std::remove(model_resume.c_str());
}

TEST(ResumableTrainingDeathTest, RejectsForeignCheckpoint)
{
    const Dataset &data = trainingData();
    TrainConfig tc = smallTrainConfig();
    const std::string ckpt = "/tmp/concorde_lifecycle_ckpt_foreign.bin";
    std::remove(ckpt.c_str());
    trainMlpResumable(data.features, data.labels, data.dim, tc, nullptr,
                      ckpt, 1);
    tc.seed = 1717;     // different run; resuming would corrupt it
    EXPECT_EXIT(trainMlpResumable(data.features, data.labels, data.dim,
                                  tc, nullptr, ckpt),
                ::testing::ExitedWithCode(1), "refusing to resume");
    std::remove(ckpt.c_str());
}

// ---- versioned model artifacts ----

TEST(ModelArtifact, SaveLoadRoundTripsEverything)
{
    const Dataset &data = trainingData();
    TrainConfig tc = smallTrainConfig();
    tc.epochs = 3;
    const TrainRun run = trainMlpResumable(data.features, data.labels,
                                           data.dim, tc);

    ModelArtifact artifact;
    artifact.features = FeatureConfig{};
    artifact.model = run.model;
    artifact.provenance.datasetManifestHash = 0xDEADBEEFCAFEF00DULL;
    artifact.provenance.datasetPath = "/data/train";
    artifact.provenance.gitDescribe = buildGitDescribe();
    artifact.provenance.trainConfig = tc;
    artifact.provenance.trainedEpochs = run.epochsCompleted();
    artifact.provenance.heldOutRelErr = run.history.back().valRelErr;

    const std::string path_a = "/tmp/concorde_lifecycle_artifact_a.bin";
    const std::string path_b = "/tmp/concorde_lifecycle_artifact_b.bin";
    artifact.save(path_a);
    const ModelArtifact loaded = ModelArtifact::load(path_a);

    EXPECT_EQ(loaded.provenance.datasetManifestHash,
              artifact.provenance.datasetManifestHash);
    EXPECT_EQ(loaded.provenance.datasetPath,
              artifact.provenance.datasetPath);
    EXPECT_EQ(loaded.provenance.gitDescribe,
              artifact.provenance.gitDescribe);
    EXPECT_EQ(loaded.provenance.trainedEpochs,
              artifact.provenance.trainedEpochs);
    EXPECT_EQ(loaded.provenance.heldOutRelErr,
              artifact.provenance.heldOutRelErr);
    EXPECT_EQ(loaded.provenance.trainConfig.epochs, tc.epochs);
    EXPECT_EQ(loaded.provenance.trainConfig.seed, tc.seed);
    EXPECT_EQ(loaded.provenance.trainConfig.valFraction, tc.valFraction);

    // Predictions from the loaded artifact are the exact same bits.
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(loaded.model.predict(data.row(i)),
                  artifact.model.predict(data.row(i)));
    }

    // save -> load -> save is byte-identical.
    loaded.save(path_b);
    EXPECT_EQ(fileBytes(path_a), fileBytes(path_b));
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(ModelArtifact, PipelineAndServiceConsumeArtifacts)
{
    const ModelArtifact artifact = [] {
        ModelArtifact a;
        a.features = FeatureConfig{};
        a.model = artifacts::untrainedModel(a.features, 31);
        a.provenance.gitDescribe = buildGitDescribe();
        return a;
    }();
    const std::string path = "/tmp/concorde_lifecycle_artifact_pipe.bin";
    artifact.save(path);

    TraceSpan span;
    span.programId = programIdByCode("S7");
    span.traceId = 0;
    span.startChunk = 16;
    span.numChunks = 8;
    const UarchParams params = UarchParams::armN1();

    // Pipeline from an artifact == pipeline from the bare predictor.
    pipeline::PipelineConfig pc;
    pc.regionChunks = 2;
    pc.mode = pipeline::ExecMode::Scalar;
    pc.state = pipeline::StateMode::Independent;
    const ConcordePredictor bare = artifact.predictor();
    pipeline::AnalysisPipeline from_bare(bare, pc);
    pipeline::AnalysisPipeline from_artifact(ModelArtifact::load(path),
                                             pc);
    const auto res_bare = from_bare.run(span, params);
    const auto res_artifact = from_artifact.run(span, params);
    ASSERT_EQ(res_bare.regionCpi.size(), res_artifact.regionCpi.size());
    for (size_t i = 0; i < res_bare.regionCpi.size(); ++i)
        EXPECT_EQ(res_bare.regionCpi[i], res_artifact.regionCpi[i]);
    EXPECT_EQ(res_bare.programCpi, res_artifact.programCpi);

    // Service hot-loads the artifact and serves matching predictions
    // (provenance travels with the handle).
    serve::PredictionService service{};
    const serve::ModelHandle handle = service.loadModel("prod", path);
    ASSERT_TRUE(handle.valid());
    ASSERT_NE(handle.provenance, nullptr);
    EXPECT_EQ(handle.provenance->gitDescribe,
              artifact.provenance.gitDescribe);
    RegionSpec region;
    region.programId = span.programId;
    region.startChunk = 16;
    region.numChunks = 2;
    EXPECT_EQ(service.predict("prod", region, params),
              bare.predictCpi(region, params));
    service.shutdown();
    std::remove(path.c_str());
}

// ---- registry hot-swap under load ----

TEST(RegistryHotSwap, EveryPredictionAttributableToExactlyOneVersion)
{
    // Three artifact versions of the same name, distinguishable by
    // their weights (different init seeds).
    const FeatureConfig fc;
    std::vector<ModelArtifact> versions;
    std::vector<std::string> paths;
    for (uint64_t v = 0; v < 3; ++v) {
        ModelArtifact a;
        a.features = fc;
        a.model = artifacts::untrainedModel(fc, 100 + v);
        a.provenance.trainedEpochs = v;
        versions.push_back(a);
        const std::string path = "/tmp/concorde_lifecycle_swap_"
            + std::to_string(v) + ".bin";
        a.save(path);
        paths.push_back(path);
    }

    // The request grid: 2 regions x 4 design points.
    std::vector<RegionSpec> regions;
    for (int r = 0; r < 2; ++r) {
        RegionSpec spec;
        spec.programId = programIdByCode("S7");
        spec.traceId = 0;
        spec.startChunk = 16 + 2 * r;
        spec.numChunks = 2;
        regions.push_back(spec);
    }
    std::vector<UarchParams> points;
    for (int p = 0; p < 4; ++p) {
        UarchParams params = UarchParams::armN1();
        params.set(ParamId::RobSize, 64 << p);
        points.push_back(params);
    }

    // Ground truth per version: the exact doubles each version's model
    // produces for every grid cell.
    std::vector<std::vector<double>> expected(versions.size());
    for (size_t v = 0; v < versions.size(); ++v) {
        const ConcordePredictor predictor = versions[v].predictor();
        for (const auto &region : regions) {
            FeatureProvider provider(region, fc);
            for (const auto &params : points) {
                expected[v].push_back(
                    predictor.predictCpi(provider, params));
            }
        }
    }
    // The versions must actually disagree, or attribution is vacuous.
    EXPECT_NE(expected[0][0], expected[1][0]);
    EXPECT_NE(expected[1][0], expected[2][0]);

    serve::PredictionService service{};
    service.registry().addArtifact("prod", versions[0]);

    // Hammer predict() from client threads while the main thread keeps
    // hot-swapping versions under the same name.
    std::atomic<bool> stop{false};
    std::atomic<size_t> checked{0};
    std::atomic<size_t> mismatches{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
        clients.emplace_back([&, c]() {
            size_t i = static_cast<size_t>(c);
            while (!stop.load(std::memory_order_relaxed)) {
                const size_t r = i % regions.size();
                const size_t p = (i / regions.size()) % points.size();
                const double got =
                    service.predict("prod", regions[r], points[p]);
                const size_t cell = r * points.size() + p;
                bool matches_some_version = false;
                for (size_t v = 0; v < versions.size(); ++v) {
                    if (got == expected[v][cell]) {
                        matches_some_version = true;
                        break;
                    }
                }
                if (!matches_some_version)
                    mismatches.fetch_add(1);
                checked.fetch_add(1);
                ++i;
            }
        });
    }
    for (int swap = 0; swap < 30; ++swap) {
        service.registry().addArtifact("prod",
                                       versions[swap % versions.size()]);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
    for (auto &t : clients)
        t.join();

    EXPECT_GT(checked.load(), 0u);
    // No torn reads, no cross-version mixtures: every returned double
    // is bitwise one version's answer.
    EXPECT_EQ(mismatches.load(), 0u);

    // Stale-cache check: the same grid cell served before and after a
    // swap must answer with the *new* version's bits (the registration
    // id salts the cache key, so the old entry cannot hit).
    for (size_t v = 0; v < versions.size(); ++v) {
        service.registry().addFromArtifactFile("prod", paths[v]);
        for (size_t r = 0; r < regions.size(); ++r) {
            for (size_t p = 0; p < points.size(); ++p) {
                EXPECT_EQ(service.predict("prod", regions[r], points[p]),
                          expected[v][r * points.size() + p])
                    << "version " << v;
            }
        }
    }
    service.shutdown();
    for (const auto &path : paths)
        std::remove(path.c_str());
}

// ---- CLI exit-code contract for every subcommand ----

#ifdef CONCORDE_CLI_PATH

/**
 * Exit status of the CLI on `args`. Every case here must fail fast, so a
 * run that hangs or starts training is cut off (timeout exits 124).
 */
int
cliExitCode(const std::string &args)
{
    const std::string cmd = "timeout 120 " + std::string(CONCORDE_CLI_PATH)
        + " " + args + " >/dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    EXPECT_NE(status, -1);
    return WEXITSTATUS(status);
}

TEST(CliExitCodes, LifecycleSubcommandsRejectMalformedFlags)
{
    // dataset
    EXPECT_EQ(cliExitCode("dataset"), 2) << "missing out=";
    EXPECT_EQ(cliExitCode("dataset out=/tmp/x bogus=3"), 2);
    EXPECT_EQ(cliExitCode("dataset out=/tmp/x samples=abc"), 2);
    EXPECT_EQ(cliExitCode("dataset out=/tmp/x shard=0"), 2);
    EXPECT_EQ(cliExitCode("dataset out=/tmp/x program=NOPE"), 2);
    // train
    EXPECT_EQ(cliExitCode("train data=/tmp/x"), 2) << "missing out=";
    EXPECT_EQ(cliExitCode("train data=/tmp/x out=/tmp/y val=1.5"), 2);
    EXPECT_EQ(cliExitCode("train data=/tmp/x out=/tmp/y val=nan"), 2);
    EXPECT_EQ(cliExitCode("train data=/tmp/x out=/tmp/y epochs=zero"), 2);
    EXPECT_EQ(cliExitCode("train data=/tmp/x out=/tmp/y max_epochs=2"), 2)
        << "partial run without a checkpoint persists nothing";
    EXPECT_EQ(cliExitCode("train frobnicate"), 2);
    // eval
    EXPECT_EQ(cliExitCode("eval model=/tmp/x"), 2) << "missing data=";
    EXPECT_EQ(cliExitCode("eval wat=1"), 2);
    // unknown subcommand keeps exiting 2 too
    EXPECT_EQ(cliExitCode("retrain"), 2);

    // Every other subcommand: an unknown key, a malformed value, an
    // out-of-range value and a missing required argument all exit 2
    // before any model is loaded or trained.
    EXPECT_EQ(cliExitCode("predict S7 bogus=1"), 2);
    EXPECT_EQ(cliExitCode("predict S7 rob=abc"), 2);
    EXPECT_EQ(cliExitCode("predict S7 rob=2000"), 2);
    EXPECT_EQ(cliExitCode("predict S7 rob=-5"), 2);
    EXPECT_EQ(cliExitCode("predict"), 2) << "missing <program>";
    EXPECT_EQ(cliExitCode("predict NOPE"), 2);
    EXPECT_EQ(cliExitCode("simulate S7 frob=1"), 2);
    EXPECT_EQ(cliExitCode("simulate S7 l1d=big"), 2);
    EXPECT_EQ(cliExitCode("simulate S7 l1d=8"), 2);
    EXPECT_EQ(cliExitCode("simulate"), 2) << "missing <program>";
    EXPECT_EQ(cliExitCode("attribute S7 8 bogus=1"), 2);
    EXPECT_EQ(cliExitCode("attribute S7 bp=maybe"), 2);
    EXPECT_EQ(cliExitCode("attribute S7 0"), 2);
    EXPECT_EQ(cliExitCode("attribute S7 2000000"), 2);
    EXPECT_EQ(cliExitCode("attribute S7 permutations=8"), 2)
        << "the permutation count is positional only";
    EXPECT_EQ(cliExitCode("attribute"), 2) << "missing <program>";
    EXPECT_EQ(cliExitCode("sweep S7 rob wat=1"), 2);
    EXPECT_EQ(cliExitCode("sweep S7 rob respawns=x"), 2);
    EXPECT_EQ(cliExitCode("sweep S7 rob workers=-1"), 2);
    EXPECT_EQ(cliExitCode("sweep S7 rob --model /tmp/x"), 2)
        << "--model is serve's flag only";
    EXPECT_EQ(cliExitCode("sweep S7"), 2) << "missing <param>";
    EXPECT_EQ(cliExitCode("sweep-worker S7 rob part=0 nparts=2 "
                          "out=/tmp/x bogus=1"), 2);
    EXPECT_EQ(cliExitCode("sweep-worker S7 rob part=x nparts=2 "
                          "out=/tmp/x"), 2);
    EXPECT_EQ(cliExitCode("sweep-worker S7 rob part=0 nparts=0 "
                          "out=/tmp/x"), 2);
    EXPECT_EQ(cliExitCode("sweep-worker S7 rob part=0 out=/tmp/x"), 2)
        << "missing nparts=";
    EXPECT_EQ(cliExitCode("serve S7 bogus=1"), 2);
    EXPECT_EQ(cliExitCode("serve S7 clients=abc"), 2);
    EXPECT_EQ(cliExitCode("serve S7 alpha=abc"), 2);
    EXPECT_EQ(cliExitCode("serve S7 clients=-1"), 2);
    EXPECT_EQ(cliExitCode("serve S7 alpha=1"), 2);
    EXPECT_EQ(cliExitCode("serve S7 listen=70000"), 2)
        << "a port past 65535 must not wrap";
    EXPECT_EQ(cliExitCode("serve S7 fallback=2"), 2) << "fallback is 0|1";
    EXPECT_EQ(cliExitCode("serve S7 fallback_reject=2"), 2);
    EXPECT_EQ(cliExitCode("serve S7 --model"), 2) << "missing the path";
    EXPECT_EQ(cliExitCode("serve"), 2) << "missing <program>";
    EXPECT_EQ(cliExitCode("pipeline S7 bogus=1"), 2);
    EXPECT_EQ(cliExitCode("pipeline S7 mode=fast"), 2);
    EXPECT_EQ(cliExitCode("pipeline S7 chunks=x"), 2);
    EXPECT_EQ(cliExitCode("pipeline S7 chunks=0"), 2);
    EXPECT_EQ(cliExitCode("pipeline S7 threads=-2"), 2);
    // Chunk counts are uint32_t: a value past 4294967295 must not wrap.
    EXPECT_EQ(cliExitCode("pipeline S7 region=4294967297"), 2);
    EXPECT_EQ(cliExitCode("pipeline S7 warmup=4294967296"), 2);
    EXPECT_EQ(cliExitCode("dataset out=/tmp/x chunks=4294967297"), 2);
    EXPECT_EQ(cliExitCode("dataset-worker out=/tmp/x shards=0 "
                          "chunks=4294967296"), 2);
    EXPECT_EQ(cliExitCode("pipeline"), 2) << "missing <program>";
    EXPECT_EQ(cliExitCode("dataset-worker out=/tmp/x shards=0 bogus=1"), 2);
    EXPECT_EQ(cliExitCode("dataset-worker out=/tmp/x shards=0 "
                          "samples=abc"), 2);
    EXPECT_EQ(cliExitCode("dataset-worker out=/tmp/x shards=0 shard=0"), 2);
    EXPECT_EQ(cliExitCode("dataset-worker out=/tmp/x shards=0 "
                          "program=NOPE"), 2);
    EXPECT_EQ(cliExitCode("dataset-worker shards=0"), 2) << "missing out=";
    EXPECT_EQ(cliExitCode("list x"), 2) << "list takes no arguments";
    EXPECT_EQ(cliExitCode("list bogus=1"), 2);
    EXPECT_EQ(cliExitCode(""), 2) << "no subcommand prints the usage";

    // Cross-option checks.
    EXPECT_EQ(cliExitCode("pipeline S7 mode=service state=carry"), 2);
    EXPECT_EQ(cliExitCode("pipeline S7 mode=service warmup=4"), 2);

    // A missing model artifact is a missing file: exit 1, not 2.
    EXPECT_EQ(cliExitCode("serve S7 --model /nonexistent"), 1);
    EXPECT_EQ(cliExitCode("serve S7 model=/nonexistent"), 1);
}

#endif // CONCORDE_CLI_PATH

} // anonymous namespace
} // namespace concorde
