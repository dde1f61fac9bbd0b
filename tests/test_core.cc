/**
 * @file
 * Tests for the dataset builder and the Concorde predictor API.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/serialize.hh"
#include "core/concorde.hh"
#include "core/dataset.hh"

namespace concorde
{
namespace
{

DatasetConfig
smallConfig(size_t n, uint64_t seed)
{
    DatasetConfig config;
    config.numSamples = n;
    config.regionChunks = 2;
    config.seed = seed;
    return config;
}

TEST(Dataset, BuildPopulatesEverything)
{
    const Dataset data = buildDataset(smallConfig(12, 1));
    const FeatureLayout layout{FeatureConfig{}};
    EXPECT_EQ(data.size(), 12u);
    EXPECT_EQ(data.dim, layout.dim());
    EXPECT_EQ(data.features.size(), 12 * layout.dim());
    for (size_t i = 0; i < data.size(); ++i) {
        EXPECT_GT(data.labels[i], 0.0f);
        EXPECT_EQ(data.labels[i], data.meta[i].cpi);
        EXPECT_GT(data.meta[i].execRatio, 0.0f);
        EXPECT_GE(data.meta[i].avgRobOcc, 0.0f);
        EXPECT_LE(data.meta[i].avgRobOcc, 100.0f);
    }
}

TEST(Dataset, DeterministicAcrossThreadCounts)
{
    DatasetConfig config = smallConfig(8, 2);
    config.threads = 1;
    const Dataset serial = buildDataset(config);
    config.threads = 8;
    const Dataset parallel = buildDataset(config);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial.labels[i], parallel.labels[i]);
        EXPECT_EQ(serial.meta[i].region.startChunk,
                  parallel.meta[i].region.startChunk);
    }
    EXPECT_EQ(serial.features, parallel.features);
}

TEST(Dataset, FixedUarchIsRespected)
{
    DatasetConfig config = smallConfig(6, 3);
    config.useFixedUarch = true;
    config.fixedUarch = UarchParams::armN1();
    const Dataset data = buildDataset(config);
    for (const auto &meta : data.meta)
        EXPECT_TRUE(meta.params == UarchParams::armN1());
}

TEST(Dataset, ProgramFilterIsRespected)
{
    DatasetConfig config = smallConfig(10, 4);
    config.programFilter = {2, 5};
    const Dataset data = buildDataset(config);
    for (const auto &meta : data.meta) {
        EXPECT_TRUE(meta.region.programId == 2
                    || meta.region.programId == 5);
    }
}

TEST(Dataset, SubsetSelectsRows)
{
    const Dataset data = buildDataset(smallConfig(10, 5));
    const Dataset sub = data.subset({1, 3, 7});
    ASSERT_EQ(sub.size(), 3u);
    EXPECT_EQ(sub.labels[0], data.labels[1]);
    EXPECT_EQ(sub.labels[2], data.labels[7]);
    for (size_t d = 0; d < data.dim; ++d)
        EXPECT_EQ(sub.row(1)[d], data.row(3)[d]);
}

TEST(Dataset, SaveLoadRoundTrip)
{
    const std::string path = "/tmp/concorde_test_dataset.bin";
    const Dataset data = buildDataset(smallConfig(6, 6));
    data.save(path);
    const Dataset loaded = Dataset::load(path);
    EXPECT_EQ(loaded.size(), data.size());
    EXPECT_EQ(loaded.dim, data.dim);
    EXPECT_EQ(loaded.features, data.features);
    EXPECT_EQ(loaded.labels, data.labels);
    EXPECT_EQ(loaded.meta[2].region.programId,
              data.meta[2].region.programId);
    std::remove(path.c_str());
}

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

} // namespace

TEST(Dataset, SaveLoadSaveIsByteIdentical)
{
    // The field-wise v2 format must round-trip exactly: save -> load ->
    // save produces the same bytes, so shard files are comparable with
    // a plain byte diff and resumed builds can be checked bitwise.
    const std::string path_a = "/tmp/concorde_test_dataset_a.bin";
    const std::string path_b = "/tmp/concorde_test_dataset_b.bin";
    const Dataset data = buildDataset(smallConfig(5, 16));
    data.save(path_a);
    Dataset::load(path_a).save(path_b);
    EXPECT_EQ(fileBytes(path_a), fileBytes(path_b));
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(Dataset, AppendConcatenatesRows)
{
    const Dataset a = buildDataset(smallConfig(3, 18));
    const Dataset b = buildDataset(smallConfig(4, 19));
    Dataset joined;
    joined.append(a);
    joined.append(b);
    ASSERT_EQ(joined.size(), 7u);
    EXPECT_EQ(joined.dim, a.dim);
    EXPECT_EQ(joined.labels[1], a.labels[1]);
    EXPECT_EQ(joined.labels[4], b.labels[1]);
    for (size_t d = 0; d < a.dim; ++d) {
        EXPECT_EQ(joined.row(3)[d], b.row(0)[d]);
    }
}

TEST(UarchParams, FieldWiseSaveLoadRoundTrip)
{
    Rng rng(77);
    const std::string path = "/tmp/concorde_test_params.bin";
    for (int i = 0; i < 8; ++i) {
        const UarchParams params = UarchParams::sampleRandom(rng);
        {
            BinaryWriter out(path);
            params.save(out);
        }
        BinaryReader in(path);
        const UarchParams loaded = UarchParams::load(in);
        EXPECT_TRUE(loaded == params);
        EXPECT_EQ(loaded.hashKey(), params.hashKey());
    }
    std::remove(path.c_str());
}

TEST(Dataset, AlternativeLabelVectors)
{
    const Dataset data = buildDataset(smallConfig(5, 7));
    const auto rob = data.robOccLabels();
    const auto rename = data.renameOccLabels();
    ASSERT_EQ(rob.size(), 5u);
    for (size_t i = 0; i < rob.size(); ++i) {
        EXPECT_EQ(rob[i], data.meta[i].avgRobOcc);
        EXPECT_EQ(rename[i], data.meta[i].avgRenameOcc);
    }
}

TEST(Dataset, LabelsVaryAcrossSamples)
{
    const Dataset data = buildDataset(smallConfig(16, 8));
    float lo = data.labels[0], hi = data.labels[0];
    for (float y : data.labels) {
        lo = std::min(lo, y);
        hi = std::max(hi, y);
    }
    EXPECT_GT(hi, lo * 1.2) << "random (region, uarch) pairs must vary";
}

TEST(Predictor, ProviderAndOneShotAgree)
{
    const Dataset data = buildDataset(smallConfig(40, 9));
    TrainConfig tc;
    tc.epochs = 4;
    tc.threads = 4;
    TrainedModel model =
        trainMlp(data.features, data.labels, data.dim, tc);
    ConcordePredictor predictor(std::move(model), FeatureConfig{});

    const RegionSpec spec = data.meta[0].region;
    const UarchParams &params = data.meta[0].params;
    FeatureProvider provider(spec, FeatureConfig{});
    const double via_provider = predictor.predictCpi(provider, params);
    const double one_shot = predictor.predictCpi(spec, params);
    EXPECT_DOUBLE_EQ(via_provider, one_shot);
    EXPECT_GT(via_provider, 0.0);
}

TEST(Predictor, LongProgramAveragesSamples)
{
    const Dataset data = buildDataset(smallConfig(30, 11));
    TrainConfig tc;
    tc.epochs = 3;
    tc.threads = 4;
    TrainedModel model =
        trainMlp(data.features, data.labels, data.dim, tc);
    ConcordePredictor predictor(std::move(model), FeatureConfig{});
    const double estimate = predictor.predictLongProgram(
        UarchParams::armN1(), 0, 0, 64, 3, 2, 123);
    EXPECT_GT(estimate, 0.0);
    // Determinism.
    EXPECT_EQ(estimate, predictor.predictLongProgram(
        UarchParams::armN1(), 0, 0, 64, 3, 2, 123));
}

} // anonymous namespace
} // namespace concorde
