/**
 * @file
 * Training harness for Concorde's MLP: input standardization, feature
 * masking (for the Figure-12 ablations), minibatch AdamW with a halving
 * learning-rate schedule (Section 4), and multithreaded gradient
 * accumulation.
 */

#ifndef CONCORDE_ML_TRAINER_HH
#define CONCORDE_ML_TRAINER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/calibration.hh"
#include "ml/mlp.hh"

namespace concorde
{

/** Training hyperparameters (paper Section 4, scaled to CPU training). */
struct TrainConfig
{
    std::vector<size_t> hiddenSizes = {192, 96};
    double learningRate = 1e-3;
    /** Fractions of total steps at which the LR halves. */
    std::vector<double> lrHalveAt = {0.5, 0.65, 0.8, 0.9};
    double weightDecay = 0.01;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double adamEps = 1e-8;
    size_t batchSize = 512;
    size_t epochs = 60;
    uint64_t seed = 1234;
    size_t threads = 0;         ///< 0 = hardware concurrency
    bool verbose = false;
    /**
     * Fraction of samples held out for per-epoch validation (0 = train
     * on everything, no held-out metrics; standardization statistics
     * come from the training split only).
     */
    double valFraction = 0.0;
};

/** Field-wise TrainConfig serialization (checkpoints, artifacts). */
void saveTrainConfig(BinaryWriter &out, const TrainConfig &cfg);
TrainConfig loadTrainConfig(BinaryReader &in);

/**
 * A trained CPI predictor: the MLP plus its input pre-processing
 * (feature mask and standardization statistics).
 */
class TrainedModel
{
  public:
    TrainedModel() = default;
    TrainedModel(Mlp mlp, std::vector<float> mean, std::vector<float> stdev,
                 std::vector<uint8_t> mask);

    bool valid() const { return net != nullptr; }
    size_t inputDim() const { return featureMean.size(); }

    /** Predict from raw (unmasked, unstandardized) features. */
    float predict(const float *raw_features) const;

    /**
     * Batch prediction: the whole batch is standardized once into one
     * contiguous matrix, then evaluated through Mlp::forwardBatch as a
     * blocked GEMM, sharded across threads. Matches predict() per row.
     */
    std::vector<float> predictBatch(const std::vector<float> &features,
                                    size_t dim, size_t threads = 0) const;

    /** Mean relative error over a labeled set. */
    double meanRelativeError(const std::vector<float> &features,
                             const std::vector<float> &labels,
                             size_t dim) const;

    /**
     * Stream serialization; on disk a model lives inside a ModelArtifact
     * (core/model_artifact.hh), never as a file of its own.
     */
    void save(BinaryWriter &out) const;
    static TrainedModel load(BinaryReader &in);

  private:
    void buildInvStd();

    std::shared_ptr<const Mlp> net;
    std::vector<float> featureMean;
    std::vector<float> featureStd;
    std::vector<float> featureInvStd;   ///< 1/std, 0 for masked-out dims
    std::vector<size_t> maskedDims;     ///< indices forced to zero
    std::vector<uint8_t> featureMask;   ///< empty = keep everything
};

/** Held-out / training metrics of one completed epoch. */
struct EpochMetrics
{
    size_t epoch = 0;           ///< 0-based
    double trainRelErr = 0.0;   ///< mean relative error over the epoch
    double valRelErr = -1.0;    ///< held-out mean rel error (<0 = no split)
    double lr = 0.0;            ///< learning rate after the epoch
};

/** Result of a (possibly partial) training run. */
struct TrainRun
{
    TrainedModel model;         ///< state as of the last completed epoch
    std::vector<EpochMetrics> history;  ///< all completed epochs so far
    bool finished = false;      ///< config.epochs epochs are done
    /**
     * Split-conformal calibration fitted on the validation split
     * (scores from the held-out residuals, feature envelope from the
     * training split). Invalid/empty when valFraction == 0 -- the
     * model then ships uncalibrated and serves point predictions only.
     */
    ConformalCalibration calibration;

    size_t epochsCompleted() const { return history.size(); }
};

/**
 * Train an MLP CPI predictor.
 *
 * @param features n x dim row-major raw features
 * @param labels n CPI targets
 * @param mask optional keep-mask (masked-out dims are zeroed)
 */
TrainedModel trainMlp(const std::vector<float> &features,
                      const std::vector<float> &labels, size_t dim,
                      const TrainConfig &config,
                      const std::vector<uint8_t> *mask = nullptr);

/**
 * Checkpointable / resumable training with an optional validation split.
 *
 * If `checkpoint_path` is non-empty, the full optimizer state (weights,
 * AdamW moments and step, shuffle-RNG state, LR-schedule position,
 * metric history) is written there atomically after every epoch, and a
 * pre-existing checkpoint resumes training from its last completed
 * epoch (a killed writer's staging files are reclaimed first). A
 * resumed run is bitwise-identical to one that never stopped -- the
 * checkpoint stores the (data, config, thread-count) fingerprint
 * and refuses to resume against anything else, since gradient summation
 * order depends on the worker count.
 *
 * @param max_epochs_this_run stop (with a checkpoint on disk) after this
 *        many additional epochs; 0 = train to config.epochs
 */
TrainRun trainMlpResumable(const std::vector<float> &features,
                           const std::vector<float> &labels, size_t dim,
                           const TrainConfig &config,
                           const std::vector<uint8_t> *mask = nullptr,
                           const std::string &checkpoint_path = "",
                           size_t max_epochs_this_run = 0);

} // namespace concorde

#endif // CONCORDE_ML_TRAINER_HH
