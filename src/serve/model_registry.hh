/**
 * @file
 * ModelRegistry: named, shared ownership of trained ConcordePredictors.
 * A serving deployment holds several models at once (different uarch
 * parameter spaces, region lengths, or training runs); the registry
 * hands out shared_ptr snapshots so request threads read models without
 * copying them and without holding any lock while predicting, and a
 * model can be replaced atomically while in-flight batches finish on
 * the old one.
 */

#ifndef CONCORDE_SERVE_MODEL_REGISTRY_HH
#define CONCORDE_SERVE_MODEL_REGISTRY_HH

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/concorde.hh"
#include "core/model_artifact.hh"

namespace concorde
{
namespace serve
{

/** A registered model: the predictor plus its registry identity. */
struct ModelHandle
{
    std::string name;
    uint32_t id = 0;    ///< stable per-registration id (cache-key salt)
    std::shared_ptr<const ConcordePredictor> predictor;
    /** Provenance of the artifact it came from (null for bare models). */
    std::shared_ptr<const ArtifactProvenance> provenance;
    /**
     * Conformal calibration of the artifact it came from (null for
     * bare or uncalibrated models -- those serve point-only).
     */
    std::shared_ptr<const ConformalCalibration> calibration;

    bool valid() const { return predictor != nullptr; }
    bool calibrated() const { return calibration != nullptr; }
};

/** Thread-safe name -> predictor table with copy-free shared access. */
class ModelRegistry
{
  public:
    ModelRegistry() = default;

    /**
     * Register (or replace) a model under `name`. Replacement is an
     * atomic hot-swap: requests already holding the old handle finish
     * on the old snapshot, new lookups see the new one, and the bumped
     * registration id salts every cache key, so cached predictions of
     * the old model can never be returned for the new one.
     */
    ModelHandle add(const std::string &name, ConcordePredictor predictor);

    /** Register (or hot-swap to) a versioned model artifact. */
    ModelHandle addArtifact(const std::string &name,
                            const ModelArtifact &artifact);

    /** Look up a model; returns an invalid handle if absent. */
    ModelHandle get(const std::string &name) const;

    /** Remove a model; in-flight holders keep their shared_ptr. */
    bool remove(const std::string &name);

    /** Registered names, sorted. */
    std::vector<std::string> names() const;

    size_t size() const;

  private:
    mutable std::mutex mtx;
    std::unordered_map<std::string, ModelHandle> models;
    uint32_t nextId = 1;
};

} // namespace serve
} // namespace concorde

#endif // CONCORDE_SERVE_MODEL_REGISTRY_HH
