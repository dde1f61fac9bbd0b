/**
 * @file
 * Tiny binary serialization for artifact caching (datasets, trained models).
 * Format: little-endian PODs; vectors as u64 length + payload. Not meant to
 * be portable across architectures; it is a local cache format.
 */

#ifndef CONCORDE_COMMON_SERIALIZE_HH
#define CONCORDE_COMMON_SERIALIZE_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace concorde
{

/** Streaming binary writer over a stdio FILE. */
class BinaryWriter
{
  public:
    explicit BinaryWriter(const std::string &path);
    ~BinaryWriter();
    BinaryWriter(const BinaryWriter &) = delete;
    BinaryWriter &operator=(const BinaryWriter &) = delete;

    template <typename T>
    void
    put(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        write(&value, sizeof(T));
    }

    template <typename T>
    void
    putVector(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        put<uint64_t>(v.size());
        if (!v.empty())
            write(v.data(), v.size() * sizeof(T));
    }

    void putString(const std::string &s);

    /** True if the file opened successfully. */
    bool ok() const { return file != nullptr; }

  private:
    void write(const void *data, size_t bytes);
    std::FILE *file;
};

/** Streaming binary reader over a stdio FILE. */
class BinaryReader
{
  public:
    explicit BinaryReader(const std::string &path);
    ~BinaryReader();
    BinaryReader(const BinaryReader &) = delete;
    BinaryReader &operator=(const BinaryReader &) = delete;

    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        read(&value, sizeof(T));
        return value;
    }

    template <typename T>
    std::vector<T>
    getVector()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const uint64_t n = get<uint64_t>();
        std::vector<T> v(n);
        if (n > 0)
            read(v.data(), n * sizeof(T));
        return v;
    }

    std::string getString();

    bool ok() const { return file != nullptr; }

  private:
    void read(void *data, size_t bytes);
    std::FILE *file;
};

/** True if a regular file exists at path. */
bool fileExists(const std::string &path);

/** mkdir -p equivalent; fatal() on failure. */
void ensureDir(const std::string &path);

/**
 * FNV-1a hash of a file's bytes; fatal() if the file cannot be read.
 * Used to fingerprint dataset manifests for artifact provenance.
 */
uint64_t fileHash(const std::string &path);

/** FNV-1a over an in-memory buffer, chainable via `seed`. */
uint64_t hashBytes(const void *data, size_t bytes,
                   uint64_t seed = 0xcbf29ce484222325ULL);

/**
 * A temporary name for staging `final_path`: `<final_path>.tmp.<pid>.<n>`.
 * The pid + per-process counter make the name unique across concurrent
 * worker processes (and across retries within one process), so two
 * writers racing on the same output never clobber each other's
 * half-written staging file. Stale staging files from dead writers are
 * identifiable by their embedded pid.
 */
std::string uniqueTmpName(const std::string &final_path);

/**
 * Atomically and durably publish `tmp_path` as `final_path`. Writers of
 * resumable outputs (dataset shards, training checkpoints) write to a
 * temporary name first so a killed run never leaves a truncated file
 * under the final name. The temporary file is fsync'd before the
 * rename(2) and the parent directory after it, so a crash immediately
 * after publishFile returns cannot leave an empty or truncated file
 * under the final name for a resume to trust.
 */
void publishFile(const std::string &tmp_path, const std::string &final_path);

/**
 * Remove staging files of `final_path` (`<final_path>.tmp.<pid>.<n>`,
 * plus the fixed `<final_path>.tmp` that builds predating uniqueTmpName
 * wrote) whose writer process is provably dead -- the crash-recovery
 * sweep for any file maintained with the uniqueTmpName + publishFile
 * discipline. The published file itself is never touched: publishFile's
 * rename is atomic, so it is always the last complete version.
 * @return files removed.
 */
size_t reclaimStagingDebris(const std::string &final_path);

/** reclaimStagingDebris for the staging files of every file in `dir`. */
size_t reclaimDirStagingDebris(const std::string &dir);

} // namespace concorde

#endif // CONCORDE_COMMON_SERIALIZE_HH
