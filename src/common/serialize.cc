#include "common/serialize.hh"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace concorde
{

BinaryWriter::BinaryWriter(const std::string &path)
    : file(std::fopen(path.c_str(), "wb"))
{
    fatal_if(!file, "cannot open '%s' for writing: %s", path.c_str(),
             std::strerror(errno));
}

BinaryWriter::~BinaryWriter()
{
    if (file)
        std::fclose(file);
}

void
BinaryWriter::putString(const std::string &s)
{
    put<uint64_t>(s.size());
    write(s.data(), s.size());
}

void
BinaryWriter::write(const void *data, size_t bytes)
{
    if (bytes == 0)
        return;
    const size_t written = std::fwrite(data, 1, bytes, file);
    fatal_if(written != bytes, "short write (%zu of %zu bytes)", written,
             bytes);
}

BinaryReader::BinaryReader(const std::string &path)
    : file(std::fopen(path.c_str(), "rb"))
{
    fatal_if(!file, "cannot open '%s' for reading: %s", path.c_str(),
             std::strerror(errno));
}

BinaryReader::~BinaryReader()
{
    if (file)
        std::fclose(file);
}

std::string
BinaryReader::getString()
{
    const uint64_t n = get<uint64_t>();
    std::string s(n, '\0');
    read(s.data(), n);
    return s;
}

void
BinaryReader::read(void *data, size_t bytes)
{
    if (bytes == 0)
        return;
    const size_t got = std::fread(data, 1, bytes, file);
    fatal_if(got != bytes, "short read (%zu of %zu bytes)", got, bytes);
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

uint64_t
hashBytes(const void *data, size_t bytes, uint64_t seed)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    uint64_t h = seed;
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;              // FNV-1a prime
    }
    return h;
}

uint64_t
fileHash(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    fatal_if(!f, "cannot hash '%s': %s", path.c_str(),
             std::strerror(errno));
    uint64_t h = 0xcbf29ce484222325ULL;    // FNV-1a offset basis
    unsigned char buf[1 << 16];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        h = hashBytes(buf, got, h);
    const bool bad = std::ferror(f) != 0;
    std::fclose(f);
    fatal_if(bad, "read error hashing '%s'", path.c_str());
    return h;
}

std::string
uniqueTmpName(const std::string &final_path)
{
    static std::atomic<uint64_t> counter{0};
    return final_path + ".tmp." + std::to_string(::getpid()) + "."
        + std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

void
publishFile(const std::string &tmp_path, const std::string &final_path)
{
    // Flush the staged bytes to stable storage before the rename can
    // make them visible under the final name: rename(2) alone orders
    // nothing, and a crash right after it would otherwise let a resume
    // trust an empty or truncated "published" file.
    const int fd = ::open(tmp_path.c_str(), O_RDONLY | O_CLOEXEC);
    fatal_if(fd < 0, "cannot open '%s' to sync it: %s", tmp_path.c_str(),
             std::strerror(errno));
    const int sync_err = ::fsync(fd) != 0 ? errno : 0;
    ::close(fd);
    fatal_if(sync_err, "cannot sync '%s': %s", tmp_path.c_str(),
             std::strerror(sync_err));

    fatal_if(std::rename(tmp_path.c_str(), final_path.c_str()) != 0,
             "cannot publish '%s' as '%s': %s", tmp_path.c_str(),
             final_path.c_str(), std::strerror(errno));

    // Make the rename itself durable. Skipped silently if the directory
    // cannot be opened (exotic filesystems); an fsync failure on an
    // opened directory is still fatal.
    const auto slash = final_path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : final_path.substr(0, slash);
    const int dfd = ::open(dir.empty() ? "/" : dir.c_str(),
                           O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd >= 0) {
        const int dir_err = ::fsync(dfd) != 0 ? errno : 0;
        ::close(dfd);
        fatal_if(dir_err, "cannot sync directory of '%s': %s",
                 final_path.c_str(), std::strerror(dir_err));
    }
}

namespace
{

/**
 * True if `name` stages `base` (any file when `base` is empty) and its
 * writer is provably dead: `<base>.tmp.<pid>.<n>` with a dead pid, or
 * the fixed `<base>.tmp` of builds that predate uniqueTmpName, which
 * embeds no pid and so can never be a live writer's.
 */
bool
deadStagingFile(const std::string &name, const std::string &base)
{
    const auto tag = name.rfind(".tmp");
    if (tag == std::string::npos || tag == 0
        || (!base.empty()
            && (tag != base.size() || name.compare(0, tag, base) != 0)))
        return false;
    if (tag + 4 == name.size())
        return true;
    if (name[tag + 4] != '.')
        return false;
    // Parse "<pid>.<counter>" after the tag.
    const char *pid_str = name.c_str() + tag + 5;
    char *end = nullptr;
    const long pid = std::strtol(pid_str, &end, 10);
    if (end == pid_str || pid <= 0 || *end != '.')
        return false;
    char *counter_end = nullptr;
    (void)std::strtol(end + 1, &counter_end, 10);
    if (counter_end == end + 1 || *counter_end != '\0')
        return false;
    // Only ESRCH proves the writer is gone: EPERM would mean a live
    // process owned by another user, whose file must stay.
    return ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH;
}

size_t
sweepStagingDebris(const std::string &dir, const std::string &base)
{
    DIR *d = ::opendir(dir.empty() ? "/" : dir.c_str());
    if (!d)
        return 0;
    std::vector<std::string> stale;
    while (struct dirent *entry = ::readdir(d)) {
        if (deadStagingFile(entry->d_name, base))
            stale.push_back(entry->d_name);
    }
    ::closedir(d);

    size_t removed = 0;
    for (const auto &name : stale) {
        const std::string path = dir + "/" + name;
        warn("removing stale staging file '%s'", path.c_str());
        if (::unlink(path.c_str()) == 0)
            ++removed;
    }
    return removed;
}

} // anonymous namespace

size_t
reclaimStagingDebris(const std::string &final_path)
{
    const auto slash = final_path.find_last_of('/');
    if (slash == std::string::npos)
        return sweepStagingDebris(".", final_path);
    return sweepStagingDebris(final_path.substr(0, slash),
                              final_path.substr(slash + 1));
}

size_t
reclaimDirStagingDebris(const std::string &dir)
{
    return sweepStagingDebris(dir, "");
}

void
ensureDir(const std::string &path)
{
    std::string partial;
    for (size_t i = 0; i <= path.size(); ++i) {
        if (i == path.size() || path[i] == '/') {
            if (!partial.empty() && partial != "/") {
                if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST)
                    fatal("mkdir '%s': %s", partial.c_str(),
                          std::strerror(errno));
            }
        }
        if (i < path.size())
            partial.push_back(path[i]);
    }
}

} // namespace concorde
