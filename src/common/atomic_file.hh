/**
 * @file
 * Crash-safe file output: write to `path.tmp`, fsync, then rename
 * over the final path, so a consumer never sees a partially written
 * file. Every machine-readable artifact the tools produce
 * (--stats-json, --trace-out, --prof-json, --why-json, the
 * MTSIM_BENCH_JSON row dump) goes through this - a crash, ^C or a
 * checker exit-3 mid-write leaves at worst a stale `.tmp`, never a
 * truncated JSON that downstream tooling would parse as valid.
 */

#ifndef MTSIM_COMMON_ATOMIC_FILE_HH
#define MTSIM_COMMON_ATOMIC_FILE_HH

#include <fstream>
#include <string>

namespace mtsim {

class AtomicFile
{
  public:
    /** Open @p path + ".tmp" for writing. Check ok() afterwards. */
    explicit AtomicFile(const std::string &path);

    /** Removes the temporary when commit() was never reached. */
    ~AtomicFile();

    AtomicFile(const AtomicFile &) = delete;
    AtomicFile &operator=(const AtomicFile &) = delete;

    /** The stream to write through. */
    std::ostream &stream() { return out_; }

    bool ok() const { return out_.good(); }

    /**
     * Flush, fsync and rename the temporary over the final path.
     * @return false when any step failed (the temporary is removed).
     * Idempotent; writing after commit is a programming error.
     */
    bool commit();

    const std::string &path() const { return path_; }
    const std::string &tmpPath() const { return tmp_; }

  private:
    std::string path_;
    std::string tmp_;
    std::ofstream out_;
    bool committed_ = false;
};

} // namespace mtsim

#endif // MTSIM_COMMON_ATOMIC_FILE_HH
