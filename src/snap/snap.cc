#include "snap/snap.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"

namespace sst::snap
{

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
Hasher::mixU64(std::uint64_t v)
{
    std::uint8_t le[8];
    for (int i = 0; i < 8; ++i)
        le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    mix(le, sizeof(le));
}

void
Writer::f64(double v)
{
    // Bit pattern, not text: exact round trip including -0.0 and NaN.
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Writer::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
}

void
Writer::bytes(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    buf_.insert(buf_.end(), p, p + len);
}

void
Writer::tag(const char *name)
{
    str(name);
}

std::uint64_t
Writer::hash() const
{
    return fnv1a(buf_.data(), buf_.size());
}

void
Reader::failNeed(std::size_t n) const
{
    fatal("snapshot: truncated stream (need %zu bytes at offset %zu, "
          "have %zu)",
          n, pos_, size_ - pos_);
}

void
Reader::failBool(std::uint8_t v) const
{
    fatal("snapshot: bad bool encoding 0x%02x at offset %zu", v, pos_ - 1);
}

void
Reader::failExpect(const char *what, std::uint64_t got,
                   std::uint64_t want) const
{
    fatal("snapshot: %s %llu where %llu expected (configuration mismatch)",
          what, static_cast<unsigned long long>(got),
          static_cast<unsigned long long>(want));
}

void
Reader::failExpect(const char *what, const std::string &got,
                   const std::string &want) const
{
    fatal("snapshot: %s '%s' where '%s' expected (configuration mismatch)",
          what, got.c_str(), want.c_str());
}

void
Reader::failCount(std::uint64_t n, std::size_t at, std::size_t minBytes,
                  std::size_t max) const
{
    if (n > max)
        fatal("snapshot: count %llu at offset %zu exceeds the limit %zu "
              "(corrupt snapshot)",
              static_cast<unsigned long long>(n), at, max);
    fatal("snapshot: count %llu at offset %zu of %zu-byte elements "
          "overruns the %zu remaining bytes (corrupt snapshot)",
          static_cast<unsigned long long>(n), at, minBytes, remaining());
}

void
Reader::failEnum(const char *what, std::uint8_t v) const
{
    fatal("snapshot: bad %s %u (corrupt snapshot)", what, v);
}

double
Reader::f64()
{
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
Reader::str()
{
    std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char *>(data_ + pos_), len);
    pos_ += len;
    return s;
}

void
Reader::bytes(void *out, std::size_t len)
{
    need(len);
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
}

void
Reader::tag(const char *name)
{
    std::size_t at = pos_;
    std::string got = str();
    fatal_if(got != name,
             "snapshot: expected section '%s' at offset %zu, found '%s' "
             "(corrupt or incompatible snapshot)",
             name, at, got.c_str());
}

void
Reader::done() const
{
    fatal_if(pos_ != size_,
             "snapshot: %zu trailing bytes after last section (corrupt or "
             "incompatible snapshot)",
             size_ - pos_);
}

Result<void>
writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    // tmp + fsync + rename + directory fsync: the rename makes the
    // replacement atomic against process death, and the two fsyncs
    // extend that to power loss — without the directory fsync the
    // rename itself can be lost, leaving a stale (or no) checkpoint
    // after the machine comes back. The pid plus a per-process serial
    // in the tmp name keeps concurrent writers of the same target — a
    // re-leased job's new worker racing its stalled predecessor, or
    // two pool threads populating one profile-cache entry — from
    // renaming each other's half-written staging files into place.
    static std::atomic<unsigned long> writeSerial{0};
    std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "."
        + std::to_string(
            writeSerial.fetch_add(1, std::memory_order_relaxed));
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return Error{"cannot open '" + tmp + "' for writing: "
                     + std::strerror(errno)};
    std::size_t done = 0;
    while (done < bytes.size()) {
        ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            int err = errno;
            ::close(fd);
            std::remove(tmp.c_str());
            return Error{"short write to '" + tmp + "': "
                         + std::strerror(err)};
        }
        done += static_cast<std::size_t>(n);
    }
    bool synced = ::fsync(fd) == 0;
    bool closed = ::close(fd) == 0;
    if (!synced || !closed) {
        std::remove(tmp.c_str());
        return Error{"cannot sync '" + tmp + "': " + std::strerror(errno)};
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        int err = errno;
        std::remove(tmp.c_str());
        return Error{"cannot rename '" + tmp + "' to '" + path + "': "
                     + std::strerror(err)};
    }
    // Persist the rename: fsync the containing directory. Failure here
    // is reported (the caller may retry elsewhere) but the file content
    // itself is already safely in place for process-death crashes.
    std::size_t slash = path.find_last_of('/');
    std::string dir = slash == std::string::npos ? "."
                                                 : path.substr(0, slash);
    if (dir.empty())
        dir = "/";
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd < 0)
        return Error{"cannot open directory '" + dir + "' to sync '"
                     + path + "': " + std::strerror(errno)};
    bool dirSynced = ::fsync(dfd) == 0;
    int err = errno;
    ::close(dfd);
    if (!dirSynced)
        return Error{"cannot sync directory '" + dir + "' after writing '"
                     + path + "': " + std::strerror(err)};
    return {};
}

Result<void>
probeSnapshotFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return Error{"cannot open snapshot '" + path + "'"};
    std::uint8_t head[12];
    std::size_t got = std::fread(head, 1, sizeof(head), f);
    std::fclose(f);
    auto res = trapFatal([&] {
        Reader r(head, got);
        format(r);
    });
    if (!res.ok())
        return Error{"'" + path + "': " + res.error().message};
    return {};
}

Result<std::vector<std::uint8_t>>
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return Error{"cannot open snapshot '" + path + "'"};
    // Size from fstat, not fseek/ftell: on a directory those report a
    // bogus huge size and the allocation below would throw.
    struct stat st;
    if (::fstat(::fileno(f), &st) != 0) {
        std::fclose(f);
        return Error{"cannot size snapshot '" + path + "'"};
    }
    if (!S_ISREG(st.st_mode)) {
        std::fclose(f);
        return Error{"snapshot '" + path + "' is not a regular file"};
    }
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(st.st_size));
    std::size_t got =
        buf.empty() ? 0 : std::fread(buf.data(), 1, buf.size(), f);
    std::fclose(f);
    if (got != buf.size())
        return Error{"short read from snapshot '" + path + "'"};
    return buf;
}

} // namespace sst::snap
