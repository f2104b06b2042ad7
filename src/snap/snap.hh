/**
 * @file
 * Versioned, endian-stable binary serialization of machine state.
 *
 * Every stateful simulator component describes its serialized state
 * once, as `template <class Io> void io(Io &s)`, and Writer and Reader
 * both visit that one body: `s.u64(field)` writes the field under a
 * Writer and reads it back into the same field under a Reader, so the
 * save and load directions cannot drift apart. Each component's .cc
 * explicitly instantiates its io() for both visitors; virtual state
 * (a core model's extras, a predictor's tables) forwards a Writer& and
 * a Reader& overload to one template. The few genuinely one-sided steps
 * (sorted emission of unordered containers, decode checks) sit inside
 * the same body under `if constexpr (Io::loading)`.
 *
 * The encoding is deliberately dumb: fixed-width little-endian
 * integers, length-prefixed strings and sequences, and explicit tag
 * markers at section boundaries so a corrupt or mismatched snapshot
 * fails with a named location instead of silently misaligned reads.
 * Writer output is a pure function of the saved state — no pointers,
 * no map iteration order, no host endianness — which is what makes the
 * FNV state hash (and the `sstsim diff` divergence search built on it)
 * meaningful across processes and machines.
 *
 * Error discipline: Reader failures call fatal(), matching the repo's
 * convention for bad user input; CLI entry points wrap restore paths in
 * trapFatal() to convert them into exit codes. Every length prefix
 * goes through count(), which rejects a count the remaining bytes
 * cannot hold before anything is allocated.
 */

#ifndef SSTSIM_SNAP_SNAP_HH
#define SSTSIM_SNAP_SNAP_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "common/result.hh"

namespace sst::snap
{

/** Bump on any change to an io() body: the bytes are the format. */
constexpr std::uint32_t formatVersion =
    4; // v4: per-strand branch history, per-epoch RAS, value predictor

/** Leading bytes of every snapshot file. */
constexpr std::uint64_t fileMagic = 0x30504e53'54535353ULL; // "SSSTSNP0"

/** FNV-1a 64-bit over @p len bytes, chained from @p seed. */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);

/** Incremental FNV-1a accumulator for component-wise state hashing. */
class Hasher
{
  public:
    void mix(const void *data, std::size_t len)
    {
        hash_ = fnv1a(data, len, hash_);
    }
    void mixU64(std::uint64_t v);
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Integer and enum fields: the types the fixed-width visitors take. */
template <class T>
concept Field = std::is_integral_v<T> || std::is_enum_v<T>;

/** Width of a count()'s length prefix. */
enum class Width
{
    u32,
    u64
};

/** Append-only little-endian encoder: the saving visitor of io(). */
class Writer
{
  public:
    static constexpr bool loading = false;

    // The fixed-width writers are inline: cache and image save loops
    // emit millions of these and the call overhead across translation
    // units would dominate the actual byte stores. Each narrows its
    // field to the encoded width, as the matching Reader visit widens
    // it back.
    template <Field T> void u8(const T &v)
    {
        buf_.push_back(static_cast<std::uint8_t>(v));
    }
    template <Field T> void u16(const T &v)
    {
        put(static_cast<std::uint16_t>(v), 2);
    }
    template <Field T> void u32(const T &v)
    {
        put(static_cast<std::uint32_t>(v), 4);
    }
    template <Field T> void u64(const T &v)
    {
        put(static_cast<std::uint64_t>(v), 8);
    }
    template <Field T> void i32(const T &v)
    {
        u32(static_cast<std::int32_t>(v));
    }
    template <Field T> void i64(const T &v)
    {
        u64(static_cast<std::int64_t>(v));
    }
    void b(bool v) { u8(v ? 1 : 0); }
    void f64(double v);
    void str(const std::string &s);
    void bytes(const void *data, std::size_t len);

    /** Section marker; Reader::tag() verifies it by name. */
    void tag(const char *name);

    /** A configuration-derived value (a geometry, a name) the loading
     *  side must find unchanged. Encoded at sizeof(T) bytes. */
    template <class T> void expect(const T &want, const char *)
    {
        if constexpr (std::is_same_v<T, std::string>)
            str(want);
        else
            put(static_cast<std::uint64_t>(want), sizeof(T));
    }

    /** Length prefix of a sequence of @p n elements (see Reader). */
    std::size_t count(Width w, std::size_t n, std::size_t /*minBytes*/,
                      std::size_t /*max*/ = SIZE_MAX)
    {
        put(n, w == Width::u32 ? 4 : 8);
        return n;
    }

    /** An enum stored as one byte, below @p end when loaded. */
    template <Field E> void enum8(const E &v, E /*end*/, const char *)
    {
        u8(v);
    }

    const std::vector<std::uint8_t> &data() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

    /** Move the encoded bytes out; the writer is spent afterwards. */
    std::vector<std::uint8_t> take() { return std::move(buf_); }

    /** FNV-1a over everything written so far. */
    std::uint64_t hash() const;

  private:
    void put(std::uint64_t v, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked little-endian decoder over a byte span: the loading
 *  visitor of io(). */
class Reader
{
  public:
    static constexpr bool loading = true;

    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }
    explicit Reader(const std::vector<std::uint8_t> &buf)
        : Reader(buf.data(), buf.size())
    {
    }

    // Inline for the same reason as the Writer side: restoring a warm
    // cache snapshot decodes six fields per line, and an out-of-line
    // call per field makes restore several times slower than the
    // underlying memory traffic. Only the cold failure paths stay in
    // the .cc file.
    std::uint8_t u8()
    {
        need(1);
        return data_[pos_++];
    }
    std::uint16_t u16() { return static_cast<std::uint16_t>(get(2)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(get(4)); }
    std::uint64_t u64() { return get(8); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    bool b()
    {
        std::uint8_t v = u8();
        if (v > 1)
            failBool(v);
        return v != 0;
    }
    double f64();
    std::string str();
    void bytes(void *out, std::size_t len);

    // The by-reference visits io() bodies use; each mirrors the Writer
    // visit of the same name.
    template <Field T> void u8(T &v) { v = static_cast<T>(u8()); }
    template <Field T> void u16(T &v) { v = static_cast<T>(u16()); }
    template <Field T> void u32(T &v) { v = static_cast<T>(u32()); }
    template <Field T> void u64(T &v) { v = static_cast<T>(u64()); }
    template <Field T> void i32(T &v) { v = static_cast<T>(i32()); }
    template <Field T> void i64(T &v) { v = static_cast<T>(i64()); }
    void b(bool &v) { v = b(); }
    void f64(double &v) { v = f64(); }
    void str(std::string &s) { s = str(); }

    /** Consume a tag written by Writer::tag(); fatal on mismatch. */
    void tag(const char *name);

    /** Read back a Writer::expect() value; fatal, naming @p what, if
     *  it differs from @p want. */
    template <class T> void expect(const T &want, const char *what)
    {
        if constexpr (std::is_same_v<T, std::string>) {
            std::string got = str();
            if (got != want)
                failExpect(what, got, want);
        } else {
            std::uint64_t got = get(sizeof(T));
            if (got != static_cast<std::uint64_t>(want))
                failExpect(what, got, static_cast<std::uint64_t>(want));
        }
    }

    /**
     * Read a sequence's length prefix. Fatal if the count exceeds
     * @p max, or if @p count elements of at least @p minBytes encoded
     * bytes each cannot fit in what remains, so a corrupt count fails
     * here instead of sizing an allocation. The Writer ignores
     * @p n's bounds and writes it.
     */
    std::size_t count(Width w, std::size_t /*n*/, std::size_t minBytes,
                      std::size_t max = SIZE_MAX)
    {
        std::size_t at = pos_;
        std::uint64_t n = w == Width::u32 ? u32() : u64();
        if (n > max || n > remaining() / minBytes) [[unlikely]]
            failCount(n, at, minBytes, max);
        return static_cast<std::size_t>(n);
    }

    /** A one-byte enum; fatal ("bad <what>") unless below @p end. */
    template <Field E> void enum8(E &v, E end, const char *what)
    {
        std::uint8_t raw = u8();
        if (raw >= static_cast<std::uint8_t>(end)) [[unlikely]]
            failEnum(what, raw);
        v = static_cast<E>(raw);
    }

    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

    /** Assert the whole buffer was consumed (trailing garbage check). */
    void done() const;

  private:
    void need(std::size_t n) const
    {
        if (size_ - pos_ < n) [[unlikely]]
            failNeed(n);
    }
    std::uint64_t get(std::size_t n)
    {
        need(n);
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < n; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += n;
        return v;
    }
    [[noreturn]] void failNeed(std::size_t n) const;
    [[noreturn]] void failBool(std::uint8_t v) const;
    [[noreturn]] void failExpect(const char *what, std::uint64_t got,
                                 std::uint64_t want) const;
    [[noreturn]] void failExpect(const char *what, const std::string &got,
                                 const std::string &want) const;
    [[noreturn]] void failCount(std::uint64_t n, std::size_t at,
                                std::size_t minBytes,
                                std::size_t max) const;
    [[noreturn]] void failEnum(const char *what, std::uint8_t v) const;

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** Save @p obj through its io(). The Writer visit only reads the
 *  object, so a const one (snapshot(), stateHash()) may be saved. */
template <class T>
void
save(Writer &w, const T &obj)
{
    const_cast<T &>(obj).io(w);
}

/**
 * A length-prefixed sequence: the count(), then @p fn(element) for each
 * element of @p c in order. Loading first replaces @p c's contents with
 * that many default-constructed elements for @p fn to fill.
 */
template <class Io, class C, class Fn>
void
seq(Io &s, Width w, C &c, std::size_t minBytes, Fn &&fn,
    std::size_t max = SIZE_MAX)
{
    std::size_t n = s.count(w, c.size(), minBytes, max);
    if constexpr (Io::loading) {
        c.clear();
        c.resize(n);
    }
    for (auto &e : c)
        fn(e);
}

/** What a snapshot file holds: the byte after the format version. */
enum class Kind : std::uint8_t
{
    Machine = 0,
    Cmp = 1,
    ProfileMember = 2,
};

/** Magic and format version, the first 12 bytes of every snapshot
 *  file; loading rejects anything else. */
template <class Io>
void
format(Io &s)
{
    std::uint64_t magic = fileMagic;
    s.u64(magic);
    fatal_if(magic != fileMagic,
             "snapshot: bad magic (not a snapshot file?)");
    std::uint32_t version = formatVersion;
    s.u32(version);
    fatal_if(version != formatVersion,
             "snapshot: format version %u, this build reads %u", version,
             formatVersion);
}

/** The identity block every snapshot file opens with: format(), then
 *  the kind, preset and core model the loading side must match. */
template <class Io>
void
header(Io &s, Kind kind, const std::string &preset,
       const std::string &model)
{
    format(s);
    s.expect(kind, "image kind");
    s.expect(preset, "preset");
    s.expect(model, "core model");
}

/** A program's identity inside a header: its name and fingerprint. */
template <class Io>
void
program(Io &s, const std::string &name, std::uint64_t fingerprint)
{
    s.expect(name, "workload");
    s.expect(fingerprint, "program fingerprint");
}

/** Write @p bytes to @p path atomically and durably (tmp file + fsync
 *  + rename + fsync of the containing directory, so the replacement
 *  survives power loss, not just process death). */
Result<void> writeFile(const std::string &path,
                       const std::vector<std::uint8_t> &bytes);

/** Read a whole regular file into memory; anything else (a directory,
 *  a device) is a clean Error. */
Result<std::vector<std::uint8_t>> readFile(const std::string &path);

/**
 * Cheap sanity probe of a snapshot file: checks only the leading magic
 * and format version, without reading component state. Used to decide
 * whether a checkpoint handed off from a crashed worker is worth
 * attempting a full (fatal-on-corruption) restore from.
 */
Result<void> probeSnapshotFile(const std::string &path);

} // namespace sst::snap

#endif // SSTSIM_SNAP_SNAP_HH
