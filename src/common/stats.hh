/**
 * @file
 * Minimal statistics package in the spirit of gem5's Stats:: layer.
 *
 * A StatGroup owns named Scalar counters, Distributions (fixed-bucket
 * histograms) and Formulas (lazily evaluated ratios of other stats).
 * Groups nest; dump() renders "group.sub.stat value # desc" lines.
 */

#ifndef SSTSIM_COMMON_STATS_HH
#define SSTSIM_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace sst
{

/** Escape @p s for inclusion in a JSON string literal (no quotes). */
std::string jsonEscape(const std::string &s);

/**
 * Render @p v as the shortest decimal string that parses back to the
 * same double (tries %.15g, %.16g, %.17g). Deterministic, so identical
 * stat values always serialise to identical bytes — the property the
 * sweep runner's "-j N matches -j 1" contract rests on.
 */
std::string jsonNumber(double v);

/** A simple saturating-free 64-bit event counter. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(std::uint64_t n) { value_ += n; return *this; }
    void set(std::uint64_t v) { value_ = v; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    /** JSON value (a decimal integer). */
    std::string toJson() const;

    template <class Io> void io(Io &s) { s.u64(value_); }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Fixed-bucket histogram over [0, max); samples >= max land in the
 * overflow bucket. Tracks sum/count so mean() is exact even when samples
 * overflow the bucketed range.
 */
class Distribution
{
  public:
    Distribution() = default;

    /** Configure @p buckets equal-width buckets over [0, max). */
    void init(std::uint64_t max, unsigned buckets);

    void sample(std::uint64_t v)
    {
        ++count_;
        sum_ += v;
        if (v > maxSample_)
            maxSample_ = v;
        if (v >= limit_)
            ++overflow_;
        else
            ++buckets_[bucketOf(v)];
    }

    /** Record @p v as @p n identical samples in O(1) — exactly
     *  equivalent to calling sample(v) n times (fast-forwarded stall
     *  windows re-sample a frozen occupancy every cycle). */
    void sample(std::uint64_t v, std::uint64_t n);

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t maxSample() const { return maxSample_; }
    double mean() const;
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t bucketWidth() const { return width_; }
    void reset();

    /** JSON object: count/sum/mean/max/bucket_width/buckets/overflow. */
    std::string toJson() const;

    /** Snapshot counts only; bucket geometry must already match (it is
     *  configuration, re-established by init()). Defined in src/snap/. */
    template <class Io> void io(Io &s);

  private:
    /** v / width_ for v < limit_, without a 64-bit divide: a shift for
     *  power-of-two widths, else Lemire's exact 32-bit reciprocal
     *  (limit_ <= 2^32 whenever magic_ is set). Only a non-power-of-two
     *  width over a range past 2^32 divides. */
    std::uint64_t bucketOf(std::uint64_t v) const
    {
        if (magic_)
            return static_cast<std::uint64_t>(
                (static_cast<unsigned __int128>(magic_) * v) >> 64);
        if (shift_ < 64)
            return v >> shift_;
        return v / width_;
    }

    std::vector<std::uint64_t> buckets_;
    /** 0 until init(): an uninitialised distribution reports
     *  bucket_width 0 and an empty bucket array. */
    std::uint64_t width_ = 0;
    /** width_ * buckets: samples at or above it overflow (0 until
     *  init(), so every sample overflows). */
    std::uint64_t limit_ = 0;
    unsigned shift_ = 64;
    std::uint64_t magic_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t maxSample_ = 0;
};

/**
 * Named collection of statistics. Cores and memory components each hold
 * one; the System aggregates them for reporting.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a counter; the group keeps a non-owning pointer. */
    Scalar &addScalar(const std::string &name, const std::string &desc);

    /** Register a distribution. */
    Distribution &addDist(const std::string &name, const std::string &desc,
                          std::uint64_t max, unsigned buckets);

    /** Register a lazily evaluated derived value. */
    void addFormula(const std::string &name, const std::string &desc,
                    std::function<double()> fn);

    /** Attach a child group (non-owning). */
    void addChild(StatGroup &child);

    const std::string &name() const { return name_; }

    /** Render all stats (recursively) as text lines. */
    std::string dump(const std::string &prefix = "") const;

    /** Render all stats (recursively) as a flat JSON object whose keys
     *  are the dotted stat names. */
    std::string dumpJson() const;

    /**
     * Render this group (recursively) as a structured JSON object. Keys
     * are stat/child names within the group: scalars and formulas map to
     * numbers, distributions to objects (see Distribution::toJson), and
     * child groups nest. Emission order is registration order (scalars,
     * formulas, distributions, children), which is deterministic, so two
     * identical runs serialise byte-identically. Stat names are unique
     * within a group by construction.
     */
    std::string toJson() const;

    /** Flat name->value view of scalars and formulas (for tests). */
    std::map<std::string, double> flatten(const std::string &prefix
                                          = "") const;

    /** Zero all scalars and distributions (recursively). */
    void reset();

    /**
     * Snapshot all scalar and distribution *values* (recursively, with
     * names for validation); formulas are derived and skipped. Loading
     * requires an identically shaped tree — stats layout is part of the
     * snapshot format, guarded by snap::formatVersion. Defined in
     * src/snap/ so the common library does not depend on snap.
     */
    template <class Io> void io(Io &s);

  private:
    struct NamedScalar
    {
        std::string name;
        std::string desc;
        Scalar stat;
    };
    struct NamedDist
    {
        std::string name;
        std::string desc;
        Distribution stat;
    };
    struct NamedFormula
    {
        std::string name;
        std::string desc;
        std::function<double()> fn;
    };

    std::string name_;
    // Deques-by-proxy: deque-like stability is required because callers
    // keep references; std::deque keeps references valid across growth.
    std::vector<NamedScalar *> scalars_;
    std::vector<NamedDist *> dists_;
    std::vector<NamedFormula> formulas_;
    std::vector<StatGroup *> children_;

  public:
    ~StatGroup();
};

} // namespace sst

#endif // SSTSIM_COMMON_STATS_HH
