/**
 * @file
 * Invalidation-based MESI-style directory at the shared-L2 boundary.
 *
 * The simulator is timing-directed but functionally executed: data
 * always lives in the (shared) MemoryImage, never in the caches, so the
 * directory is purely a *timing and squash-signal* model. It tracks
 * which cores hold each line and answers, for every L1 access that
 * reaches the shared level, what coherence work the access implies:
 * invalidations of other sharers, an intervention (dirty-owner
 * transfer), or an upgrade (S -> M on a write hit). Functional values
 * are coherent by construction; what the directory adds is the latency
 * of that traffic and the invalidation signals that squash speculative
 * readers (speculative lock elision builds on exactly this signal).
 *
 * States per line, MESI collapsed to what a timing-only model needs:
 *  - Uncached: no core holds the line.
 *  - Exclusive(o): core o holds the only copy (E and M are
 *    indistinguishable here: data is never in the cache, so an E->M
 *    transition has no bus traffic to model).
 *  - Shared(mask): one or more cores hold read copies.
 */

#ifndef SSTSIM_COH_COH_HH
#define SSTSIM_COH_COH_HH

#include <cstdint>
#include <unordered_map>

#include "common/types.hh"

namespace sst
{

/** Coherence knobs; disabled by default (private salted windows). */
struct CohParams
{
    bool enabled = false;
    /** Extra cycles to deliver an invalidation to each victim core. */
    unsigned invalidateLatency = 8;
    /** Extra cycles for a dirty-owner intervention (cache-to-cache). */
    unsigned interventionLatency = 16;
    /** Extra cycles for an S->M upgrade (ownership without data). */
    unsigned upgradeLatency = 6;
};

/**
 * Squash-side interface a core exposes to the coherence fabric.
 * A remote functional write to a line a core has speculatively read
 * invalidates the speculation; the port asks the core and, when the
 * line is in its read set, tells it to squash.
 */
class CohClient
{
  public:
    virtual ~CohClient() = default;
    /** Does the core's speculative read set cover @p line? */
    virtual bool specReadsLine(Addr line) const = 0;
    /** A remote write hit the speculative read set: roll back. */
    virtual void cohSquash() = 0;
};

/** What one coherence lookup decided. */
struct CohAction
{
    /** Cores whose L1 copy must be invalidated (bit per core). */
    std::uint64_t invalidateMask = 0;
    /** Dirty-owner intervention served the data. */
    bool intervention = false;
    /** Ownership upgrade of an already-shared line. */
    bool upgrade = false;
    /** Extra cycles the requesting access pays for the above. */
    unsigned latency = 0;
};

/** Per-line presence state (see file comment for the state model). */
struct CohLine
{
    std::uint64_t sharers = 0; ///< bit per core with a read copy
    int owner = -1;            ///< exclusive owner, -1 when none
};

/**
 * The directory proper. Lives in MemorySystem next to the L2; all
 * methods take line-aligned addresses.
 */
class Directory
{
  public:
    explicit Directory(const CohParams &params) : params_(params) {}

    /**
     * Record core @p core accessing @p line (write when @p isStore) and
     * return the implied coherence work. Pure state machine: no clock,
     * the caller folds CohAction::latency into its own timing.
     */
    CohAction onAccess(Addr line, unsigned core, bool isStore);

    /** Core @p core silently dropped @p line (eviction / flush). */
    void onEvict(Addr line, unsigned core);

    /** Forget every line @p core holds (whole-cache flush). */
    void dropCore(unsigned core);

    /** Presence state of @p line (Uncached when absent). */
    CohLine lineState(Addr line) const;

    std::uint64_t invalidations() const { return invalidations_; }
    std::uint64_t interventions() const { return interventions_; }
    std::uint64_t upgrades() const { return upgrades_; }

    /** Lines currently tracked (directory footprint metric). */
    std::size_t trackedLines() const { return lines_.size(); }

    /** Snapshotted sorted by line address: byte-stable across runs. */
    template <class Io> void io(Io &s);

  private:
    const CohParams params_;
    std::unordered_map<Addr, CohLine> lines_;
    std::uint64_t invalidations_ = 0;
    std::uint64_t interventions_ = 0;
    std::uint64_t upgrades_ = 0;
};

} // namespace sst

#endif // SSTSIM_COH_COH_HH
