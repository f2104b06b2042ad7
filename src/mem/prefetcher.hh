/**
 * @file
 * Tagged sequential (next-N-line) prefetcher.
 *
 * The baseline in-order core relies on this for streaming workloads;
 * for SST the execute-ahead strand itself is the dominant "prefetcher",
 * and bench_f3 quantifies the difference.
 */

#ifndef SSTSIM_MEM_PREFETCHER_HH
#define SSTSIM_MEM_PREFETCHER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace sst
{

/** Prefetch address-generation policy. */
enum class PrefetchMode
{
    NextLine, ///< tagged sequential next-N-lines
    Stride    ///< global stride detector (catches non-unit strides)
};

/** Prefetcher tuning knobs. */
struct PrefetcherParams
{
    bool enabled = true;
    unsigned degree = 2;   ///< lines fetched ahead per trigger
    unsigned distance = 1; ///< first prefetched line is +distance
    PrefetchMode mode = PrefetchMode::NextLine;
};

/** Next-line prefetch address generator (policy only; no timing). */
class Prefetcher
{
  public:
    Prefetcher(const PrefetcherParams &params, unsigned lineBytes,
               const std::string &name, StatGroup &parentStats);

    /**
     * Called on every demand miss (and on hits to previously prefetched
     * lines, which re-arm the stream). @return line addresses to
     * prefetch, in a buffer the next call overwrites.
     */
    const std::vector<Addr> &onAccess(Addr lineAddr, bool miss);

    /** Stats hooks driven by the hierarchy. */
    void noteIssued() { ++issued_; }
    void noteUseful() { ++useful_; }

    template <class Io> void io(Io &s);

  private:
    void nextLineTargets(Addr lineAddr, bool miss);
    void strideTargets(Addr lineAddr, bool miss);

    PrefetcherParams params_;
    unsigned lineBytes_;
    Addr lastTrigger_ = invalidAddr;
    /** Stride-mode state: per-4KB-region tracking so interleaved
     *  streams (a[i], b[i], c[i]) each train their own entry. */
    struct StrideEntry
    {
        Addr regionTag = invalidAddr;
        Addr lastAddr = 0;
        std::int64_t delta = 0;
        unsigned confidence = 0;
    };
    std::vector<StrideEntry> strideTable_;
    /** onAccess()'s result, reused call to call (not state). */
    std::vector<Addr> targets_;

    StatGroup stats_;
    Scalar &issued_;
    Scalar &useful_;
};

} // namespace sst

#endif // SSTSIM_MEM_PREFETCHER_HH
