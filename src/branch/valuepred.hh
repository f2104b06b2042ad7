/**
 * @file
 * Load-value predictor for the SST ahead strand.
 *
 * A load that misses the L1 normally parks its destination register as
 * NA and defers to the DQ; every dependent instruction then defers too,
 * and the ahead strand stalls once a second unresolved dependence (or a
 * deferred-branch mispredict) appears. Value prediction converts that
 * "defer to DQ" into "keep executing, verify on fill": a confident
 * prediction supplies the load's result speculatively, the dependents
 * run on, and the DQ replay of the load compares the filled value
 * against the prediction — a mismatch squashes the epoch back to its
 * checkpoint (FailKind::ValueMispredict), exactly like a deferred
 * branch discovered wrong at replay.
 *
 * Two classic schemes behind one table (Lipasti/Shen lineage):
 *  - last-value: predict the value the PC loaded last time;
 *  - stride:    predict lastValue + the last observed delta.
 * Predictions are gated by a 3-bit saturating confidence counter that
 * only arms after repeated agreement and collapses to zero on any
 * disagreement, so cold or chaotic PCs never speculate.
 *
 * The table trains in *replay order* (program order), but the ahead
 * strand asks for predictions at the frontier — typically several
 * dynamic instances of the PC past the last trained one, because every
 * in-flight deferred instance (predicted or not) sits between them.
 * Predicting lastValue + stride there is systematically wrong; the
 * entry instead tracks its **tip distance** — how many instances of
 * this PC are in flight — and extrapolates:
 *
 *     predicted = lastValue + (tipDistance + 1) * stride
 *
 * Every prediction and every unpredicted defer (notePendingDefer)
 * pushes the tip one instance further out; every replay-trained
 * instance (noteDeferResolved) pulls it back in. This is also what
 * lets a dependent chain of one static load (a linked-list walk) run
 * many nodes ahead of the first fill: each prediction of the chain is
 * simply one more instance of tip distance.
 *
 * Extrapolation is only sound when lastValue belongs to the live
 * stream. A rollback breaks that: the architectural stream rewinds,
 * in-flight instances die, and values trained from replays of the
 * discarded region lie in the *future* of the re-executed stream.
 * squash() therefore zeroes every tip distance and marks every entry
 * unanchored; an entry must train once more (needAnchor cleared)
 * before it may predict again.
 */

#ifndef SSTSIM_BRANCH_VALUEPRED_HH
#define SSTSIM_BRANCH_VALUEPRED_HH

#include <cstdint>
#include <string>
#include <vector>

namespace sst
{

/** Prediction scheme selected by core.value_pred. */
enum class ValuePredKind
{
    Off,       ///< never predict (default)
    LastValue, ///< predict the previous value loaded by this PC
    Stride     ///< predict lastValue + last observed delta
};

/** All valid core.value_pred values, for validation and suggestions. */
const std::vector<std::string> &valuePredNames();

/** Parse a core.value_pred value; fatal()s with a suggestion on an
 *  unknown name. */
ValuePredKind valuePredKindFromString(const std::string &name);

const char *valuePredKindName(ValuePredKind kind);

/**
 * Direct-mapped, tagged table of per-PC value histories with
 * confidence gating. Deterministic and snapshot-serializable: the
 * table participates in machine snapshots (and therefore in the
 * byte-equality gates for fastfwd, -j N CMP and sweep resume).
 */
class ValuePredictor
{
  public:
    explicit ValuePredictor(ValuePredKind kind = ValuePredKind::Off,
                            unsigned tableBits = 10);

    bool enabled() const { return kind_ != ValuePredKind::Off; }
    ValuePredKind kind() const { return kind_; }

    /**
     * Try to predict the value the load at @p pc is about to return.
     * @return true (and set @p value) only when the entry is hot, its
     * confidence has reached the speculation threshold, and it is
     * anchored to the live stream. The value is extrapolated across
     * the entry's tip distance, and a successful prediction pushes the
     * tip one further out so the next prediction of the same PC chains
     * past it.
     */
    bool predict(std::uint64_t pc, std::uint64_t &value);

    /**
     * Observe a resolved load value (any strand, replay included).
     * Trains last-value/stride state and moves confidence toward or
     * away from speculating on this PC.
     */
    void train(std::uint64_t pc, std::uint64_t value);

    /**
     * A load at @p pc deferred *without* a prediction: one more
     * in-flight instance between the last trained value and the
     * frontier, so predictions extrapolate one instance further.
     */
    void notePendingDefer(std::uint64_t pc);

    /** The replay of a deferred load at @p pc resolved (and trained):
     *  the tip is one instance closer to the trained value. */
    void noteDeferResolved(std::uint64_t pc);

    /**
     * Repair speculative state after an SST rollback: every in-flight
     * instance died with the discarded region (tip distances reset to
     * zero), and replay-trained values from that region may lie in the
     * future of the re-executed stream — so every entry must re-anchor
     * (train once) before predicting again.
     */
    void squash();

    void reset();

    template <class Io> void io(Io &s);

  private:
    struct Entry
    {
        std::uint64_t tag = ~std::uint64_t{0};
        std::uint64_t lastValue = 0;
        std::int64_t stride = 0;
        /** In-flight instances of this PC (deferred or predicted)
         *  between the last trained value and the frontier. */
        std::uint32_t tipDistance = 0;
        std::uint8_t confidence = 0;
        /** Set by squash(): suppress predictions until the next train
         *  proves the last value belongs to the live stream again. */
        bool needAnchor = false;
    };

    /** Confidence needed before a prediction is issued (of 0..7). */
    static constexpr std::uint8_t kConfident = 4;

    std::uint64_t predictedFor(const Entry &e) const;

    ValuePredKind kind_;
    std::vector<Entry> table_;
    unsigned mask_;
};

} // namespace sst

#endif // SSTSIM_BRANCH_VALUEPRED_HH
