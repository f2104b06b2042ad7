/**
 * @file
 * Branch direction predictors, branch target buffer, and return-address
 * stack.
 *
 * SST leans on the branch predictor harder than a conventional pipeline:
 * a branch whose operands are NA cannot be resolved by the ahead strand
 * at all, so it is *predicted and deferred*, and a wrong prediction is
 * only discovered at DQ replay — costing a full checkpoint rollback.
 * Figure F11 (examples/figures/f11_branches.cfg) sweeps predictor
 * quality to expose that sensitivity.
 */

#ifndef SSTSIM_BRANCH_PREDICTOR_HH
#define SSTSIM_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace sst
{

namespace snap
{
class Writer;
class Reader;
} // namespace snap

/** Direction predictor interface. PCs are instruction indices. */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /** Snapshot tables + history. Loading assumes a predictor of the
     *  same kind and geometry (configuration is not serialized). Each
     *  kind forwards both visitors to one state() template. */
    virtual void io(snap::Writer &) {}
    virtual void io(snap::Reader &) {}

    /** Predict the direction of the branch at @p pc. */
    virtual bool predict(std::uint64_t pc) = 0;

    /** Train with the resolved direction (tables + history). */
    virtual void update(std::uint64_t pc, bool taken) = 0;

    /**
     * Train the tables only, without shifting global history. Used for
     * deferred branches, whose predicted direction was already shifted
     * into the history speculatively at predict time (see
     * shiftHistory); shifting again at verification would double-count.
     */
    virtual void train(std::uint64_t pc, bool taken)
    {
        update(pc, taken);
    }

    /**
     * Train the tables for a branch predicted under @p history (the
     * snapshot captured at prediction time). Indexed predictors must
     * hit the same entry the prediction read, or a repeatedly-wrong
     * deferred branch never converges. Default ignores the history.
     */
    virtual void trainAt(std::uint64_t pc, bool taken,
                         std::uint64_t /*history*/)
    {
        train(pc, taken);
    }

    /**
     * Speculatively shift a predicted direction into the global
     * history (real front ends do this at fetch). Rollback repairs it
     * via restoreHistory(). No-op for history-less predictors.
     */
    virtual void shiftHistory(bool /*taken*/) {}

    /**
     * Checkpoint/restore of speculative history (global history
     * registers); table state is left speculatively updated, as real
     * hardware does. Both act on the *active strand's* register when
     * per-strand history is enabled.
     */
    virtual std::uint64_t snapshotHistory() const { return 0; }
    virtual void restoreHistory(std::uint64_t) {}

    /**
     * Select the active global-history register. Strand 0 is the
     * committed (main) stream, strand 1 the SST ahead strand. A no-op
     * unless the predictor was built with strand-aware history, so
     * cores may call it unconditionally.
     */
    virtual void setStrand(unsigned /*strand*/) {}

    virtual const char *name() const = 0;

    /** Strand indices for setStrand(). */
    static constexpr unsigned mainStrand = 0;
    static constexpr unsigned aheadStrand = 1;
};

/** Always-predict-not-taken strawman. */
class StaticPredictor : public BranchPredictor
{
  public:
    bool predict(std::uint64_t) override { return false; }
    void update(std::uint64_t, bool) override {}
    const char *name() const override { return "static"; }
};

/** Classic 2-bit saturating counter table. */
class BimodalPredictor : public BranchPredictor
{
  public:
    explicit BimodalPredictor(unsigned tableBits = 12);

    bool predict(std::uint64_t pc) override;
    void update(std::uint64_t pc, bool taken) override;
    const char *name() const override { return "bimodal"; }

    void io(snap::Writer &s) override { state(s); }
    void io(snap::Reader &s) override { state(s); }

  private:
    template <class Io> void state(Io &s);
    unsigned index(std::uint64_t pc) const;
    std::vector<std::uint8_t> table_;
    unsigned mask_;
};

/**
 * Gshare: global history XOR pc indexing a 2-bit table. With
 * @p strandAware the predictor keeps one history register per strand
 * (main/ahead) over a shared table, so ahead-strand speculation does
 * not pollute the committed stream's history; setStrand() selects the
 * active register.
 */
class GsharePredictor : public BranchPredictor
{
  public:
    explicit GsharePredictor(unsigned tableBits = 14,
                             unsigned historyBits = 12,
                             bool strandAware = false);

    bool predict(std::uint64_t pc) override;
    void update(std::uint64_t pc, bool taken) override;
    void train(std::uint64_t pc, bool taken) override;
    void trainAt(std::uint64_t pc, bool taken,
                 std::uint64_t history) override;
    void shiftHistory(bool taken) override;
    std::uint64_t snapshotHistory() const override
    {
        return history_[strand_];
    }
    void restoreHistory(std::uint64_t h) override
    {
        history_[strand_] = h;
    }
    void setStrand(unsigned strand) override
    {
        strand_ = (strandAware_ && strand != 0) ? 1 : 0;
    }
    const char *name() const override { return "gshare"; }

    void io(snap::Writer &s) override { state(s); }
    void io(snap::Reader &s) override { state(s); }

  private:
    template <class Io> void state(Io &s);
    unsigned index(std::uint64_t pc) const;
    std::vector<std::uint8_t> table_;
    unsigned mask_;
    std::uint64_t history_[2] = {0, 0};
    std::uint64_t historyMask_;
    unsigned strand_ = 0;
    bool strandAware_;
};

/** Tournament: bimodal vs gshare with a 2-bit chooser. */
class TournamentPredictor : public BranchPredictor
{
  public:
    TournamentPredictor(unsigned tableBits = 13, unsigned historyBits = 12,
                        bool strandAware = false);

    bool predict(std::uint64_t pc) override;
    void update(std::uint64_t pc, bool taken) override;
    void train(std::uint64_t pc, bool taken) override;
    void trainAt(std::uint64_t pc, bool taken,
                 std::uint64_t history) override;
    void shiftHistory(bool taken) override;
    std::uint64_t snapshotHistory() const override;
    void restoreHistory(std::uint64_t h) override;
    void setStrand(unsigned strand) override
    {
        gshare_.setStrand(strand);
    }
    const char *name() const override { return "tournament"; }

    void io(snap::Writer &s) override { state(s); }
    void io(snap::Reader &s) override { state(s); }

  private:
    template <class Io> void state(Io &s);
    BimodalPredictor bimodal_;
    GsharePredictor gshare_;
    std::vector<std::uint8_t> chooser_;
    unsigned mask_;
    bool lastBimodal_ = false;
    bool lastGshare_ = false;
};

/** All valid predictor kind names, for factories and CLI suggestions. */
const std::vector<std::string> &predictorNames();

/**
 * Construct a predictor by name ("static|bimodal|gshare|tournament").
 * Unknown kinds fatal() with a nearest-name suggestion. @p strandHistory
 * enables per-strand global-history registers (core.strand_history); it
 * is a no-op for history-less predictors.
 */
std::unique_ptr<BranchPredictor> makePredictor(const std::string &kind,
                                               bool strandHistory = false);

/**
 * Branch target buffer: maps branch PC to target PC for fetch redirect
 * before decode. Direct-mapped with tags.
 */
class Btb
{
  public:
    explicit Btb(unsigned entries = 4096);

    /** @return predicted target or invalid when not present. */
    std::uint64_t lookup(std::uint64_t pc) const;
    void update(std::uint64_t pc, std::uint64_t target);

    static constexpr std::uint64_t invalidTarget = ~std::uint64_t{0};

    template <class Io> void io(Io &s);

  private:
    struct Entry
    {
        std::uint64_t tag = ~std::uint64_t{0};
        std::uint64_t target = 0;
    };
    std::vector<Entry> entries_;
    unsigned mask_;
};

/** Return-address stack for JAL(link)/JALR(return) pairs. */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(unsigned depth = 16);

    void push(std::uint64_t returnPc);
    /** Pop a prediction; returns invalid when empty. */
    std::uint64_t pop();
    /** True when pop() would return invalid (and leave the stack
     *  untouched). */
    bool empty() const { return count_ == 0; }
    void reset() { top_ = 0; count_ = 0; }

    static constexpr std::uint64_t invalidTarget = ~std::uint64_t{0};

    template <class Io> void io(Io &s);

  private:
    std::vector<std::uint64_t> stack_;
    unsigned top_ = 0;
    unsigned count_ = 0;
};

} // namespace sst

#endif // SSTSIM_BRANCH_PREDICTOR_HH
