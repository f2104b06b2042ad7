#include "branch/predictor.hh"

#include "common/config.hh"
#include "common/logging.hh"
#include "snap/snap.hh"

namespace sst
{

namespace
{

/** 2-bit saturating counter helpers; >=2 predicts taken. */
void
bumpCounter(std::uint8_t &ctr, bool taken)
{
    if (taken) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
}

} // namespace

BimodalPredictor::BimodalPredictor(unsigned tableBits)
    : table_(std::size_t{1} << tableBits, 2),
      mask_((1u << tableBits) - 1)
{
}

unsigned
BimodalPredictor::index(std::uint64_t pc) const
{
    return static_cast<unsigned>(pc) & mask_;
}

bool
BimodalPredictor::predict(std::uint64_t pc)
{
    return table_[index(pc)] >= 2;
}

void
BimodalPredictor::update(std::uint64_t pc, bool taken)
{
    bumpCounter(table_[index(pc)], taken);
}

GsharePredictor::GsharePredictor(unsigned tableBits, unsigned historyBits,
                                 bool strandAware)
    : table_(std::size_t{1} << tableBits, 2),
      mask_((1u << tableBits) - 1),
      historyMask_((std::uint64_t{1} << historyBits) - 1),
      strandAware_(strandAware)
{
}

unsigned
GsharePredictor::index(std::uint64_t pc) const
{
    return static_cast<unsigned>(pc ^ history_[strand_]) & mask_;
}

bool
GsharePredictor::predict(std::uint64_t pc)
{
    return table_[index(pc)] >= 2;
}

void
GsharePredictor::update(std::uint64_t pc, bool taken)
{
    train(pc, taken);
    shiftHistory(taken);
}

void
GsharePredictor::train(std::uint64_t pc, bool taken)
{
    bumpCounter(table_[index(pc)], taken);
}

void
GsharePredictor::trainAt(std::uint64_t pc, bool taken,
                         std::uint64_t history)
{
    unsigned idx = static_cast<unsigned>(pc ^ history) & mask_;
    bumpCounter(table_[idx], taken);
}

void
GsharePredictor::shiftHistory(bool taken)
{
    history_[strand_] =
        ((history_[strand_] << 1) | (taken ? 1 : 0)) & historyMask_;
}

TournamentPredictor::TournamentPredictor(unsigned tableBits,
                                         unsigned historyBits,
                                         bool strandAware)
    : bimodal_(tableBits),
      gshare_(tableBits, historyBits, strandAware),
      chooser_(std::size_t{1} << tableBits, 2),
      mask_((1u << tableBits) - 1)
{
}

bool
TournamentPredictor::predict(std::uint64_t pc)
{
    lastBimodal_ = bimodal_.predict(pc);
    lastGshare_ = gshare_.predict(pc);
    bool useGshare = chooser_[static_cast<unsigned>(pc) & mask_] >= 2;
    return useGshare ? lastGshare_ : lastBimodal_;
}

void
TournamentPredictor::update(std::uint64_t pc, bool taken)
{
    train(pc, taken);
    gshare_.shiftHistory(taken);
}

void
TournamentPredictor::train(std::uint64_t pc, bool taken)
{
    // Re-derive component predictions so training is usable without a
    // preceding predict() (e.g. on a deferred branch at replay).
    bool b = bimodal_.predict(pc);
    bool g = gshare_.predict(pc);
    std::uint8_t &ch = chooser_[static_cast<unsigned>(pc) & mask_];
    if (b != g)
        bumpCounter(ch, g == taken);
    bimodal_.update(pc, taken);
    gshare_.train(pc, taken);
}

void
TournamentPredictor::trainAt(std::uint64_t pc, bool taken,
                             std::uint64_t history)
{
    bool b = bimodal_.predict(pc);
    std::uint64_t cur = gshare_.snapshotHistory();
    gshare_.restoreHistory(history);
    bool g = gshare_.predict(pc);
    gshare_.trainAt(pc, taken, history);
    gshare_.restoreHistory(cur);
    std::uint8_t &ch = chooser_[static_cast<unsigned>(pc) & mask_];
    if (b != g)
        bumpCounter(ch, g == taken);
    bimodal_.update(pc, taken);
}

void
TournamentPredictor::shiftHistory(bool taken)
{
    gshare_.shiftHistory(taken);
}

std::uint64_t
TournamentPredictor::snapshotHistory() const
{
    return gshare_.snapshotHistory();
}

void
TournamentPredictor::restoreHistory(std::uint64_t h)
{
    gshare_.restoreHistory(h);
}

const std::vector<std::string> &
predictorNames()
{
    static const std::vector<std::string> names = {
        "static", "bimodal", "gshare", "tournament"};
    return names;
}

std::unique_ptr<BranchPredictor>
makePredictor(const std::string &kind, bool strandHistory)
{
    if (kind == "static")
        return std::make_unique<StaticPredictor>();
    if (kind == "bimodal")
        return std::make_unique<BimodalPredictor>();
    if (kind == "gshare")
        return std::make_unique<GsharePredictor>(14, 12, strandHistory);
    if (kind == "tournament")
        return std::make_unique<TournamentPredictor>(13, 12,
                                                     strandHistory);
    std::string msg = "unknown branch predictor '" + kind + "'";
    std::string near = closestMatch(kind, predictorNames());
    if (!near.empty())
        msg += "; did you mean '" + near + "'?";
    msg += " (known: static|bimodal|gshare|tournament)";
    fatal("%s", msg.c_str());
}

Btb::Btb(unsigned entries)
    : entries_(entries), mask_(entries - 1)
{
    fatal_if((entries & (entries - 1)) != 0,
             "BTB entry count must be a power of two");
}

std::uint64_t
Btb::lookup(std::uint64_t pc) const
{
    const Entry &e = entries_[static_cast<unsigned>(pc) & mask_];
    return e.tag == pc ? e.target : invalidTarget;
}

void
Btb::update(std::uint64_t pc, std::uint64_t target)
{
    Entry &e = entries_[static_cast<unsigned>(pc) & mask_];
    e.tag = pc;
    e.target = target;
}

ReturnAddressStack::ReturnAddressStack(unsigned depth) : stack_(depth) {}

void
ReturnAddressStack::push(std::uint64_t returnPc)
{
    stack_[top_] = returnPc;
    top_ = (top_ + 1) % stack_.size();
    if (count_ < stack_.size())
        ++count_;
}

std::uint64_t
ReturnAddressStack::pop()
{
    if (count_ == 0)
        return invalidTarget;
    top_ = (top_ + stack_.size() - 1) % stack_.size();
    --count_;
    return stack_[top_];
}

namespace
{

template <class Io>
void
byteTable(Io &s, std::vector<std::uint8_t> &table)
{
    s.expect(static_cast<std::uint32_t>(table.size()),
             "predictor table entries");
    s.bytes(table.data(), table.size());
}

} // namespace

template <class Io>
void
BimodalPredictor::state(Io &s)
{
    byteTable(s, table_);
}

template <class Io>
void
GsharePredictor::state(Io &s)
{
    byteTable(s, table_);
    s.u64(history_[0]);
    s.u64(history_[1]);
    s.u32(strand_);
}

template <class Io>
void
TournamentPredictor::state(Io &s)
{
    bimodal_.io(s);
    gshare_.io(s);
    byteTable(s, chooser_);
    s.b(lastBimodal_);
    s.b(lastGshare_);
}

template <class Io>
void
Btb::io(Io &s)
{
    s.expect(static_cast<std::uint32_t>(entries_.size()), "BTB entries");
    for (Entry &e : entries_) {
        s.u64(e.tag);
        s.u64(e.target);
    }
}

template <class Io>
void
ReturnAddressStack::io(Io &s)
{
    s.expect(static_cast<std::uint32_t>(stack_.size()), "RAS depth");
    for (std::uint64_t &v : stack_)
        s.u64(v);
    s.u32(top_);
    s.u32(count_);
}

template void BimodalPredictor::state(snap::Writer &);
template void BimodalPredictor::state(snap::Reader &);
template void GsharePredictor::state(snap::Writer &);
template void GsharePredictor::state(snap::Reader &);
template void TournamentPredictor::state(snap::Writer &);
template void TournamentPredictor::state(snap::Reader &);
template void Btb::io(snap::Writer &);
template void Btb::io(snap::Reader &);
template void ReturnAddressStack::io(snap::Writer &);
template void ReturnAddressStack::io(snap::Reader &);

} // namespace sst
