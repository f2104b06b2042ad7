#include "branch/valuepred.hh"

#include "common/config.hh"
#include "common/logging.hh"
#include "snap/snap.hh"

namespace sst
{

const std::vector<std::string> &
valuePredNames()
{
    static const std::vector<std::string> names = {"off", "last",
                                                   "stride"};
    return names;
}

ValuePredKind
valuePredKindFromString(const std::string &name)
{
    if (name == "off")
        return ValuePredKind::Off;
    if (name == "last")
        return ValuePredKind::LastValue;
    if (name == "stride")
        return ValuePredKind::Stride;
    std::string msg = "unknown value predictor '" + name + "'";
    std::string near = closestMatch(name, valuePredNames());
    if (!near.empty())
        msg += "; did you mean '" + near + "'?";
    msg += " (core.value_pred=off|last|stride)";
    fatal("%s", msg.c_str());
}

const char *
valuePredKindName(ValuePredKind kind)
{
    switch (kind) {
      case ValuePredKind::Off:
        return "off";
      case ValuePredKind::LastValue:
        return "last";
      case ValuePredKind::Stride:
        return "stride";
    }
    return "?";
}

ValuePredictor::ValuePredictor(ValuePredKind kind, unsigned tableBits)
    : kind_(kind),
      table_(std::size_t{1} << tableBits),
      mask_((1u << tableBits) - 1)
{
}

std::uint64_t
ValuePredictor::predictedFor(const Entry &e) const
{
    if (kind_ == ValuePredKind::Stride)
        return e.lastValue + static_cast<std::uint64_t>(e.stride);
    return e.lastValue;
}

bool
ValuePredictor::predict(std::uint64_t pc, std::uint64_t &value)
{
    if (kind_ == ValuePredKind::Off)
        return false;
    Entry &e = table_[static_cast<unsigned>(pc) & mask_];
    if (e.tag != pc || e.confidence < kConfident || e.needAnchor)
        return false;
    // The frontier is tipDistance instances past the last trained
    // value (training happens in replay/program order; the ahead
    // strand runs ahead of it by every in-flight instance of this PC),
    // so extrapolate across the whole gap — predicting lastValue +
    // stride here would be systematically one-to-N instances stale.
    if (kind_ == ValuePredKind::Stride)
        value = e.lastValue
                + (e.tipDistance + 1)
                      * static_cast<std::uint64_t>(e.stride);
    else
        value = e.lastValue;
    ++e.tipDistance;
    return true;
}

void
ValuePredictor::train(std::uint64_t pc, std::uint64_t value)
{
    if (kind_ == ValuePredKind::Off)
        return;
    Entry &e = table_[static_cast<unsigned>(pc) & mask_];
    if (e.tag != pc) {
        e = Entry{};
        e.tag = pc;
        e.lastValue = value;
        return;
    }
    // Judge the value the predictor *would have* produced before this
    // observation, so confidence tracks real prediction accuracy.
    bool agreed = predictedFor(e) == value;
    if (agreed) {
        if (e.confidence < 7)
            ++e.confidence;
    } else {
        e.confidence = 0;
    }
    e.stride = static_cast<std::int64_t>(value - e.lastValue);
    e.lastValue = value;
    e.needAnchor = false;
}

void
ValuePredictor::notePendingDefer(std::uint64_t pc)
{
    if (kind_ == ValuePredKind::Off)
        return;
    Entry &e = table_[static_cast<unsigned>(pc) & mask_];
    if (e.tag != pc) {
        e = Entry{};
        e.tag = pc;
    }
    ++e.tipDistance;
}

void
ValuePredictor::noteDeferResolved(std::uint64_t pc)
{
    if (kind_ == ValuePredKind::Off)
        return;
    Entry &e = table_[static_cast<unsigned>(pc) & mask_];
    if (e.tag == pc && e.tipDistance > 0)
        --e.tipDistance;
}

void
ValuePredictor::squash()
{
    if (kind_ == ValuePredKind::Off)
        return;
    for (Entry &e : table_) {
        e.tipDistance = 0;
        e.needAnchor = true;
    }
}

void
ValuePredictor::reset()
{
    for (Entry &e : table_)
        e = Entry{};
}

template <class Io>
void
ValuePredictor::io(Io &s)
{
    s.expect(static_cast<std::uint32_t>(table_.size()),
             "value-predictor entries");
    for (Entry &e : table_) {
        s.u64(e.tag);
        s.u64(e.lastValue);
        s.u64(e.stride);
        s.u32(e.tipDistance);
        s.u8(e.confidence);
        s.u8(e.needAnchor);
    }
}

template void ValuePredictor::io(snap::Writer &);
template void ValuePredictor::io(snap::Reader &);

} // namespace sst
