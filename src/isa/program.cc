#include "isa/program.hh"

#include <cstdio>

#include "common/logging.hh"

namespace sst
{

std::uint64_t
Program::append(const Inst &inst)
{
    insts_.push_back(inst);
    return insts_.size() - 1;
}

void
Program::patch(std::uint64_t pc, const Inst &inst)
{
    panic_if(pc >= insts_.size(), "patch: pc %llu out of range",
             static_cast<unsigned long long>(pc));
    insts_[pc] = inst;
}

void
Program::fetchPastEnd(std::uint64_t pc) const
{
    panic("fetch past end of program (pc=%llu)",
          static_cast<unsigned long long>(pc));
}

void
Program::addData(Addr base, std::vector<std::uint8_t> bytes)
{
    segments_.push_back(Segment{base, std::move(bytes)});
}

void
Program::addWords(Addr base, const std::vector<std::uint64_t> &words)
{
    std::vector<std::uint8_t> bytes;
    bytes.reserve(words.size() * 8);
    for (std::uint64_t w : words)
        for (int b = 0; b < 8; ++b)
            bytes.push_back(static_cast<std::uint8_t>(w >> (8 * b)));
    addData(base, std::move(bytes));
}

void
Program::addLabel(const std::string &name, std::uint64_t pc)
{
    labels_[name] = pc;
}

std::string
Program::listing() const
{
    // Invert the label map for annotation.
    std::map<std::uint64_t, std::string> byPc;
    for (const auto &kv : labels_)
        byPc[kv.second] = kv.first;

    std::string out = "; program: " + name_ + "\n";
    char buf[128];
    for (std::uint64_t pc = 0; pc < insts_.size(); ++pc) {
        auto lab = byPc.find(pc);
        if (lab != byPc.end())
            out += lab->second + ":\n";
        std::snprintf(buf, sizeof(buf), "  %6llu: %s\n",
                      static_cast<unsigned long long>(pc),
                      insts_[pc].toString().c_str());
        out += buf;
    }
    return out;
}

} // namespace sst
