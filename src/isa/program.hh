/**
 * @file
 * Program container: static code plus initial data image.
 */

#ifndef SSTSIM_ISA_PROGRAM_HH
#define SSTSIM_ISA_PROGRAM_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace sst
{

/**
 * A complete runnable image: code (indexed by instruction PC, where PC is
 * an instruction index, not a byte address) and initial data segments.
 * Instruction fetch timing converts PCs to byte addresses via codeBase so
 * the I-cache sees realistic spatial locality (8 bytes per instruction).
 */
class Program
{
  public:
    Program() = default;
    explicit Program(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    void setName(std::string n) { name_ = std::move(n); }

    /** Append an instruction; @return its PC (index). */
    std::uint64_t append(const Inst &inst);

    /** Replace the instruction at @p pc (used for label back-patching). */
    void patch(std::uint64_t pc, const Inst &inst);

    /** The instruction at @p pc (panics past the end). Inline: every
     *  model fetches through it once per instruction. */
    const Inst &at(std::uint64_t pc) const
    {
        if (pc >= insts_.size()) [[unlikely]]
            fetchPastEnd(pc);
        return insts_[pc];
    }
    std::uint64_t size() const { return insts_.size(); }
    bool empty() const { return insts_.empty(); }
    const std::vector<Inst> &insts() const { return insts_; }

    /** Initial data segment: @p bytes placed at absolute address @p base. */
    void addData(Addr base, std::vector<std::uint8_t> bytes);

    /** Convenience: place a vector of 64-bit words at @p base. */
    void addWords(Addr base, const std::vector<std::uint64_t> &words);

    struct Segment
    {
        Addr base;
        std::vector<std::uint8_t> bytes;
    };
    const std::vector<Segment> &segments() const { return segments_; }

    /** Byte address of the first instruction (for I-cache timing). */
    Addr codeBase() const { return codeBase_; }
    void setCodeBase(Addr base) { codeBase_ = base; }

    /** Byte address of the instruction at @p pc. */
    Addr instAddr(std::uint64_t pc) const { return codeBase_ + pc * 8; }

    /** Named label (diagnostics + assembler round trips). */
    void addLabel(const std::string &name, std::uint64_t pc);
    const std::map<std::string, std::uint64_t> &labels() const
    {
        return labels_;
    }

    /** Full disassembly listing. */
    std::string listing() const;

  private:
    [[noreturn]] void fetchPastEnd(std::uint64_t pc) const;

    std::string name_ = "anonymous";
    std::vector<Inst> insts_;
    std::vector<Segment> segments_;
    std::map<std::string, std::uint64_t> labels_;
    Addr codeBase_ = 0x100000;
};

} // namespace sst

#endif // SSTSIM_ISA_PROGRAM_HH
