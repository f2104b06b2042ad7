/**
 * @file
 * Static instruction representation, binary encode/decode, disassembly.
 */

#ifndef SSTSIM_ISA_INSTRUCTION_HH
#define SSTSIM_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "isa/opcodes.hh"

namespace sst
{

/**
 * One static instruction. Branch/jump immediates are in units of
 * instructions relative to the branch's own index (PC-relative); memory
 * immediates are byte displacements off rs1.
 */
struct Inst
{
    Opcode op = Opcode::NOP;
    RegId rd = 0;
    RegId rs1 = 0;
    RegId rs2 = 0;
    std::int32_t imm = 0;

    bool operator==(const Inst &) const = default;

    /**
     * Pack into the 64-bit machine encoding:
     * [63:56] opcode, [55:50] rd, [49:44] rs1, [43:38] rs2,
     * [31:0] immediate (two's complement). Bits [37:32] are zero.
     */
    std::uint64_t encode() const;

    /** Inverse of encode(); panics on an illegal opcode field. */
    static Inst decode(std::uint64_t word);

    /** decode() for a word read from a snapshot: an illegal opcode or a
     *  register field past the architectural file is a corrupt
     *  snapshot, so it is fatal(), not a panic. */
    static Inst decodeSaved(std::uint64_t word);

    /** Snapshot step: the encode() word. */
    template <class Io> void io(Io &s)
    {
        std::uint64_t word = encode();
        s.u64(word);
        if constexpr (Io::loading)
            *this = decodeSaved(word);
    }

    /** Human-readable disassembly ("add x3, x1, x2"). */
    std::string toString() const;
};

/** Factory helpers used by the Builder and by tests. */
namespace inst
{

Inst rrr(Opcode op, RegId rd, RegId rs1, RegId rs2);
Inst rri(Opcode op, RegId rd, RegId rs1, std::int32_t imm);
Inst load(Opcode op, RegId rd, RegId base, std::int32_t disp);
Inst store(Opcode op, RegId src, RegId base, std::int32_t disp);
Inst amoswap(RegId rd, RegId src, RegId base, std::int32_t disp);
Inst branch(Opcode op, RegId rs1, RegId rs2, std::int32_t rel);
Inst jal(RegId rd, std::int32_t rel);
Inst jalr(RegId rd, RegId rs1, std::int32_t disp);
Inst lui(RegId rd, std::int32_t imm);
Inst nop();
Inst halt();

} // namespace inst

} // namespace sst

#endif // SSTSIM_ISA_INSTRUCTION_HH
