/**
 * @file
 * Opcode definitions and static instruction properties for the sstsim
 * RISC ISA.
 *
 * The ISA is a small 64-bit load/store architecture: 32 integer registers
 * (x0 hardwired to zero), register+immediate addressing, PC-relative
 * conditional branches, and a handful of long-latency operations (MUL,
 * DIV, FP) that exercise the SST deferral machinery the same way loads
 * do. SST itself is ISA-agnostic; this ISA exists so the simulator and
 * its workload generators are fully self-contained.
 */

#ifndef SSTSIM_ISA_OPCODES_HH
#define SSTSIM_ISA_OPCODES_HH

#include <cstdint>

namespace sst
{

/** Every architecturally visible operation. */
enum class Opcode : std::uint8_t
{
    // ALU register-register
    ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU,
    // ALU register-immediate
    ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI,
    // Upper immediate
    LUI,
    // Long-latency integer
    MUL, DIV, REM,
    // Floating point (IEEE-754 double carried in integer registers)
    FADD, FSUB, FMUL, FDIV, FCVT_D_L, FCVT_L_D,
    // Memory (AMOSWAP atomically exchanges rs2 with M[rs1+imm])
    LD, LW, LB, ST, SW, SB, AMOSWAP,
    // Control
    BEQ, BNE, BLT, BGE, BLTU, BGEU,
    JAL, JALR,
    // Misc
    NOP, HALT,

    NumOpcodes
};

/** Coarse functional-unit class used by the timing models. */
enum class OpClass : std::uint8_t
{
    IntAlu,     ///< single-cycle integer
    IntMul,     ///< pipelined multiplier
    IntDiv,     ///< unpipelined divider
    FpAlu,      ///< FP add/sub/convert
    FpMul,      ///< FP multiply
    FpDiv,      ///< unpipelined FP divide
    Load,
    Store,
    Branch,     ///< conditional branch
    Jump,       ///< JAL/JALR
    Other       ///< NOP/HALT
};

/** Static decode information for one opcode. */
struct OpInfo
{
    const char *mnemonic;
    OpClass cls;
    /** Execution latency in cycles (Load uses the memory system). */
    unsigned latency;
    bool readsRs1;
    bool readsRs2;
    bool writesRd;
    bool hasImm;
};

/** The decode table, indexed by Opcode (defined in opcodes.cc). */
extern const OpInfo opTable[static_cast<unsigned>(Opcode::NumOpcodes)];

/** Out-of-line failure path of opInfo(). */
[[noreturn]] void badOpcode(unsigned idx);

// The decode lookups below run for every instruction every model
// handles, so they are inline; only the bad-opcode panic is out of line.

/** @return the static properties of @p op (panics on bad opcode). */
inline const OpInfo &
opInfo(Opcode op)
{
    auto idx = static_cast<unsigned>(op);
    if (idx >= static_cast<unsigned>(Opcode::NumOpcodes)) [[unlikely]]
        badOpcode(idx);
    return opTable[idx];
}

/** Convenience predicates. */
inline bool isLoad(Opcode op) { return opInfo(op).cls == OpClass::Load; }
inline bool isStore(Opcode op) { return opInfo(op).cls == OpClass::Store; }
inline bool isMem(Opcode op) { return isLoad(op) || isStore(op); }
/** True for read-modify-write memory ops (currently AMOSWAP). */
inline bool isAtomic(Opcode op) { return op == Opcode::AMOSWAP; }
inline bool
isCondBranch(Opcode op)
{
    return opInfo(op).cls == OpClass::Branch;
}
inline bool isJump(Opcode op) { return opInfo(op).cls == OpClass::Jump; }
inline bool isControl(Opcode op) { return isCondBranch(op) || isJump(op); }
/** True for ops whose latency makes them SST deferral candidates. */
inline bool
isLongLatency(Opcode op)
{
    OpClass c = opInfo(op).cls;
    return c == OpClass::IntDiv || c == OpClass::FpDiv;
}

/** Memory access size in bytes for LD/ST-class ops (panics otherwise). */
unsigned memAccessSize(Opcode op);

/** Look up an opcode by mnemonic; returns NumOpcodes when unknown. */
Opcode opcodeFromMnemonic(const char *mnemonic);

} // namespace sst

#endif // SSTSIM_ISA_OPCODES_HH
