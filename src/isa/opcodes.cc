#include "isa/opcodes.hh"

#include <cstring>

#include "common/logging.hh"

namespace sst
{

// Table indexed by Opcode. Latencies follow the machine model in
// DESIGN.md: 1-cycle ALU, 4-cycle pipelined MUL, 20-cycle DIV,
// 4-cycle FP add/mul, 12-cycle FP divide.
const OpInfo opTable[] = {
    //               mnemonic  class             lat r1     r2     rd     imm
    /* ADD      */ {"add",     OpClass::IntAlu,   1, true,  true,  true,  false},
    /* SUB      */ {"sub",     OpClass::IntAlu,   1, true,  true,  true,  false},
    /* AND      */ {"and",     OpClass::IntAlu,   1, true,  true,  true,  false},
    /* OR       */ {"or",      OpClass::IntAlu,   1, true,  true,  true,  false},
    /* XOR      */ {"xor",     OpClass::IntAlu,   1, true,  true,  true,  false},
    /* SLL      */ {"sll",     OpClass::IntAlu,   1, true,  true,  true,  false},
    /* SRL      */ {"srl",     OpClass::IntAlu,   1, true,  true,  true,  false},
    /* SRA      */ {"sra",     OpClass::IntAlu,   1, true,  true,  true,  false},
    /* SLT      */ {"slt",     OpClass::IntAlu,   1, true,  true,  true,  false},
    /* SLTU     */ {"sltu",    OpClass::IntAlu,   1, true,  true,  true,  false},
    /* ADDI     */ {"addi",    OpClass::IntAlu,   1, true,  false, true,  true},
    /* ANDI     */ {"andi",    OpClass::IntAlu,   1, true,  false, true,  true},
    /* ORI      */ {"ori",     OpClass::IntAlu,   1, true,  false, true,  true},
    /* XORI     */ {"xori",    OpClass::IntAlu,   1, true,  false, true,  true},
    /* SLLI     */ {"slli",    OpClass::IntAlu,   1, true,  false, true,  true},
    /* SRLI     */ {"srli",    OpClass::IntAlu,   1, true,  false, true,  true},
    /* SRAI     */ {"srai",    OpClass::IntAlu,   1, true,  false, true,  true},
    /* SLTI     */ {"slti",    OpClass::IntAlu,   1, true,  false, true,  true},
    /* LUI      */ {"lui",     OpClass::IntAlu,   1, false, false, true,  true},
    /* MUL      */ {"mul",     OpClass::IntMul,   4, true,  true,  true,  false},
    /* DIV      */ {"div",     OpClass::IntDiv,  20, true,  true,  true,  false},
    /* REM      */ {"rem",     OpClass::IntDiv,  20, true,  true,  true,  false},
    /* FADD     */ {"fadd",    OpClass::FpAlu,    4, true,  true,  true,  false},
    /* FSUB     */ {"fsub",    OpClass::FpAlu,    4, true,  true,  true,  false},
    /* FMUL     */ {"fmul",    OpClass::FpMul,    4, true,  true,  true,  false},
    /* FDIV     */ {"fdiv",    OpClass::FpDiv,   12, true,  true,  true,  false},
    /* FCVT_D_L */ {"fcvt.d.l",OpClass::FpAlu,    4, true,  false, true,  false},
    /* FCVT_L_D */ {"fcvt.l.d",OpClass::FpAlu,    4, true,  false, true,  false},
    /* LD       */ {"ld",      OpClass::Load,     1, true,  false, true,  true},
    /* LW       */ {"lw",      OpClass::Load,     1, true,  false, true,  true},
    /* LB       */ {"lb",      OpClass::Load,     1, true,  false, true,  true},
    /* ST       */ {"st",      OpClass::Store,    1, true,  true,  false, true},
    /* SW       */ {"sw",      OpClass::Store,    1, true,  true,  false, true},
    /* SB       */ {"sb",      OpClass::Store,    1, true,  true,  false, true},
    /* AMOSWAP  */ {"amoswap", OpClass::Load,     1, true,  true,  true,  true},
    /* BEQ      */ {"beq",     OpClass::Branch,   1, true,  true,  false, true},
    /* BNE      */ {"bne",     OpClass::Branch,   1, true,  true,  false, true},
    /* BLT      */ {"blt",     OpClass::Branch,   1, true,  true,  false, true},
    /* BGE      */ {"bge",     OpClass::Branch,   1, true,  true,  false, true},
    /* BLTU     */ {"bltu",    OpClass::Branch,   1, true,  true,  false, true},
    /* BGEU     */ {"bgeu",    OpClass::Branch,   1, true,  true,  false, true},
    /* JAL      */ {"jal",     OpClass::Jump,     1, false, false, true,  true},
    /* JALR     */ {"jalr",    OpClass::Jump,     1, true,  false, true,  true},
    /* NOP      */ {"nop",     OpClass::Other,    1, false, false, false, false},
    /* HALT     */ {"halt",    OpClass::Other,    1, false, false, false, false},
};

static_assert(sizeof(opTable) / sizeof(opTable[0])
                  == static_cast<size_t>(Opcode::NumOpcodes),
              "opcode table out of sync with Opcode enum");

void
badOpcode(unsigned idx)
{
    panic("bad opcode %u", idx);
}

unsigned
memAccessSize(Opcode op)
{
    switch (op) {
      case Opcode::LD:
      case Opcode::ST:
      case Opcode::AMOSWAP:
        return 8;
      case Opcode::LW:
      case Opcode::SW:
        return 4;
      case Opcode::LB:
      case Opcode::SB:
        return 1;
      default:
        panic("memAccessSize on non-memory opcode %s", opInfo(op).mnemonic);
    }
}

Opcode
opcodeFromMnemonic(const char *mnemonic)
{
    for (unsigned i = 0; i < static_cast<unsigned>(Opcode::NumOpcodes);
         ++i) {
        if (std::strcmp(opTable[i].mnemonic, mnemonic) == 0)
            return static_cast<Opcode>(i);
    }
    return Opcode::NumOpcodes;
}

} // namespace sst
