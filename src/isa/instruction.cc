#include "isa/instruction.hh"

#include <cstdio>

#include "common/logging.hh"

namespace sst
{

std::uint64_t
Inst::encode() const
{
    std::uint64_t w = 0;
    w |= static_cast<std::uint64_t>(op) << 56;
    w |= static_cast<std::uint64_t>(rd & 0x3f) << 50;
    w |= static_cast<std::uint64_t>(rs1 & 0x3f) << 44;
    w |= static_cast<std::uint64_t>(rs2 & 0x3f) << 38;
    w |= static_cast<std::uint32_t>(imm);
    return w;
}

Inst
Inst::decode(std::uint64_t word)
{
    Inst i;
    auto opField = static_cast<unsigned>(word >> 56);
    panic_if(opField >= static_cast<unsigned>(Opcode::NumOpcodes),
             "decode: illegal opcode field %u", opField);
    i.op = static_cast<Opcode>(opField);
    i.rd = static_cast<RegId>((word >> 50) & 0x3f);
    i.rs1 = static_cast<RegId>((word >> 44) & 0x3f);
    i.rs2 = static_cast<RegId>((word >> 38) & 0x3f);
    i.imm = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(word & 0xffffffffULL));
    return i;
}

Inst
Inst::decodeSaved(std::uint64_t word)
{
    auto opField = static_cast<unsigned>(word >> 56);
    fatal_if(opField >= static_cast<unsigned>(Opcode::NumOpcodes),
             "snapshot: illegal opcode field %u in instruction word "
             "0x%016llx (corrupt snapshot)",
             opField, static_cast<unsigned long long>(word));
    Inst i = decode(word);
    fatal_if(i.rd >= numArchRegs || i.rs1 >= numArchRegs
                 || i.rs2 >= numArchRegs,
             "snapshot: register field past x%u in instruction word "
             "0x%016llx (corrupt snapshot)",
             numArchRegs - 1, static_cast<unsigned long long>(word));
    return i;
}

std::string
Inst::toString() const
{
    const OpInfo &info = opInfo(op);
    char buf[96];
    switch (info.cls) {
      case OpClass::Load:
        if (isAtomic(op))
            std::snprintf(buf, sizeof(buf), "%-8s x%u, x%u, %d(x%u)",
                          info.mnemonic, rd, rs2, imm, rs1);
        else
            std::snprintf(buf, sizeof(buf), "%-8s x%u, %d(x%u)",
                          info.mnemonic, rd, imm, rs1);
        break;
      case OpClass::Store:
        std::snprintf(buf, sizeof(buf), "%-8s x%u, %d(x%u)", info.mnemonic,
                      rs2, imm, rs1);
        break;
      case OpClass::Branch:
        std::snprintf(buf, sizeof(buf), "%-8s x%u, x%u, %+d",
                      info.mnemonic, rs1, rs2, imm);
        break;
      case OpClass::Jump:
        if (op == Opcode::JAL)
            std::snprintf(buf, sizeof(buf), "%-8s x%u, %+d", info.mnemonic,
                          rd, imm);
        else
            std::snprintf(buf, sizeof(buf), "%-8s x%u, x%u, %d",
                          info.mnemonic, rd, rs1, imm);
        break;
      default:
        if (!info.writesRd)
            std::snprintf(buf, sizeof(buf), "%s", info.mnemonic);
        else if (op == Opcode::LUI)
            std::snprintf(buf, sizeof(buf), "%-8s x%u, %d", info.mnemonic,
                          rd, imm);
        else if (info.hasImm)
            std::snprintf(buf, sizeof(buf), "%-8s x%u, x%u, %d",
                          info.mnemonic, rd, rs1, imm);
        else if (info.readsRs2)
            std::snprintf(buf, sizeof(buf), "%-8s x%u, x%u, x%u",
                          info.mnemonic, rd, rs1, rs2);
        else
            std::snprintf(buf, sizeof(buf), "%-8s x%u, x%u",
                          info.mnemonic, rd, rs1);
        break;
    }
    return buf;
}

namespace inst
{

Inst
rrr(Opcode op, RegId rd, RegId rs1, RegId rs2)
{
    return Inst{op, rd, rs1, rs2, 0};
}

Inst
rri(Opcode op, RegId rd, RegId rs1, std::int32_t imm)
{
    return Inst{op, rd, rs1, 0, imm};
}

Inst
load(Opcode op, RegId rd, RegId base, std::int32_t disp)
{
    panic_if(!isLoad(op), "load() with non-load opcode");
    return Inst{op, rd, base, 0, disp};
}

Inst
store(Opcode op, RegId src, RegId base, std::int32_t disp)
{
    panic_if(!isStore(op), "store() with non-store opcode");
    return Inst{op, 0, base, src, disp};
}

Inst
amoswap(RegId rd, RegId src, RegId base, std::int32_t disp)
{
    return Inst{Opcode::AMOSWAP, rd, base, src, disp};
}

Inst
branch(Opcode op, RegId rs1, RegId rs2, std::int32_t rel)
{
    panic_if(!isCondBranch(op), "branch() with non-branch opcode");
    return Inst{op, 0, rs1, rs2, rel};
}

Inst
jal(RegId rd, std::int32_t rel)
{
    return Inst{Opcode::JAL, rd, 0, 0, rel};
}

Inst
jalr(RegId rd, RegId rs1, std::int32_t disp)
{
    return Inst{Opcode::JALR, rd, rs1, 0, disp};
}

Inst
lui(RegId rd, std::int32_t imm)
{
    return Inst{Opcode::LUI, rd, 0, 0, imm};
}

Inst
nop()
{
    return Inst{};
}

Inst
halt()
{
    return Inst{Opcode::HALT, 0, 0, 0, 0};
}

} // namespace inst
} // namespace sst
