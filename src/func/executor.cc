#include "func/executor.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "isa/program.hh"
#include "snap/snap.hh"

namespace sst
{

bool
ArchState::regsEqual(const ArchState &other) const
{
    for (unsigned r = 1; r < numArchRegs; ++r)
        if (regs[r] != other.regs[r])
            return false;
    return true;
}

namespace semantics
{

namespace
{

double
asDouble(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

std::uint64_t
asBits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

} // namespace

std::uint64_t
aluOp(const Inst &inst, std::uint64_t a, std::uint64_t b)
{
    auto sa = static_cast<std::int64_t>(a);
    auto sb = static_cast<std::int64_t>(b);
    std::int64_t imm = inst.imm;
    switch (inst.op) {
      case Opcode::ADD: return a + b;
      case Opcode::SUB: return a - b;
      case Opcode::AND: return a & b;
      case Opcode::OR: return a | b;
      case Opcode::XOR: return a ^ b;
      case Opcode::SLL: return a << (b & 63);
      case Opcode::SRL: return a >> (b & 63);
      case Opcode::SRA:
        return static_cast<std::uint64_t>(sa >> (b & 63));
      case Opcode::SLT: return sa < sb ? 1 : 0;
      case Opcode::SLTU: return a < b ? 1 : 0;
      case Opcode::ADDI: return a + static_cast<std::uint64_t>(imm);
      case Opcode::ANDI: return a & static_cast<std::uint64_t>(imm);
      case Opcode::ORI: return a | static_cast<std::uint64_t>(imm);
      case Opcode::XORI: return a ^ static_cast<std::uint64_t>(imm);
      case Opcode::SLLI: return a << (imm & 63);
      case Opcode::SRLI: return a >> (imm & 63);
      case Opcode::SRAI:
        return static_cast<std::uint64_t>(sa >> (imm & 63));
      case Opcode::SLTI: return sa < imm ? 1 : 0;
      case Opcode::LUI:
        return static_cast<std::uint64_t>(
            static_cast<std::int64_t>(inst.imm));
      case Opcode::MUL: return a * b;
      case Opcode::DIV:
        if (sb == 0)
            return ~std::uint64_t{0};
        if (sa == INT64_MIN && sb == -1)
            return static_cast<std::uint64_t>(sa);
        return static_cast<std::uint64_t>(sa / sb);
      case Opcode::REM:
        if (sb == 0)
            return a;
        if (sa == INT64_MIN && sb == -1)
            return 0;
        return static_cast<std::uint64_t>(sa % sb);
      case Opcode::FADD: return asBits(asDouble(a) + asDouble(b));
      case Opcode::FSUB: return asBits(asDouble(a) - asDouble(b));
      case Opcode::FMUL: return asBits(asDouble(a) * asDouble(b));
      case Opcode::FDIV: return asBits(asDouble(a) / asDouble(b));
      case Opcode::FCVT_D_L: return asBits(static_cast<double>(sa));
      case Opcode::FCVT_L_D: {
        double d = asDouble(a);
        if (std::isnan(d))
            return 0;
        if (d >= 9.2233720368547758e18)
            return static_cast<std::uint64_t>(INT64_MAX);
        if (d <= -9.2233720368547758e18)
            return static_cast<std::uint64_t>(INT64_MIN);
        return static_cast<std::uint64_t>(static_cast<std::int64_t>(d));
      }
      case Opcode::NOP: return 0;
      default:
        panic("aluOp on non-ALU opcode %s", opInfo(inst.op).mnemonic);
    }
}

bool
branchTaken(const Inst &inst, std::uint64_t a, std::uint64_t b)
{
    auto sa = static_cast<std::int64_t>(a);
    auto sb = static_cast<std::int64_t>(b);
    switch (inst.op) {
      case Opcode::BEQ: return a == b;
      case Opcode::BNE: return a != b;
      case Opcode::BLT: return sa < sb;
      case Opcode::BGE: return sa >= sb;
      case Opcode::BLTU: return a < b;
      case Opcode::BGEU: return a >= b;
      default:
        panic("branchTaken on non-branch opcode %s",
              opInfo(inst.op).mnemonic);
    }
}

Addr
effectiveAddr(const Inst &inst, std::uint64_t base)
{
    panic_if(!isMem(inst.op), "effectiveAddr on non-memory opcode");
    return base + static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(inst.imm));
}

std::uint64_t
extendLoad(Opcode op, std::uint64_t raw)
{
    switch (op) {
      case Opcode::LD:
        return raw;
      case Opcode::LW:
        return static_cast<std::uint64_t>(static_cast<std::int64_t>(
            static_cast<std::int32_t>(static_cast<std::uint32_t>(raw))));
      case Opcode::LB:
        return static_cast<std::uint64_t>(static_cast<std::int64_t>(
            static_cast<std::int8_t>(static_cast<std::uint8_t>(raw))));
      default:
        panic("extendLoad on non-load opcode");
    }
}

} // namespace semantics

StepInfo
Executor::step(ArchState &state)
{
    StepInfo info;
    panic_if(state.halted, "step() on halted state");
    info.pc = state.pc;
    const Inst &inst = program_.at(state.pc);
    info.inst = inst;
    info.nextPc = state.pc + 1;

    switch (opInfo(inst.op).cls) {
      case OpClass::Load: {
        info.effAddr = semantics::effectiveAddr(inst, state.reg(inst.rs1));
        info.memSize = memAccessSize(inst.op);
        if (isAtomic(inst.op)) {
            // AMOSWAP: the read-modify-write must be indivisible even
            // when cores tick concurrently, so it goes through the
            // image's atomicSwap (the parallel engine's overlay view
            // serializes it through a gated journal).
            info.storeValue = state.reg(inst.rs2);
            info.result = memory_.atomicSwap(info.effAddr,
                                             info.storeValue,
                                             info.memSize);
        } else {
            std::uint64_t raw = memory_.read(info.effAddr, info.memSize);
            info.result = semantics::extendLoad(inst.op, raw);
        }
        state.setReg(inst.rd, info.result);
        break;
      }
      case OpClass::Store: {
        info.effAddr = semantics::effectiveAddr(inst, state.reg(inst.rs1));
        info.memSize = memAccessSize(inst.op);
        info.storeValue = state.reg(inst.rs2);
        memory_.write(info.effAddr, info.storeValue, info.memSize);
        break;
      }
      case OpClass::Branch: {
        info.taken = semantics::branchTaken(inst, state.reg(inst.rs1),
                                            state.reg(inst.rs2));
        if (info.taken)
            info.nextPc = state.pc
                          + static_cast<std::uint64_t>(
                              static_cast<std::int64_t>(inst.imm));
        break;
      }
      case OpClass::Jump: {
        info.taken = true;
        info.result = state.pc + 1; // link value
        if (inst.op == Opcode::JAL) {
            info.nextPc = state.pc
                          + static_cast<std::uint64_t>(
                              static_cast<std::int64_t>(inst.imm));
        } else {
            info.nextPc = state.reg(inst.rs1)
                          + static_cast<std::uint64_t>(
                              static_cast<std::int64_t>(inst.imm));
        }
        state.setReg(inst.rd, info.result);
        break;
      }
      case OpClass::Other: {
        if (inst.op == Opcode::HALT) {
            info.halted = true;
            state.halted = true;
            info.nextPc = state.pc;
        }
        break;
      }
      default: {
        info.result = semantics::aluOp(inst, state.reg(inst.rs1),
                                       state.reg(inst.rs2));
        state.setReg(inst.rd, info.result);
        break;
      }
    }
    state.pc = info.nextPc;
    return info;
}

std::uint64_t
Executor::run(ArchState &state, std::uint64_t maxInsts)
{
    std::uint64_t n = 0;
    while (!state.halted && n < maxInsts) {
        step(state);
        ++n;
    }
    return n;
}

Result<GoldenRun>
goldenRun(const Program &program, std::uint64_t maxInsts)
{
    GoldenRun golden;
    golden.image.loadSegments(program);
    golden.insts = Executor(program, golden.image).run(golden.state, maxInsts);
    if (!golden.state.halted)
        return Error{"program does not halt functionally",
                     exit_code::badInput};
    return golden;
}

template <class Io>
void
ArchState::io(Io &s)
{
    for (std::uint64_t &reg : regs)
        s.u64(reg);
    s.u64(pc);
    s.b(halted);
}

template <class Io>
void
StepInfo::io(Io &s)
{
    inst.io(s);
    s.u64(pc);
    s.u64(nextPc);
    s.u64(effAddr);
    s.u32(memSize);
    s.u64(storeValue);
    s.u64(result);
    s.b(taken);
    s.b(halted);
}

template void ArchState::io(snap::Writer &);
template void ArchState::io(snap::Reader &);
template void StepInfo::io(snap::Writer &);
template void StepInfo::io(snap::Reader &);

} // namespace sst
