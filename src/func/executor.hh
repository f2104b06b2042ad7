/**
 * @file
 * Golden functional executor.
 *
 * All instruction semantics live here, factored so the timing cores can
 * reuse the pieces: aluOp() computes results from operand values,
 * branchTaken() evaluates conditions, effectiveAddr() computes memory
 * addresses. Executor::step() composes them against an ArchState and is
 * the oracle that every timing core is differentially tested against.
 */

#ifndef SSTSIM_FUNC_EXECUTOR_HH
#define SSTSIM_FUNC_EXECUTOR_HH

#include <array>
#include <cstdint>

#include "common/result.hh"
#include "common/types.hh"
#include "func/memory_image.hh"
#include "isa/instruction.hh"

namespace sst
{

class Program;

/** Committed architectural state of one hardware context. */
struct ArchState
{
    std::array<std::uint64_t, numArchRegs> regs{};
    std::uint64_t pc = 0;
    bool halted = false;

    template <class Io> void io(Io &s);

    std::uint64_t reg(RegId r) const { return r == 0 ? 0 : regs[r]; }

    void
    setReg(RegId r, std::uint64_t v)
    {
        if (r != 0)
            regs[r] = v;
    }

    bool regsEqual(const ArchState &other) const;
};

/** Pure-function instruction semantics. */
namespace semantics
{

/**
 * Compute the result of a non-memory, non-control op from operand
 * values. For immediate forms pass the immediate via @p inst.
 */
std::uint64_t aluOp(const Inst &inst, std::uint64_t a, std::uint64_t b);

/** Evaluate a conditional branch. */
bool branchTaken(const Inst &inst, std::uint64_t a, std::uint64_t b);

/** Effective byte address of a memory op given its base register value. */
Addr effectiveAddr(const Inst &inst, std::uint64_t base);

/** Sign-extend a loaded value of @p size bytes (LW/LB sign-extend). */
std::uint64_t extendLoad(Opcode op, std::uint64_t raw);

} // namespace semantics

/** Outcome of executing one instruction. */
struct StepInfo
{
    Inst inst;
    std::uint64_t pc = 0;       ///< PC of the executed instruction
    std::uint64_t nextPc = 0;   ///< architectural successor
    Addr effAddr = invalidAddr; ///< memory address when inst is LD/ST
    unsigned memSize = 0;
    std::uint64_t storeValue = 0;
    std::uint64_t result = 0;   ///< value written to rd (if any)
    bool taken = false;         ///< branch/jump redirected the PC
    bool halted = false;

    template <class Io> void io(Io &s);
};

/** Drives ArchState through a Program one instruction at a time. */
class Executor
{
  public:
    /**
     * Bind to a program and a memory image. The image must already hold
     * the program's data segments (see MemoryImage::loadSegments).
     */
    Executor(const Program &program, MemoryImage &memory)
        : program_(program), memory_(memory)
    {}

    /** Execute the instruction at @p state.pc; updates state and memory. */
    StepInfo step(ArchState &state);

    /**
     * Run to HALT or until @p maxInsts instructions retire.
     * @return the number of instructions executed.
     */
    std::uint64_t run(ArchState &state, std::uint64_t maxInsts);

  private:
    const Program &program_;
    MemoryImage &memory_;
};

/** A program run to HALT on the golden functional executor: the
 *  reference every timing run's final state is compared against. */
struct GoldenRun
{
    MemoryImage image;
    ArchState state;
    std::uint64_t insts = 0;
};

/** Run @p program to HALT on a fresh image; an Error when it does not
 *  halt within @p maxInsts instructions. */
Result<GoldenRun> goldenRun(const Program &program,
                            std::uint64_t maxInsts = 2'000'000'000ULL);

} // namespace sst

#endif // SSTSIM_FUNC_EXECUTOR_HH
