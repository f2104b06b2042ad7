#include "core/core.hh"

#include "common/logging.hh"
#include "snap/snap.hh"

namespace sst
{

Core::Core(const CoreParams &params, const Program &program,
           MemoryImage &memory, CorePort &port)
    : params_(params),
      program_(program),
      memory_(memory),
      port_(port),
      predictor_(makePredictor(params.predictor, params.strandHistory)),
      stats_(params.name),
      cpiStack_(stats_),
      committed_(stats_.addScalar("committed_insts",
                                  "architecturally retired instructions")),
      cyclesStat_(stats_.addScalar("cycles", "simulated cycles")),
      branches_(stats_.addScalar("branches", "conditional branches")),
      mispredicts_(stats_.addScalar("mispredicts",
                                    "direction/target mispredictions")),
      loadsExecuted_(stats_.addScalar("loads", "loads executed")),
      storesExecuted_(stats_.addScalar("stores", "stores executed"))
{
    stats_.addFormula("ipc", "committed instructions per cycle", [this] {
        auto c = cyclesStat_.value();
        return c ? static_cast<double>(committed_.value())
                       / static_cast<double>(c)
                 : 0.0;
    });
    stats_.addFormula("mispredict_rate", "mispredicts per branch", [this] {
        auto b = branches_.value();
        return b ? static_cast<double>(mispredicts_.value())
                       / static_cast<double>(b)
                 : 0.0;
    });
    stats_.addChild(port.stats());
}

Cycle
Core::nextWakeCycle() const
{
    if (arch_.halted)
        return kWakeNever;
    return blocked_.acted ? kWakeNow : releaseWake();
}

void
Core::advanceIdle(Cycle n)
{
    if (n == 0)
        return;
    idleAdvance(n);
    now_ += n;
    cyclesStat_ += n;
}

void
Core::idleAdvance(Cycle n)
{
    if (blocked_.counter)
        *blocked_.counter += n;
    cpiStack_.add(stallCat_, n);
}

double
Core::ipc() const
{
    Cycle elapsed = now_ - startCycle_;
    return elapsed ? static_cast<double>(committed_.value())
                         / static_cast<double>(elapsed)
                   : 0.0;
}

void
Core::warmStart(const ArchState &state, Cycle start_cycle)
{
    panic_if(now_ != 0 && now_ != startCycle_,
             "warmStart after execution began");
    arch_ = state;
    arch_.halted = false;
    now_ = start_cycle;
    startCycle_ = start_cycle;
}

template <class Io>
void
Core::io(Io &s)
{
    s.tag("core");
    s.expect(std::string(model()), "core model");
    arch_.io(s);
    s.u64(now_);
    s.u64(startCycle_);
    s.u64(lastFetchLine_);
    s.u64(fetchLineReady_);
    s.enum8(stallCat_, trace::CpiCat::NumCats, "CPI category");
    predictor_->io(s);
    btb_.io(s);
    ras_.io(s);
    stats_.io(s);
    s.tag("core-extra");
    ioExtra(s);
}

template void Core::io(snap::Writer &);
template void Core::io(snap::Reader &);

void
Core::recordEvent(trace::TraceKind kind, trace::TraceStrand strand,
                  std::uint64_t pc, SeqNum seq, std::uint32_t arg)
{
    traceBuf_->record(trace::TraceEvent{now_, pc, seq, arg, kind, strand});
}

Cycle
Core::fetchNewLine(std::uint64_t pc, Addr addr, Addr line)
{
    auto res = port_.access(AccessType::InstFetch, addr, now_);
    if (res.rejected) {
        // Structural fetch stall: don't cache the line state so the
        // retry re-probes.
        return res.retryCycle;
    }
    lastFetchLine_ = line;
    record(trace::TraceKind::Fetch, trace::TraceStrand::Main, pc, 0,
           res.l1Hit ? 0 : 1);
    // The front end is pipelined: an L1I hit is hidden by the fetch
    // stages (already accounted in the mispredict penalty); only misses
    // stall the stream.
    fetchLineReady_ = res.l1Hit ? now_ : res.readyCycle;
    return fetchLineReady_;
}

bool
Core::resolveControl(const Inst &inst, std::uint64_t pc,
                     std::uint64_t nextPc, bool taken)
{
    if (isCondBranch(inst.op)) {
        ++branches_;
        bool predTaken = predictor_->predict(pc);
        predictor_->update(pc, taken);
        bool targetKnown = true;
        if (taken) {
            targetKnown = btb_.lookup(pc) == nextPc;
            btb_.update(pc, nextPc);
        }
        bool correct = predTaken == taken && (!taken || targetKnown);
        if (!correct)
            ++mispredicts_;
        return correct;
    }

    if (inst.op == Opcode::JAL) {
        // Direct target: BTB learns it; first encounter redirects.
        bool known = btb_.lookup(pc) == nextPc;
        btb_.update(pc, nextPc);
        if (inst.rd != 0)
            ras_.push(pc + 1);
        if (!known)
            ++mispredicts_;
        return known;
    }

    if (inst.op == Opcode::JALR) {
        bool isReturn = inst.rd == 0 && inst.rs1 == 1 && inst.imm == 0;
        std::uint64_t pred = isReturn ? ras_.pop() : btb_.lookup(pc);
        btb_.update(pc, nextPc);
        if (inst.rd != 0)
            ras_.push(pc + 1);
        bool correct = pred == nextPc;
        if (!correct)
            ++mispredicts_;
        return correct;
    }

    return true;
}

} // namespace sst
