#include "core/inorder.hh"

#include <algorithm>

#include "common/logging.hh"
#include "snap/snap.hh"

namespace sst
{

InOrderCore::InOrderCore(const CoreParams &params, const Program &program,
                         MemoryImage &memory, CorePort &port)
    : Core(params, program, memory, port),
      exec_(program, memory),
      stallUseCycles_(stats_.addScalar("stall_use_cycles",
                                       "cycles stalled on operand use")),
      stallStoreBufCycles_(stats_.addScalar(
          "stall_storebuf_cycles", "cycles stalled on full store buffer")),
      stallFetchCycles_(stats_.addScalar("stall_fetch_cycles",
                                         "cycles stalled on I-fetch"))
{
}

void
InOrderCore::cycle()
{
    drainStoreBuffer();
    if (arch_.halted)
        return;
    for (unsigned slot = 0; slot < params_.fetchWidth; ++slot) {
        if (arch_.halted || !issueOne())
            break;
    }
}

void
InOrderCore::drainStoreBuffer()
{
    // One store per cycle leaves the buffer when the L1 can take it.
    if (storeBuffer_.empty())
        return;
    PendingStore &st = storeBuffer_.front();
    if (st.issuableAt <= now_) {
        auto res = port_.access(AccessType::Store, st.addr, now_);
        if (res.rejected)
            st.issuableAt = res.retryCycle;
        else
            storeBuffer_.pop_front();
    }
    // The next drain attempt probes the port: it bounds any skip.
    if (!storeBuffer_.empty())
        wakeBy(storeBuffer_.front().issuableAt);
}

bool
InOrderCore::issueOne()
{
    // The first failing condition is this cycle's blocker: its release
    // bounds the wake, its scalar and category repeat every skipped
    // cycle.
    if (frontEndReadyAt_ > now_) {
        block(trace::CpiCat::Fetch, frontEndReadyAt_, &stallFetchCycles_);
        return false;
    }
    std::uint64_t pc = arch_.pc;
    Cycle fetchAt = fetchReady(pc);
    if (fetchAt > now_) {
        frontEndReadyAt_ = fetchAt;
        block(trace::CpiCat::Fetch, fetchAt, &stallFetchCycles_);
        return false;
    }

    const Inst &inst = program_.at(pc);
    const OpInfo &info = opInfo(inst.op);

    // Scoreboard: every source must be ready this cycle (x0 always is).
    auto pending = [&](bool reads, RegId r) {
        return reads && r != 0 && regReady_[r] > now_;
    };
    bool p1 = pending(info.readsRs1, inst.rs1);
    bool p2 = pending(info.readsRs2, inst.rs2);
    if (p1 || p2) {
        bool coh = (p1 && regCoh_[inst.rs1]) || (p2 && regCoh_[inst.rs2]);
        Cycle ready = std::max(p1 ? regReady_[inst.rs1] : 0,
                               p2 ? regReady_[inst.rs2] : 0);
        block(coh ? trace::CpiCat::Coherence : trace::CpiCat::UseStall,
              ready, &stallUseCycles_);
        return false;
    }

    // Structural hazards before committing to execute.
    if ((info.cls == OpClass::IntDiv || info.cls == OpClass::FpDiv)
        && divBusyUntil_ > now_) {
        block(trace::CpiCat::UseStall, divBusyUntil_, &stallUseCycles_);
        return false;
    }
    if (isStore(inst.op)
        && storeBuffer_.size() >= params_.storeBufferEntries) {
        // Released by the drain, whose next attempt is already recorded.
        block(trace::CpiCat::StoreBuf, kWakeNever, &stallStoreBufCycles_);
        return false;
    }
    if (isLoad(inst.op)) {
        // Probe without committing: a rejected load (no MSHR) must retry.
        // Atomics go through this path too but access as a Store (the
        // directory must treat them as writers); their memory update
        // happens at execute time, bypassing the store buffer — an
        // acceptable approximation since the atomicity comes from the
        // sequential CMP tick, not the buffer.
        Addr addr = semantics::effectiveAddr(inst, arch_.reg(inst.rs1));
        AccessType type =
            isAtomic(inst.op) ? AccessType::Store : AccessType::Load;
        auto res = port_.access(type, addr, now_);
        if (res.rejected) {
            // Re-probes next cycle.
            block(trace::CpiCat::UseStall, now_, &stallUseCycles_);
            return false;
        }
        exec_.step(arch_);
        ++loadsExecuted_;
        if (isAtomic(inst.op))
            ++storesExecuted_;
        regReady_[inst.rd] = res.readyCycle;
        regCoh_[inst.rd] = res.coh;
        ++committed_;
        record(trace::TraceKind::Commit, trace::TraceStrand::Main, pc);
        return true;
    }

    StepInfo step = exec_.step(arch_);
    ++committed_;
    record(trace::TraceKind::Commit, trace::TraceStrand::Main, pc);

    if (info.writesRd)
        regCoh_[inst.rd] = false; // non-load producers are never coherence
    switch (info.cls) {
      case OpClass::Store:
        ++storesExecuted_;
        storeBuffer_.push_back(
            PendingStore{step.effAddr, step.memSize, now_});
        break;
      case OpClass::Branch:
      case OpClass::Jump: {
        if (info.writesRd)
            regReady_[inst.rd] = now_ + 1;
        bool correct =
            resolveControl(inst, pc, step.nextPc, step.taken);
        if (!correct)
            frontEndReadyAt_ = now_ + params_.pipelineDepth;
        else if (step.taken)
            frontEndReadyAt_ = now_ + 1; // taken-branch fetch bubble
        break;
      }
      case OpClass::IntDiv:
      case OpClass::FpDiv:
        divBusyUntil_ = now_ + info.latency;
        regReady_[inst.rd] = now_ + info.latency;
        break;
      case OpClass::Other:
        break;
      default:
        if (info.writesRd)
            regReady_[inst.rd] = now_ + info.latency;
        break;
    }
    return true;
}


template <class Io>
void
InOrderCore::state(Io &s)
{
    for (Cycle &rdy : regReady_)
        s.u64(rdy);
    for (bool &coh : regCoh_)
        s.b(coh);
    snap::seq(s, snap::Width::u32, storeBuffer_, 20, [&](PendingStore &st) {
        s.u64(st.addr);
        s.u32(st.size);
        s.u64(st.issuableAt);
    });
    s.u64(divBusyUntil_);
    s.u64(frontEndReadyAt_);
}

template void InOrderCore::state(snap::Writer &);
template void InOrderCore::state(snap::Reader &);

} // namespace sst
