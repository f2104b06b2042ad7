#include "core/ooo.hh"

#include "common/logging.hh"
#include "snap/snap.hh"

namespace sst
{

OoOCore::OoOCore(const CoreParams &params, const Program &program,
                 MemoryImage &memory, CorePort &port)
    : Core(params, program, memory, port),
      exec_(program, memory),
      robFullCycles_(stats_.addScalar("rob_full_cycles",
                                      "dispatch stalls on full ROB")),
      iqFullCycles_(stats_.addScalar("iq_full_cycles",
                                     "dispatch stalls on full issue Q")),
      lsqFullCycles_(stats_.addScalar("lsq_full_cycles",
                                      "dispatch stalls on full LSQ")),
      robOccupancy_(stats_.addDist("rob_occupancy",
                                   "ROB entries in use per cycle",
                                   params.robEntries + 1, 16))
{
}

void
OoOCore::cycle()
{
    robOccupancy_.sample(rob_.size());
    commitStage();
    if (arch_.halted)
        return;
    unsigned issued = issueStage();
    unsigned dispatched = dispatchStage();
    blocked_.acted = issued > 0 || dispatched > 0;
}

void
OoOCore::idleAdvance(Cycle n)
{
    // Every skipped cycle re-samples the frozen ROB occupancy on top of
    // the recorded stall. (Issued->Done flips are left unapplied: every
    // consumer treats Issued-with-elapsed-doneCycle as Done.)
    robOccupancy_.sample(rob_.size(), n);
    Core::idleAdvance(n);
}

OoOCore::RobEntry *
OoOCore::entryFor(SeqNum seq)
{
    if (rob_.empty() || seq < rob_.front().seq
        || seq > rob_.back().seq)
        return nullptr;
    return &rob_[seq - rob_.front().seq];
}

bool
OoOCore::producerIssued(SeqNum seq, Cycle &readyAt)
{
    if (seq == 0)
        return true;
    RobEntry *prod = entryFor(seq);
    if (!prod)
        return true; // already committed
    if (prod->state == State::Waiting)
        return false;
    readyAt = std::max(readyAt, prod->doneCycle);
    return true;
}

OoOCore::RobEntry *
OoOCore::olderStoreFor(const RobEntry &load)
{
    RobEntry *best = nullptr;
    for (auto &e : rob_) {
        if (e.seq >= load.seq)
            break;
        if (!e.isSt)
            continue;
        Addr lo = std::max(e.step.effAddr, load.step.effAddr);
        Addr hi = std::min(e.step.effAddr + e.step.memSize,
                           load.step.effAddr + load.step.memSize);
        if (lo < hi)
            best = &e; // youngest older overlapping store wins
    }
    return best;
}

void
OoOCore::commitStage()
{
    unsigned width = params_.fetchWidth;
    if (rob_.empty())
        block(trace::CpiCat::Fetch);
    while (width-- > 0 && !rob_.empty()) {
        RobEntry &head = rob_.front();
        if (head.state == State::Waiting || head.doneCycle > now_) {
            // A waiting head is bounded by the issue stage's record.
            block(trace::CpiCat::UseStall,
                  head.state == State::Waiting ? kWakeNever
                                               : head.doneCycle);
            break;
        }
        if (head.isSt) {
            // Retire the store into the cache; a rejected access stalls
            // commit (finite write resources) and retries next cycle.
            auto res =
                port_.access(AccessType::Store, head.step.effAddr, now_);
            if (res.rejected) {
                block(trace::CpiCat::StoreBuf, now_);
                break;
            }
            ++storesExecuted_;
        }
        if (head.inst.op == Opcode::HALT)
            arch_.halted = true;
        if (lastProducer_[head.inst.rd] == head.seq)
            lastProducer_[head.inst.rd] = 0;
        ++committed_;
        record(trace::TraceKind::Commit, trace::TraceStrand::Main,
               head.pc, head.seq);
        rob_.pop_front();
        if (arch_.halted)
            return;
    }
}

unsigned
OoOCore::issueStage()
{
    unsigned slots = params_.issueWidth;
    unsigned issued = 0;
    for (auto &e : rob_) {
        if (slots == 0)
            break;
        if (e.state == State::Issued && e.doneCycle <= now_)
            e.state = State::Done;
        if (e.state != State::Waiting)
            continue;

        // Earliest issue cycle: MSHR backoff, operands, the divider. An
        // entry whose producer has not issued yet wakes through that
        // producer's own record.
        Cycle readyAt = e.retryAt;
        if (!producerIssued(e.src1Producer, readyAt)
            || !producerIssued(e.src2Producer, readyAt))
            continue;
        const OpInfo &info = opInfo(e.inst.op);
        if (info.cls == OpClass::IntDiv || info.cls == OpClass::FpDiv)
            readyAt = std::max(readyAt, divBusyUntil_);
        if (readyAt > now_) {
            wakeBy(readyAt);
            continue;
        }

        if (e.isLd) {
            if (RobEntry *st = olderStoreFor(e)) {
                if (st->state == State::Waiting)
                    continue; // forwards once the store issues
                // Forward from the in-flight store.
                e.doneCycle = std::max(now_, st->doneCycle) + 1;
            } else {
                auto res = port_.access(AccessType::Load,
                                        e.step.effAddr, now_);
                if (res.rejected) {
                    e.retryAt = res.retryCycle;
                    wakeBy(e.retryAt);
                    continue;
                }
                e.doneCycle = res.readyCycle;
                ++loadsExecuted_;
            }
        } else if (e.isSt) {
            e.doneCycle = now_ + 1; // address+data captured
        } else {
            e.doneCycle = now_ + info.latency;
            if (info.cls == OpClass::IntDiv || info.cls == OpClass::FpDiv)
                divBusyUntil_ = e.doneCycle;
        }

        e.state = State::Issued;
        --slots;
        ++issued;
        --iqOccupancy_;

        // A mispredicted control instruction redirects fetch when it
        // resolves.
        if (e.mispredicted && redirectBlockedOn_ == e.seq) {
            frontEndReadyAt_ =
                std::max(frontEndReadyAt_,
                         e.doneCycle + params_.pipelineDepth);
            redirectBlockedOn_ = 0;
        }
    }

    // LSQ entries free at commit; model occupancy from ROB contents.
    lsqOccupancy_ = 0;
    for (auto &e : rob_)
        if (e.isLd || e.isSt)
            ++lsqOccupancy_;
    return issued;
}

unsigned
OoOCore::dispatchStage()
{
    // A blocked redirect or a drained front end is released by the
    // issue of the branch or the commit of HALT; the fetch timers and
    // the full queues (released by commit and issue) are recorded here.
    unsigned dispatched = 0;
    if (fetchHalted_ || redirectBlockedOn_ != 0)
        return dispatched;
    if (frontEndReadyAt_ > now_) {
        wakeBy(frontEndReadyAt_);
        return dispatched;
    }

    for (unsigned slot = 0; slot < params_.fetchWidth; ++slot) {
        if (rob_.size() >= params_.robEntries) {
            block(trace::CpiCat::Other, kWakeNever, &robFullCycles_);
            return dispatched;
        }
        if (iqOccupancy_ >= params_.issueQueueEntries) {
            block(trace::CpiCat::Other, kWakeNever, &iqFullCycles_);
            return dispatched;
        }
        std::uint64_t pc = arch_.pc;
        const Inst &inst = program_.at(pc);
        if (isMem(inst.op) && lsqOccupancy_ >= params_.lsqEntries) {
            block(trace::CpiCat::Other, kWakeNever, &lsqFullCycles_);
            return dispatched;
        }
        Cycle fetchAt = fetchReady(pc);
        if (fetchAt > now_) {
            frontEndReadyAt_ = fetchAt;
            wakeBy(fetchAt);
            return dispatched;
        }

        RobEntry e;
        e.seq = nextSeq_++;
        e.pc = pc;
        e.inst = inst;
        e.src1Producer =
            opInfo(inst.op).readsRs1 ? lastProducer_[inst.rs1] : 0;
        e.src2Producer =
            opInfo(inst.op).readsRs2 ? lastProducer_[inst.rs2] : 0;
        e.isLd = isLoad(inst.op);
        e.isSt = isStore(inst.op);

        // Functional execution at dispatch (fetch is always on the
        // correct path in this model).
        e.step = exec_.step(arch_);
        if (e.step.halted) {
            // Drain the window; commit of HALT ends the simulation.
            arch_.halted = false;
            fetchHalted_ = true;
        }

        if (opInfo(inst.op).writesRd && inst.rd != 0)
            lastProducer_[inst.rd] = e.seq;
        ++iqOccupancy_;
        if (e.isLd || e.isSt)
            ++lsqOccupancy_;

        bool isCtrl = isControl(inst.op);
        if (isCtrl) {
            bool correct =
                resolveControl(inst, pc, e.step.nextPc, e.step.taken);
            if (!correct) {
                e.mispredicted = true;
                redirectBlockedOn_ = e.seq;
            }
        }
        rob_.push_back(std::move(e));
        ++dispatched;

        if (fetchHalted_ || redirectBlockedOn_ != 0)
            return dispatched;
        if (isCtrl && rob_.back().step.taken) {
            // Taken-branch fetch bubble ends the dispatch group.
            frontEndReadyAt_ = now_ + 1;
            return dispatched;
        }
    }
    return dispatched;
}


template <class Io>
void
OoOCore::state(Io &s)
{
    snap::seq(s, snap::Width::u32, rob_, 114, [&](RobEntry &e) {
        s.u64(e.seq);
        s.u64(e.pc);
        e.inst.io(s);
        e.step.io(s);
        s.enum8(e.state, State{static_cast<int>(State::Done) + 1},
                "ROB entry state");
        s.u64(e.doneCycle);
        s.u64(e.retryAt);
        s.u64(e.src1Producer);
        s.u64(e.src2Producer);
        s.b(e.isLd);
        s.b(e.isSt);
        s.b(e.mispredicted);
    });
    for (SeqNum &p : lastProducer_)
        s.u64(p);
    s.u64(nextSeq_);
    s.u32(iqOccupancy_);
    s.u32(lsqOccupancy_);
    s.u64(divBusyUntil_);
    s.u64(frontEndReadyAt_);
    s.u64(redirectBlockedOn_);
    s.b(fetchHalted_);
    s.b(blocked_.acted);
}

template void OoOCore::state(snap::Writer &);
template void OoOCore::state(snap::Reader &);

} // namespace sst
