#include "core/ooo.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "snap/snap.hh"

namespace sst
{

namespace
{

/** No flip limit: the issue walk reached the youngest entry. */
constexpr SeqNum kNoFlipLimit = ~SeqNum{0};

bool
usesDivider(Opcode op)
{
    OpClass cls = opInfo(op).cls;
    return cls == OpClass::IntDiv || cls == OpClass::FpDiv;
}

} // namespace

OoOCore::OoOCore(const CoreParams &params, const Program &program,
                 MemoryImage &memory, CorePort &port)
    : Core(params, program, memory, port),
      rob_(params.robEntries),
      sched_(rob_.capacity()),
      ready_((rob_.capacity() + 63) / 64),
      stores_(params.robEntries),
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

void
OoOCore::linkProducer(std::size_t slot, unsigned operand, SeqNum seq)
{
    if (seq == 0 || !inWindow(seq))
        return; // value already committed
    Sched &prod = sched_[slotOf(seq)];
    Sched &sc = sched_[slot];
    if (prod.done == invalidCycle) {
        sc.next[operand] = prod.consumers;
        prod.consumers = static_cast<std::uint32_t>(slot * 2 + operand);
        ++sc.pending;
    } else {
        sc.readyAt = std::max(sc.readyAt, prod.done);
    }
}

void
OoOCore::wire(std::size_t slot)
{
    const RobEntry &e = rob_.atSlot(slot);
    linkProducer(slot, 0, e.src1Producer);
    linkProducer(slot, 1, e.src2Producer);
    if (sched_[slot].pending == 0)
        markReady(slot);
}

void
OoOCore::wakeConsumers(std::size_t slot, Cycle done)
{
    Sched &prod = sched_[slot];
    prod.done = done;
    for (std::uint32_t link = prod.consumers; link != kNoLink;
         link = sched_[link / 2].next[link % 2]) {
        Sched &sc = sched_[link / 2];
        sc.readyAt = std::max(sc.readyAt, done);
        if (--sc.pending == 0)
            markReady(link / 2);
    }
    prod.consumers = kNoLink;
}

const OoOCore::StoreRef *
OoOCore::olderStoreFor(const RobEntry &load)
{
    Addr lo = load.step.effAddr;
    Addr hi = load.step.effAddr + load.step.memSize;
    for (std::size_t age = stores_.size(); age-- > 0;) {
        const StoreRef &st = stores_[age];
        if (st.seq > load.seq)
            continue; // younger than the load
        if (std::max(st.lo, lo) < std::min(st.hi, hi))
            return &st; // youngest older overlapping store wins
    }
    return nullptr;
}

void
OoOCore::commitStage()
{
    unsigned width = params_.fetchWidth;
    unsigned memRetired = 0;
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
            stores_.pop();
        }
        if (head.isLd || head.isSt)
            ++memRetired;
        if (head.inst.op == Opcode::HALT)
            arch_.halted = true;
        if (lastProducer_[head.inst.rd] == head.seq)
            lastProducer_[head.inst.rd] = 0;
        ++committed_;
        record(trace::TraceKind::Commit, trace::TraceStrand::Main,
               head.pc, head.seq);
        rob_.pop();
        // The HALT cycle leaves the LSQ count unchanged, and snapshots
        // taken after HALT hold that count (docs/INTERNALS.md).
        if (arch_.halted)
            return;
    }
    lsqOccupancy_ -= memRetired;
}

bool
OoOCore::tryIssue(std::size_t slot)
{
    // Earliest issue cycle: MSHR backoff, operands, the divider.
    Sched &sc = sched_[slot];
    Cycle readyAt = sc.readyAt;
    if (sc.div)
        readyAt = std::max(readyAt, divBusyUntil_);
    if (readyAt > now_) {
        wakeBy(readyAt);
        return false;
    }

    RobEntry &e = rob_.atSlot(slot);
    if (e.isLd) {
        if (const StoreRef *st = olderStoreFor(e)) {
            Cycle stored = sched_[st->slot].done;
            if (stored == invalidCycle)
                return false; // forwards once the store issues
            // Forward from the in-flight store.
            e.doneCycle = std::max(now_, stored) + 1;
        } else {
            auto res = port_.access(AccessType::Load, e.step.effAddr, now_);
            if (res.rejected) {
                e.retryAt = res.retryCycle;
                sc.readyAt = std::max(sc.readyAt, e.retryAt);
                wakeBy(e.retryAt);
                return false;
            }
            e.doneCycle = res.readyCycle;
            ++loadsExecuted_;
        }
    } else if (e.isSt) {
        e.doneCycle = now_ + 1; // address+data captured
    } else {
        e.doneCycle = now_ + opInfo(e.inst.op).latency;
        if (sc.div)
            divBusyUntil_ = e.doneCycle;
    }

    e.state = State::Issued;
    clearReady(slot);
    --iqOccupancy_;
    inFlight_.push_back({e.seq, e.doneCycle});
    wakeConsumers(slot, e.doneCycle);

    // A mispredicted control instruction redirects fetch when it
    // resolves.
    if (e.mispredicted && redirectBlockedOn_ == e.seq) {
        frontEndReadyAt_ = std::max(frontEndReadyAt_,
                                    e.doneCycle + params_.pipelineDepth);
        redirectBlockedOn_ = 0;
    }
    return true;
}

void
OoOCore::flipDone(std::size_t settled, SeqNum limit)
{
    std::size_t kept = 0;
    for (std::size_t i = 0; i < inFlight_.size(); ++i) {
        InFlight f = inFlight_[i];
        if (i < settled) {
            if (!inWindow(f.seq))
                continue; // committed before its flip
            if (f.doneCycle <= now_ && f.seq < limit) {
                rob_.atSlot(slotOf(f.seq)).state = State::Done;
                continue;
            }
        }
        inFlight_[kept++] = f;
    }
    inFlight_.resize(kept);
}

unsigned
OoOCore::issueStage()
{
    // Visit the ready set oldest first: slots [head, capacity), then the
    // wrapped [0, head). A wakeup marks only younger slots, which the
    // walk has yet to reach, so each word is re-read after a visit.
    std::size_t settled = inFlight_.size();
    unsigned slots = params_.issueWidth;
    SeqNum lastIssued = 0;
    const std::size_t head = rob_.head();
    for (int pass = 0; pass < 2 && slots > 0; ++pass) {
        std::size_t from = pass == 0 ? head : 0;
        std::size_t to = pass == 0 ? rob_.capacity() : head;
        for (std::size_t w = from / 64; w * 64 < to && slots > 0; ++w) {
            std::uint64_t after = ~std::uint64_t{0};
            if (w == from / 64)
                after <<= from % 64;
            while (slots > 0) {
                std::uint64_t bits = ready_[w] & after;
                if (bits == 0)
                    break;
                std::size_t slot = w * 64 + std::countr_zero(bits);
                if (slot >= to)
                    break;
                after = (~std::uint64_t{0} << (slot % 64)) << 1;
                if (tryIssue(slot)) {
                    --slots;
                    lastIssued = rob_.atSlot(slot).seq;
                }
            }
        }
    }

    // Flips stop at the entry that took the last issue slot: where they
    // stop is part of the snapshot bytes (docs/INTERNALS.md).
    flipDone(settled, slots > 0 ? kNoFlipLimit : lastIssued);
    return params_.issueWidth - slots;
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

        std::size_t at = rob_.push();
        RobEntry &e = rob_.atSlot(at);
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

        sched_[at] = Sched{};
        sched_[at].div = usesDivider(inst.op);
        wire(at);
        if (e.isSt)
            stores_.push({e.seq, e.step.effAddr,
                          e.step.effAddr + e.step.memSize, at});

        bool isCtrl = isControl(inst.op);
        if (isCtrl) {
            bool correct =
                resolveControl(inst, pc, e.step.nextPc, e.step.taken);
            if (!correct) {
                e.mispredicted = true;
                redirectBlockedOn_ = e.seq;
            }
        }
        ++dispatched;

        if (fetchHalted_ || redirectBlockedOn_ != 0)
            return dispatched;
        if (isCtrl && e.step.taken) {
            // Taken-branch fetch bubble ends the dispatch group.
            frontEndReadyAt_ = now_ + 1;
            return dispatched;
        }
    }
    return dispatched;
}

void
OoOCore::rebuildSchedule()
{
    // Slots are found by seq offset from the head, so the window's
    // seqs must be consecutive and end just before nextSeq_.
    for (std::size_t age = 0; age < rob_.size(); ++age) {
        SeqNum want = rob_.front().seq + age;
        fatal_if(rob_[age].seq != want,
                 "snapshot: ROB entry %zu has seq %llu, expected %llu",
                 age, static_cast<unsigned long long>(rob_[age].seq),
                 static_cast<unsigned long long>(want));
    }
    fatal_if(!rob_.empty() && nextSeq_ != rob_.back().seq + 1,
             "snapshot: next seq %llu does not follow the ROB",
             static_cast<unsigned long long>(nextSeq_));

    std::fill(ready_.begin(), ready_.end(), 0);
    inFlight_.clear();
    stores_.clear();
    for (std::size_t age = 0; age < rob_.size(); ++age) {
        std::size_t slot = rob_.slot(age);
        const RobEntry &e = rob_.atSlot(slot);
        sched_[slot] = Sched{};
        sched_[slot].readyAt = e.retryAt;
        if (e.state != State::Waiting)
            sched_[slot].done = e.doneCycle;
        sched_[slot].div = usesDivider(e.inst.op);
        if (e.state == State::Issued)
            inFlight_.push_back({e.seq, e.doneCycle});
        if (e.isSt)
            stores_.push({e.seq, e.step.effAddr,
                          e.step.effAddr + e.step.memSize, slot});
    }
    // Link only once every slot is reset: a producer may sit anywhere.
    for (std::size_t age = 0; age < rob_.size(); ++age) {
        std::size_t slot = rob_.slot(age);
        if (rob_.atSlot(slot).state == State::Waiting)
            wire(slot);
    }
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
    }, params_.robEntries);
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
    if constexpr (Io::loading)
        rebuildSchedule();
}

template void OoOCore::state(snap::Writer &);
template void OoOCore::state(snap::Reader &);

} // namespace sst
