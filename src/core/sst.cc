#include "core/sst.hh"

#include <algorithm>

#include "common/logging.hh"
#include "snap/snap.hh"

namespace sst
{

SstCore::SstCore(const CoreParams &params, const Program &program,
                 MemoryImage &memory, CorePort &port)
    : Core(params, program, memory, port),
      dqCapacity_(params.dqEntries
                          > port.faults().params().dqSqueeze
                      ? params.dqEntries
                            - port.faults().params().dqSqueeze
                      : 1),
      ssqCapacity_(params.ssqEntries
                           > port.faults().params().ssqSqueeze
                       ? params.ssqEntries
                             - port.faults().params().ssqSqueeze
                       : 1),
      abortArmed_(port.faults().params().forceAbortRate > 0),
      epochs_(params.checkpoints),
      // Replay results live at most one DQ's worth of producers per
      // epoch; the ring grows past that only when live seqs collide.
      replayResults_(std::size_t{params.dqEntries} * 2),
      checkpointsTaken_(stats_.addScalar("checkpoints_taken",
                                         "speculation epochs opened")),
      epochsCommitted_(stats_.addScalar("epochs_committed",
                                        "epochs retired via replay")),
      fullCommits_(stats_.addScalar("full_commits",
                                    "speculation regions fully retired")),
      deferredInsts_(stats_.addScalar("deferred_insts",
                                      "instructions parked in the DQ")),
      replayedInsts_(stats_.addScalar("replayed_insts",
                                      "DQ entries executed by the "
                                      "behind strand")),
      redeferredInsts_(stats_.addScalar("redeferred_insts",
                                        "DQ entries deferred again "
                                        "during replay")),
      specLoads_(stats_.addScalar("spec_loads",
                                  "loads executed speculatively by the "
                                  "ahead strand")),
      failBranch_(stats_.addScalar("fail_branch",
                                   "rollbacks: deferred branch "
                                   "mispredicted")),
      failJump_(stats_.addScalar("fail_jump",
                                 "rollbacks: deferred indirect jump "
                                 "mispredicted")),
      failMem_(stats_.addScalar("fail_mem",
                                "rollbacks: load/store disambiguation "
                                "conflict")),
      failForced_(stats_.addScalar("fail_forced",
                                   "rollbacks: injected fault or "
                                   "watchdog degradation")),
      failCoh_(stats_.addScalar("fail_coh",
                                "rollbacks: remote write hit the "
                                "speculative read set")),
      failVpred_(stats_.addScalar("fail_vpred",
                                  "rollbacks: predicted load value "
                                  "wrong at fill verify")),
      vpPredictions_(stats_.addScalar("vp_predictions",
                                      "load values supplied by the "
                                      "value predictor")),
      vpCorrect_(stats_.addScalar("vp_correct",
                                  "value predictions verified correct "
                                  "at replay")),
      sleElisions_(stats_.addScalar("sle_elisions",
                                    "lock acquires executed past "
                                    "speculatively")),
      sleCommits_(stats_.addScalar("sle_commits",
                                   "elided critical sections committed "
                                   "atomically")),
      sleAborts_(stats_.addScalar("sle_aborts",
                                  "elisions abandoned (conflict, nested "
                                  "atomic, or forced rollback)")),
      scoutEnds_(stats_.addScalar("scout_ends",
                                  "scout regions ended by miss return")),
      livelockSuppressions_(
          stats_.addScalar("livelock_suppressions",
                           "trigger PCs forced non-speculative by the "
                           "rollback livelock guard")),
      watchdogDegrades_(stats_.addScalar("watchdog_degrades",
                                         "speculation regions abandoned "
                                         "at the watchdog's request")),
      dqFullStallCycles_(stats_.addScalar("dq_full_stalls",
                                          "ahead stalls: DQ full")),
      ssqFullStallCycles_(stats_.addScalar("ssq_full_stalls",
                                           "ahead stalls: SSQ full")),
      naJumpStallCycles_(stats_.addScalar("na_jump_stalls",
                                          "ahead stalls: unpredictable "
                                          "NA jump target")),
      branchThrottleStallCycles_(
          stats_.addScalar("branch_throttle_stalls",
                           "ahead stalls: deferred-branch limit")),
      aheadStallUseCycles_(stats_.addScalar("ahead_stall_use",
                                            "ahead stalls: operand not "
                                            "ready")),
      discardedInsts_(stats_.addScalar("discarded_insts",
                                       "speculative instructions thrown "
                                       "away by rollbacks")),
      dqOccDist_(stats_.addDist("dq_occupancy",
                                "deferred-queue entries while "
                                "speculating",
                                params.dqEntries + 1, 16)),
      epochInsts_(stats_.addDist("epoch_insts",
                                 "instructions committed per epoch",
                                 4096, 32))
{
    vpred_ = ValuePredictor(valuePredKindFromString(params.valuePred));
    fatal_if(params.checkpoints == 0, "SST needs at least one checkpoint");
    fatal_if(params.discardSpecWork && params.checkpoints != 1,
             "hardware-scout mode is single-checkpoint by definition");
    fatal_if(params.elideLocks && params.discardSpecWork,
             "lock elision needs committed speculative work; scout "
             "discards it");
    port.setCohClient(this);
}

SstCore::~SstCore()
{
    port_.setCohClient(nullptr);
}

bool
SstCore::specReadsLine(Addr line) const
{
    if (epochs_.empty())
        return false;
    const unsigned lb = port_.l1d().params().lineBytes;
    for (const auto &ld : loadLog_) {
        if (ld.addr < line + lb && line < ld.addr + ld.size)
            return true;
    }
    return false;
}

void
SstCore::cohSquash()
{
    pendingCohSquash_ = true;
}

unsigned
SstCore::dqRecount() const
{
    unsigned n = 0;
    for (const auto &e : epochs_)
        n += static_cast<unsigned>(e.dq.size() + e.redeferred.size());
    return n;
}

std::vector<std::array<std::uint64_t, 3>>
SstCore::replayResultList() const
{
    std::vector<std::array<std::uint64_t, 3>> out;
    for (SeqNum seq : replayResults_.keys()) {
        const ReplayResult *res = replayResults_.find(seq);
        out.push_back({seq, res->value, res->readyCycle});
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool
SstCore::replayRingConsistent() const
{
    return replayResults_.consistent();
}

std::uint64_t
SstCore::specMemRead(Addr addr, unsigned size, SeqNum before) const
{
    std::uint64_t v = memory_.read(addr, size);
    for (const auto &st : ssq_) {
        if (st.seq >= before)
            break;
        if (!st.resolved)
            continue;
        Addr lo = std::max(st.addr, addr);
        Addr hi = std::min(st.addr + st.size, addr + size);
        for (Addr a = lo; a < hi; ++a) {
            unsigned dst_sh = static_cast<unsigned>(a - addr) * 8;
            unsigned src_sh = static_cast<unsigned>(a - st.addr) * 8;
            std::uint64_t byte = (st.value >> src_sh) & 0xff;
            v = (v & ~(std::uint64_t{0xff} << dst_sh)) | (byte << dst_sh);
        }
    }
    return v;
}

void
SstCore::publishReplayValue(SeqNum seq, RegId rd, std::uint64_t value,
                            Cycle ready)
{
    if (rd == 0)
        return;
    if (na_[rd] && naWriter_[rd] == seq) {
        specRegs_[rd] = value;
        na_[rd] = false;
        naWriter_[rd] = 0;
        specReady_[rd] = ready;
    }
    for (auto &epoch : epochs_) {
        if (epoch.na[rd] && epoch.naWriter[rd] == seq) {
            epoch.regs[rd] = value;
            epoch.na[rd] = false;
            epoch.naWriter[rd] = 0;
        }
    }
}

void
SstCore::defer(DqEntry entry, bool reserve_ssq_slot)
{
    ++deferredInsts_;
    record(trace::TraceKind::Defer, trace::TraceStrand::Ahead, entry.pc,
           entry.seq);
    if (params_.discardSpecWork)
        return; // scout: the parked work is simply dropped
    if (reserve_ssq_slot) {
        // Reserve the store's SSQ slot now so replay can never deadlock
        // on a full queue; the address is recorded when known so younger
        // loads can defer on the memory dependence instead of guessing.
        SsqEntry slot;
        slot.seq = entry.seq;
        slot.resolved = false;
        if (entry.src1.used && entry.src1.captured) {
            slot.addr = semantics::effectiveAddr(
                entry.inst, entry.src1.value);
            slot.size = memAccessSize(entry.inst.op);
        }
        ssq_.push_back(slot);
    }
    epochs_.back().dq.push_back(std::move(entry));
    ++dqCount_;
}

void
SstCore::resolveSsqPlaceholder(SeqNum seq, Addr addr, unsigned size,
                               std::uint64_t value)
{
    for (auto &st : ssq_) {
        if (st.seq == seq) {
            panic_if(st.resolved, "SSQ placeholder %llu already resolved",
                     static_cast<unsigned long long>(seq));
            st.resolved = true;
            st.addr = addr;
            st.size = size;
            st.value = value;
            return;
        }
    }
    panic("no SSQ placeholder for store seq %llu",
          static_cast<unsigned long long>(seq));
}

void
SstCore::drainSsqUpTo(SeqNum bound)
{
    auto it = ssq_.begin();
    while (it != ssq_.end() && it->seq < bound) {
        panic_if(!it->resolved,
                 "committing epoch with unresolved store seq %llu",
                 static_cast<unsigned long long>(it->seq));
        memory_.write(it->addr, it->value, it->size);
        storeBuffer_.push_back(PendingStore{it->addr, it->size, now_});
        ++storesExecuted_;
        record(trace::TraceKind::SsqDrain, trace::TraceStrand::Main,
               it->addr, it->seq, it->size);
        ++it;
    }
    ssq_.erase(ssq_.begin(), it);
}

void
SstCore::logSpecLoad(SeqNum seq, Addr addr, unsigned size)
{
    if (params_.lineGranularConflicts) {
        // s-bit style tracking: one bit per L1 line. Cheaper hardware,
        // but false sharing within a line forces spurious rollbacks.
        loadLog_.push_back(SpecLoad{seq, port_.l1d().lineAddr(addr),
                                    port_.l1d().params().lineBytes});
    } else {
        loadLog_.push_back(SpecLoad{seq, addr, size});
    }
}

bool
SstCore::storeConflicts(SeqNum store_seq, Addr addr,
                        unsigned size) const
{
    Addr lo_a = addr;
    Addr hi_a = addr + size;
    if (params_.lineGranularConflicts) {
        lo_a = addr & ~static_cast<Addr>(port_.l1d().params().lineBytes
                                         - 1);
        hi_a = lo_a + port_.l1d().params().lineBytes;
    }
    for (const auto &ld : loadLog_) {
        if (ld.seq <= store_seq)
            continue;
        Addr lo = std::max(ld.addr, lo_a);
        Addr hi = std::min(ld.addr + ld.size, hi_a);
        if (lo < hi)
            return true;
    }
    return false;
}

void
SstCore::drainStoreBuffer()
{
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

void
SstCore::cycle()
{
    if (pendingCohSquash_) {
        // Noted during a remote core's tick; the round-robin harness
        // guarantees nothing of ours ran in between, so the region that
        // read the line is still the live one.
        pendingCohSquash_ = false;
        if (!epochs_.empty())
            rollback(FailKind::CohConflict);
    }
    if (!storeBuffer_.empty())
        drainStoreBuffer();
    if (abortArmed_ && !epochs_.empty() && port_.faults().forceAbort())
        rollback(FailKind::Forced);
    if (epochs_.empty()) {
        normalCycle();
        // Normal mode's own record is the whole story; an episode this
        // tick opened starts with a naive tick (see nextWakeCycle()).
        blocked_.acted = true;
        return;
    }

    dqOccDist_.sample(dqOccupancy());
    unsigned behind_slots = 0;
    if (!params_.discardSpecWork) {
        behind_slots = aheadHalted_ ? params_.fetchWidth
                                    : std::max(1u, params_.fetchWidth / 2);
    }
    unsigned used = behind_slots ? replayStrand(behind_slots) : 0;
    unsigned ahead_issued = 0;
    if (!epochs_.empty()) {
        unsigned ahead_slots =
            params_.fetchWidth > used ? params_.fetchWidth - used : 0;
        ahead_issued = aheadStrand(ahead_slots);
    }
    blocked_.acted = used > 0 || ahead_issued > 0;
    tryCommit();
}

Cycle
SstCore::nextWakeCycle() const
{
    // Events from outside the tick: a remote write's squash rolls back
    // at the top of the next cycle, and with abort injection armed
    // every speculating cycle draws from the fault RNG.
    if (pendingCohSquash_)
        return kWakeNow;
    if (arch_.halted)
        return kWakeNever;
    if (epochs_.empty())
        return releaseWake();
    if (blocked_.acted || abortArmed_)
        return kWakeNow;
    return releaseWake();
}

trace::CpiCat
SstCore::specCycleCat() const
{
    // Queue-pressure stalls keep their own categories; every other
    // speculating cycle is replay overlap (or value-prediction overlap
    // while predictions stand in for fills).
    if (stallCat_ == trace::CpiCat::DqFull
        || stallCat_ == trace::CpiCat::SsqFull)
        return stallCat_;
    return vpOutstanding_ > 0 ? trace::CpiCat::ValuePred
                              : trace::CpiCat::Replay;
}

void
SstCore::idleAdvance(Cycle n)
{
    if (epochs_.empty()) {
        Core::idleAdvance(n);
        return;
    }
    // Mirror the speculating tick: one DQ-occupancy sample and one
    // provisionally attributed cycle apiece.
    if (blocked_.counter)
        *blocked_.counter += n;
    dqOccDist_.sample(dqOccupancy(), n);
    pendingSpec_[static_cast<std::size_t>(specCycleCat())] += n;
}

void
SstCore::normalCycle()
{
    for (unsigned slot = 0; slot < params_.fetchWidth; ++slot) {
        if (arch_.halted || !epochs_.empty())
            break;
        if (!normalIssueOne())
            break;
    }
}

bool
SstCore::normalIssueOne()
{
    // Normal mode keeps no per-cycle stall scalars: the first failing
    // condition records only its category and release.
    if (frontEndReadyAt_ > now_) {
        block(trace::CpiCat::Fetch, frontEndReadyAt_);
        return false;
    }
    std::uint64_t pc = arch_.pc;
    Cycle fetch_at = fetchReady(pc);
    if (fetch_at > now_) {
        frontEndReadyAt_ = fetch_at;
        block(trace::CpiCat::Fetch, fetch_at);
        return false;
    }

    const Inst &inst = program_.at(pc);
    const OpInfo &info = opInfo(inst.op);

    Cycle op_ready = 0;
    if (info.readsRs1 && inst.rs1 != 0)
        op_ready = std::max(op_ready, regReady_[inst.rs1]);
    if (info.readsRs2 && inst.rs2 != 0)
        op_ready = std::max(op_ready, regReady_[inst.rs2]);
    if (op_ready > now_) {
        block(trace::CpiCat::UseStall, op_ready);
        return false;
    }

    if ((info.cls == OpClass::IntDiv || info.cls == OpClass::FpDiv)
        && divBusyUntil_ > now_) {
        block(trace::CpiCat::UseStall, divBusyUntil_);
        return false;
    }

    if (isLoad(inst.op)) {
        Addr addr = semantics::effectiveAddr(inst, arch_.reg(inst.rs1));
        bool atomic = isAtomic(inst.op);
        // Elide a free lock's acquire: peek the functional value (the
        // shared image is coherent by construction) and, instead of
        // swapping, open a speculation region from this PC. The lock
        // line enters the speculative read set, so a remote acquire
        // squashes the region; the probe stays a *read* — elision must
        // not invalidate the other readers it is cooperating with.
        bool elide = atomic && params_.elideLocks
                     && !params_.discardSpecWork
                     && pc != suppressTriggerPc_ && pc != sleSuppressPc_
                     && memory_.read(addr, memAccessSize(inst.op)) == 0;
        AccessType type = atomic && !elide ? AccessType::Store
                                           : AccessType::Load;
        auto res = port_.access(type, addr, now_);
        if (res.rejected) {
            block(trace::CpiCat::UseStall, now_); // re-probes next cycle
            return false;
        }
        if (atomic) {
            if (elide) {
                enterSpeculation(pc, res.readyCycle);
                SeqNum seq = nextSeq_++;
                logSpecLoad(seq, addr, memAccessSize(inst.op));
                if (inst.rd != 0) {
                    // The acquire reads the free value and "succeeds".
                    specRegs_[inst.rd] = 0;
                    specReady_[inst.rd] = res.readyCycle;
                }
                sleActive_ = true;
                sleLockAddr_ = addr;
                sleReleaseSeen_ = false;
                ++sleElisions_;
                record(trace::TraceKind::LockElide,
                       trace::TraceStrand::Ahead, pc, seq, 1);
                aheadPc_ = pc + 1;
                return true;
            }
            if (pc == sleSuppressPc_)
                sleSuppressPc_ = ~std::uint64_t{0}; // one-shot fallback
            if (pc == suppressTriggerPc_) {
                suppressTriggerPc_ = ~std::uint64_t{0};
                consecutiveFails_ = 0;
            }
            // Conventional atomic: execute in place (the functional
            // swap fires the write observer, squashing remote readers).
            Executor exec(program_, memory_);
            exec.step(arch_);
            ++loadsExecuted_;
            ++storesExecuted_;
            regReady_[inst.rd] = res.readyCycle;
            regCoh_[inst.rd] = res.coh;
            record(trace::TraceKind::Commit, trace::TraceStrand::Main,
                   pc, nextSeq_);
            ++nextSeq_;
            ++committed_;
            return true;
        }
        bool trigger = !res.l1Hit
                       && (!params_.deferOnL2MissOnly || !res.l2Hit);
        if (trigger && pc != suppressTriggerPc_) {
            // Long-latency event: checkpoint and start speculating. The
            // ahead strand re-issues this load as its first instruction.
            enterSpeculation(pc, res.readyCycle);
            return true;
        }
        if (pc == suppressTriggerPc_) {
            suppressTriggerPc_ = ~std::uint64_t{0};
            consecutiveFails_ = 0;
        }
        if (vpred_.enabled())
            vpred_.train(pc, semantics::extendLoad(
                                 inst.op,
                                 memory_.read(addr, memAccessSize(inst.op))));
        Executor exec(program_, memory_);
        exec.step(arch_);
        ++loadsExecuted_;
        regReady_[inst.rd] = res.readyCycle;
        regCoh_[inst.rd] = res.coh;
        record(trace::TraceKind::Commit, trace::TraceStrand::Main, pc,
               nextSeq_);
        ++nextSeq_;
        ++committed_;
        return true;
    }

    Executor exec(program_, memory_);
    StepInfo step = exec.step(arch_);
    record(trace::TraceKind::Commit, trace::TraceStrand::Main, pc,
           nextSeq_);
    ++nextSeq_;
    ++committed_;

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
        bool correct = resolveControl(inst, pc, step.nextPc, step.taken);
        if (!correct)
            frontEndReadyAt_ = now_ + params_.pipelineDepth;
        else if (step.taken)
            frontEndReadyAt_ = now_ + 1;
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

void
SstCore::enterSpeculation(std::uint64_t trigger_pc, Cycle trigger_ready)
{
    bool ok = takeCheckpoint(trigger_pc, nextSeq_);
    panic_if(!ok, "enterSpeculation with no free checkpoint");
    // Hand the predictor to the ahead strand, seeding its history
    // register from the committed stream's. No-ops without
    // core.strand_history (setStrand does nothing and the restore
    // rewrites the single register with itself).
    std::uint64_t hist = predictor_->snapshotHistory();
    predictor_->setStrand(BranchPredictor::aheadStrand);
    predictor_->restoreHistory(hist);
    // Scout regions end when the trigger data returns; record it here
    // because the ahead strand's re-execution of the load may already
    // hit (the fill can land before the strand reaches it).
    epochs_.back().triggerReady = trigger_ready;
    record(trace::TraceKind::Trigger, trace::TraceStrand::Ahead,
           trigger_pc, nextSeq_);
    specRegs_ = arch_.regs;
    na_.fill(false);
    naWriter_.fill(0);
    specReady_ = regReady_;
    aheadPc_ = trigger_pc;
    aheadHalted_ = false;
    aheadFrontEndReadyAt_ = frontEndReadyAt_;
    aheadDivBusyUntil_ = divBusyUntil_;
}

bool
SstCore::takeCheckpoint(std::uint64_t trigger_pc, SeqNum start_seq)
{
    if (epochs_.size() >= params_.checkpoints)
        return false;
    const bool first = epochs_.empty();
    Epoch &e = epochs_.push_back();
    e.id = nextEpochId_++;
    e.pc = trigger_pc;
    e.startSeq = start_seq;
    if (first) {
        e.regs = arch_.regs;
    } else {
        e.regs = specRegs_;
        e.na = na_;
        e.naWriter = naWriter_;
    }
    e.predictorHistory = predictor_->snapshotHistory();
    e.ras = ras_;
    record(trace::TraceKind::Checkpoint, trace::TraceStrand::Ahead,
           trigger_pc, start_seq, e.id);
    ++checkpointsTaken_;
    return true;
}

unsigned
SstCore::aheadStrand(unsigned slots)
{
    unsigned issued = 0;
    for (unsigned slot = 0; slot < slots; ++slot) {
        if (aheadHalted_ || epochs_.empty())
            break;
        if (!aheadIssueOne())
            break;
        ++issued;
    }
    return issued;
}

bool
SstCore::aheadIssueOne()
{
    // Each failing condition records the strand's blocker. Front-end
    // stalls keep no scalar and no category (folded into Replay while
    // speculating); the queue-full, NA-jump, throttle and barrier
    // stalls are released by replay and commit progress, which the
    // behind strand's record already bounds.
    if (aheadFrontEndReadyAt_ > now_) {
        wakeBy(aheadFrontEndReadyAt_);
        return false;
    }
    std::uint64_t pc = aheadPc_;
    Cycle fetch_at = fetchReady(pc);
    if (fetch_at > now_) {
        aheadFrontEndReadyAt_ = fetch_at;
        wakeBy(fetch_at);
        return false;
    }

    const Inst &inst = program_.at(pc);
    const OpInfo &info = opInfo(inst.op);
    bool discard = params_.discardSpecWork;

    bool na1 = info.readsRs1 && inst.rs1 != 0 && na_[inst.rs1];
    bool na2 = info.readsRs2 && inst.rs2 != 0 && na_[inst.rs2];

    // Available operands must also be timing-ready (in-order strand).
    Cycle op_ready = 0;
    if (info.readsRs1 && !na1 && inst.rs1 != 0)
        op_ready = std::max(op_ready, specReady_[inst.rs1]);
    if (info.readsRs2 && !na2 && inst.rs2 != 0)
        op_ready = std::max(op_ready, specReady_[inst.rs2]);
    if (op_ready > now_) {
        block(trace::CpiCat::UseStall, op_ready, &aheadStallUseCycles_);
        return false;
    }

    if ((info.cls == OpClass::IntDiv || info.cls == OpClass::FpDiv)
        && aheadDivBusyUntil_ > now_) {
        block(trace::CpiCat::UseStall, aheadDivBusyUntil_,
              &aheadStallUseCycles_);
        return false;
    }

    if (isAtomic(inst.op)) {
        // Atomics never execute speculatively (their memory write is
        // globally visible). A nested atomic inside an elision aborts
        // it — the retry acquires conventionally; in a plain region the
        // atomic is a barrier: stall until the region drains, commits
        // through this PC, and normal mode re-issues it.
        if (sleActive_) {
            rollback(FailKind::CohConflict);
            return false;
        }
        block(trace::CpiCat::UseStall, kWakeNever, &aheadStallUseCycles_);
        return false;
    }

    std::uint64_t v1 = inst.rs1 == 0 ? 0 : specRegs_[inst.rs1];
    std::uint64_t v2 = inst.rs2 == 0 ? 0 : specRegs_[inst.rs2];

    auto make_operand = [&](bool used, bool is_na, RegId r,
                            std::uint64_t v) {
        DeferredOperand op;
        op.used = used;
        if (!used)
            return op;
        if (is_na) {
            op.captured = false;
            op.producer = naWriter_[r];
        } else {
            op.captured = true;
            op.value = v;
        }
        return op;
    };

    auto kill_na = [&](RegId rd) {
        if (rd != 0) {
            na_[rd] = false;
            naWriter_[rd] = 0;
        }
    };

    if (na1 || na2) {
        // ---- deferral path ----
        if (!discard && dqOccupancy() >= dqCapacity_) {
            block(trace::CpiCat::DqFull, kWakeNever, &dqFullStallCycles_);
            return false;
        }
        bool is_store = isStore(inst.op);
        if (is_store && ssqOccupancy() >= ssqCapacity_) {
            block(trace::CpiCat::SsqFull, kWakeNever, &ssqFullStallCycles_);
            return false;
        }

        DqEntry entry;
        entry.pc = pc;
        entry.inst = inst;

        if (inst.op == Opcode::JALR) {
            // Indirect jump with an unknown target: only a return can be
            // predicted (via the RAS); anything else stalls the strand
            // until the replay resolves the register.
            bool is_return =
                inst.rd == 0 && inst.rs1 == 1 && inst.imm == 0;
            if (!is_return || ras_.empty()) {
                block(trace::CpiCat::Other, kWakeNever, &naJumpStallCycles_);
                return false;
            }
            // Check the throttle before popping: a failing attempt must
            // not mutate the RAS (it would drain an entry per stalled
            // cycle).
            if (params_.maxDeferredBranches != 0
                && unverifiedBranches_ >= params_.maxDeferredBranches) {
                block(trace::CpiCat::Other, kWakeNever,
                      &branchThrottleStallCycles_);
                return false;
            }
            std::uint64_t pred = ras_.pop();
            ++unverifiedBranches_;
            entry.seq = nextSeq_++;
            entry.src1 = make_operand(true, na1, inst.rs1, v1);
            entry.predTarget = pred;
            if (inst.rd != 0) {
                specRegs_[inst.rd] = pc + 1; // link value is known
                specReady_[inst.rd] = now_ + 1;
                kill_na(inst.rd);
            }
            defer(std::move(entry), false);
            aheadPc_ = pred;
            return true;
        }

        entry.seq = nextSeq_++;
        entry.src1 = make_operand(info.readsRs1, na1, inst.rs1, v1);
        entry.src2 = make_operand(info.readsRs2, na2, inst.rs2, v2);

        if (isCondBranch(inst.op)) {
            if (params_.maxDeferredBranches != 0
                && unverifiedBranches_ >= params_.maxDeferredBranches) {
                block(trace::CpiCat::Other, kWakeNever,
                      &branchThrottleStallCycles_);
                nextSeq_ = entry.seq; // un-consume the sequence number
                return false;
            }
            ++unverifiedBranches_;
            entry.predHistory = predictor_->snapshotHistory();
            entry.predTaken = predictor_->predict(pc);
            // Speculative history update, as a real front end does at
            // fetch; rollback restores the checkpoint's snapshot.
            predictor_->shiftHistory(entry.predTaken);
            aheadPc_ = entry.predTaken
                           ? pc
                                 + static_cast<std::uint64_t>(
                                     static_cast<std::int64_t>(inst.imm))
                           : pc + 1;
            defer(std::move(entry), false);
            return true;
        }

        std::uint64_t pv = 0;
        if (info.cls == OpClass::Load && !discard && inst.rd != 0
            && vpred_.predict(pc, pv)) {
            // NA-address load: the pointer chain itself is NA, but a
            // confident prediction of the *result* re-arms the chain —
            // rd stays available, so the next iteration's loads carry
            // (predicted) addresses and issue real misses. This is
            // where the MLP of a linked-list walk comes from; without
            // it, one cold defer leaves every later load NA and the
            // core degenerates to one replay per memory latency. The
            // address is unknown here, so both the read-set entry and
            // the verify happen at replay, once it resolves.
            entry.valuePredicted = true;
            entry.predValue = pv;
            specRegs_[inst.rd] = pv;
            specReady_[inst.rd] = now_ + 1;
            kill_na(inst.rd);
            ++vpPredictions_;
            ++vpOutstanding_;
            record(trace::TraceKind::Exec, trace::TraceStrand::Ahead,
                   pc, entry.seq, 2);
        } else {
            // An unpredicted load defer de-anchors the value chain: its
            // replay will train the table, so until then lastValue lags
            // the ahead strand's position in the value sequence.
            if (info.cls == OpClass::Load && !discard)
                vpred_.notePendingDefer(pc);
            if (info.writesRd && inst.rd != 0) {
                na_[inst.rd] = true;
                naWriter_[inst.rd] = entry.seq;
            }
        }
        defer(std::move(entry), is_store);
        aheadPc_ = pc + 1;
        return true;
    }

    // ---- all operands available: speculative execution ----
    switch (info.cls) {
      case OpClass::Load: {
        Addr addr = semantics::effectiveAddr(inst, v1);
        unsigned size = memAccessSize(inst.op);

        // Memory dependence on an older deferred store whose address is
        // known: park the load on that store instead of gambling.
        SeqNum mem_producer = 0;
        bool unknown_store_overlap_possible = false;
        for (const auto &st : ssq_) {
            if (st.resolved)
                continue;
            if (st.addr == invalidAddr) {
                unknown_store_overlap_possible = true;
                continue;
            }
            Addr lo = std::max(st.addr, addr);
            Addr hi = std::min(st.addr + st.size, addr + size);
            if (lo < hi)
                mem_producer = st.seq; // youngest wins (ascending order)
        }
        if (mem_producer != 0 && !discard) {
            if (dqOccupancy() >= dqCapacity_) {
                block(trace::CpiCat::DqFull, kWakeNever,
                      &dqFullStallCycles_);
                return false;
            }
            DqEntry entry;
            entry.seq = nextSeq_++;
            entry.pc = pc;
            entry.inst = inst;
            entry.src1 = make_operand(true, false, inst.rs1, v1);
            entry.src2.used = true;
            entry.src2.captured = false;
            entry.src2.producer = mem_producer;
            vpred_.notePendingDefer(pc);
            if (inst.rd != 0) {
                na_[inst.rd] = true;
                naWriter_[inst.rd] = entry.seq;
            }
            defer(std::move(entry), false);
            aheadPc_ = pc + 1;
            return true;
        }

        auto res = port_.access(AccessType::Load, addr, now_);
        if (res.rejected) {
            // Re-probes next cycle.
            block(trace::CpiCat::UseStall, now_, &aheadStallUseCycles_);
            return false;
        }

        bool wants_defer = !res.l1Hit
                           && (!params_.deferOnL2MissOnly || !res.l2Hit);
        if (wants_defer && (discard || dqOccupancy() < dqCapacity_)) {
            // A further miss: open a new epoch when a checkpoint is
            // free, otherwise grow the current one.
            SeqNum seq = nextSeq_++;
            bool first_of_epoch = seq == epochs_.back().startSeq;
            // While eliding, the single open epoch owns the region (it
            // must publish atomically): no further checkpoints.
            if (!discard && !first_of_epoch && !sleActive_)
                takeCheckpoint(pc, seq); // may fail; that's fine
            if (discard && epochs_.front().triggerReady == 0)
                epochs_.front().triggerReady = res.readyCycle;
            DqEntry entry;
            entry.seq = seq;
            entry.pc = pc;
            entry.inst = inst;
            entry.src1 = make_operand(true, false, inst.rs1, v1);
            entry.requestIssued = true;
            entry.readyCycle = res.readyCycle;
            std::uint64_t pv = 0;
            if (!discard && inst.rd != 0 && vpred_.predict(pc, pv)) {
                // Confident value prediction: rd stays available with
                // the predicted value instead of going NA, so the
                // dependents keep executing; the DQ replay verifies the
                // prediction against the fill and a mismatch squashes
                // back to this region's checkpoint. The predicted value
                // enters the speculative read set now — a remote write
                // to the line must squash just as for an executed load.
                entry.valuePredicted = true;
                entry.predValue = pv;
                specRegs_[inst.rd] = pv;
                specReady_[inst.rd] = now_ + 1;
                kill_na(inst.rd);
                logSpecLoad(seq, addr, size);
                ++vpPredictions_;
                ++vpOutstanding_;
                record(trace::TraceKind::Exec, trace::TraceStrand::Ahead,
                       pc, seq, 2);
            } else {
                if (!discard)
                    vpred_.notePendingDefer(pc);
                if (inst.rd != 0) {
                    na_[inst.rd] = true;
                    naWriter_[inst.rd] = seq;
                }
            }
            defer(std::move(entry), false);
            aheadPc_ = pc + 1;
            return true;
        }

        // Hit (or DQ full: treat the miss as a scoreboarded stall).
        SeqNum seq = nextSeq_++;
        std::uint64_t raw = specMemRead(addr, size, seq);
        std::uint64_t val = semantics::extendLoad(inst.op, raw);
        vpred_.train(pc, val);
        if (inst.rd != 0) {
            specRegs_[inst.rd] = val;
            specReady_[inst.rd] = res.readyCycle;
            kill_na(inst.rd);
        }
        if (!discard)
            logSpecLoad(seq, addr, size);
        if (unknown_store_overlap_possible) {
            // Value may be stale w.r.t. an unknown-address deferred
            // store; the conflict check at that store's replay is what
            // keeps this safe.
        }
        ++specLoads_;
        record(trace::TraceKind::Exec, trace::TraceStrand::Ahead, pc, seq,
               res.l1Hit ? 0 : 1);
        aheadPc_ = pc + 1;
        return true;
      }
      case OpClass::Store: {
        Addr addr = semantics::effectiveAddr(inst, v1);
        if (sleActive_ && !sleReleaseSeen_ && addr == sleLockAddr_
            && v2 == 0) {
            // The matching lock release: the store is elided too (the
            // lock word never left its free value), and the region may
            // now publish atomically.
            SeqNum seq = nextSeq_++;
            sleReleaseSeen_ = true;
            record(trace::TraceKind::Exec, trace::TraceStrand::Ahead, pc,
                   seq);
            aheadPc_ = pc + 1;
            return true;
        }
        if (ssqOccupancy() >= ssqCapacity_) {
            block(trace::CpiCat::SsqFull, kWakeNever, &ssqFullStallCycles_);
            return false;
        }
        SeqNum seq = nextSeq_++;
        SsqEntry st;
        st.seq = seq;
        st.resolved = true;
        st.addr = addr;
        st.size = memAccessSize(inst.op);
        st.value = v2;
        // Scout also queues the store so younger speculative loads can
        // forward from it; the queue is simply discarded at scout end.
        ssq_.push_back(st);
        record(trace::TraceKind::Exec, trace::TraceStrand::Ahead, pc, seq);
        aheadPc_ = pc + 1;
        return true;
      }
      case OpClass::Branch: {
        SeqNum seq = nextSeq_++;
        (void)seq;
        bool taken = semantics::branchTaken(inst, v1, v2);
        std::uint64_t next =
            taken ? pc
                        + static_cast<std::uint64_t>(
                            static_cast<std::int64_t>(inst.imm))
                  : pc + 1;
        bool correct = resolveControl(inst, pc, next, taken);
        if (!correct)
            aheadFrontEndReadyAt_ = now_ + params_.pipelineDepth;
        else if (taken)
            aheadFrontEndReadyAt_ = now_ + 1;
        aheadPc_ = next;
        return true;
      }
      case OpClass::Jump: {
        SeqNum seq = nextSeq_++;
        (void)seq;
        std::uint64_t next;
        if (inst.op == Opcode::JAL) {
            next = pc
                   + static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(inst.imm));
        } else {
            next = v1
                   + static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(inst.imm));
        }
        bool correct = resolveControl(inst, pc, next, true);
        if (!correct)
            aheadFrontEndReadyAt_ = now_ + params_.pipelineDepth;
        else
            aheadFrontEndReadyAt_ = now_ + 1;
        if (inst.rd != 0) {
            specRegs_[inst.rd] = pc + 1;
            specReady_[inst.rd] = now_ + 1;
            kill_na(inst.rd);
        }
        aheadPc_ = next;
        return true;
      }
      case OpClass::Other: {
        SeqNum seq = nextSeq_++;
        (void)seq;
        if (inst.op == Opcode::HALT) {
            aheadHalted_ = true;
            return true;
        }
        aheadPc_ = pc + 1;
        return true;
      }
      default: {
        SeqNum seq = nextSeq_++;
        std::uint64_t val = semantics::aluOp(inst, v1, v2);
        if (info.writesRd && inst.rd != 0) {
            specRegs_[inst.rd] = val;
            specReady_[inst.rd] = now_ + info.latency;
            kill_na(inst.rd);
        }
        if (info.cls == OpClass::IntDiv || info.cls == OpClass::FpDiv)
            aheadDivBusyUntil_ = now_ + info.latency;
        record(trace::TraceKind::Exec, trace::TraceStrand::Ahead, pc, seq);
        aheadPc_ = pc + 1;
        return true;
      }
    }
}

bool
SstCore::resolveReplay(const DqEntry &entry, std::uint64_t &v1,
                       std::uint64_t &v2, Cycle &ready) const
{
    bool pending = false;
    auto resolve = [&](const DeferredOperand &op, std::uint64_t &out) {
        if (!op.used)
            return;
        if (op.captured) {
            out = op.value;
            return;
        }
        const ReplayResult *res = replayResults_.find(op.producer);
        if (!res) {
            pending = true;
            return;
        }
        out = res->value;
        ready = std::max(ready, res->readyCycle);
    };
    resolve(entry.src1, v1);
    resolve(entry.src2, v2);
    if (entry.requestIssued)
        ready = std::max(ready, entry.readyCycle);
    return !pending;
}

unsigned
SstCore::replayStrand(unsigned slots)
{
    unsigned used = 0;
    while (used < slots && !epochs_.empty()) {
        Epoch &epoch = epochs_.front();
        if (epoch.dq.empty()) {
            if (epoch.redeferred.empty())
                break; // drained; commit happens in tryCommit()
            // The pass boundary costs the rest of this cycle; the new
            // front entry's readiness is the strand's blocker (a
            // still-pending one re-defers next cycle).
            epoch.dq.swap(epoch.redeferred);
            std::uint64_t v1 = 0;
            std::uint64_t v2 = 0;
            Cycle ready = now_;
            wakeBy(resolveReplay(epoch.dq.front(), v1, v2, ready) ? ready
                                                                  : now_);
            break;
        }

        DqEntry &entry = epoch.dq.front();
        const Inst &inst = entry.inst;
        const OpInfo &info = opInfo(inst.op);

        // Resolve operands against the replay results.
        Cycle ready = now_;
        std::uint64_t v1 = 0;
        std::uint64_t v2 = 0;
        if (!resolveReplay(entry, v1, v2, ready)) {
            ++redeferredInsts_;
            record(trace::TraceKind::Redefer, trace::TraceStrand::Behind,
                   entry.pc, entry.seq);
            epoch.redeferred.push_back(std::move(entry));
            epoch.dq.pop_front();
            continue; // bookkeeping only; no execution slot consumed
        }
        if (ready > now_) {
            wakeBy(ready); // behind strand waits for data
            break;
        }

        switch (info.cls) {
          case OpClass::Load: {
            panic_if(isAtomic(inst.op),
                     "atomic deferred into the DQ (the ahead strand "
                     "must treat atomics as barriers)");
            Addr addr = semantics::effectiveAddr(inst, v1);
            unsigned size = memAccessSize(inst.op);
            auto res = port_.access(AccessType::Load, addr, now_);
            if (res.rejected) {
                wakeBy(now_); // retry next cycle
                return used;
            }
            if (!res.l1Hit && !entry.requestIssued) {
                // The replayed load misses: issue and re-defer.
                entry.requestIssued = true;
                entry.readyCycle = res.readyCycle;
                ++redeferredInsts_;
                record(trace::TraceKind::Redefer,
                       trace::TraceStrand::Behind, entry.pc, entry.seq, 1);
                epoch.redeferred.push_back(std::move(entry));
                epoch.dq.pop_front();
                ++used;
                continue;
            }
            std::uint64_t raw = specMemRead(addr, size, entry.seq);
            std::uint64_t val = semantics::extendLoad(inst.op, raw);
            // Replays run in program order, so this train is the oldest
            // in-flight instance of the PC resolving: the tip is one
            // instance closer to the trained value.
            vpred_.train(entry.pc, val);
            vpred_.noteDeferResolved(entry.pc);
            if (entry.valuePredicted) {
                // An NA-address prediction couldn't enter the read set
                // at prediction time; its address only resolved here.
                if (!entry.src1.captured)
                    logSpecLoad(entry.seq, addr, size);
                // Verify-on-fill: the ahead strand ran on predValue.
                if (vpOutstanding_ > 0)
                    --vpOutstanding_;
                if (val != entry.predValue) {
                    rollback(FailKind::ValueMispredict);
                    return used;
                }
                ++vpCorrect_;
            } else {
                // A predicted load already entered the read set at
                // prediction time (same address: src1 was captured).
                logSpecLoad(entry.seq, addr, size);
            }
            replayResults_.set(entry.seq,
                               ReplayResult{val, res.readyCycle});
            publishReplayValue(entry.seq, inst.rd, val, res.readyCycle);
            break;
          }
          case OpClass::Store: {
            Addr addr = semantics::effectiveAddr(inst, v1);
            unsigned size = memAccessSize(inst.op);
            // Lazy disambiguation: any younger speculatively executed
            // load that read these bytes saw stale data.
            if (storeConflicts(entry.seq, addr, size)) {
                rollback(FailKind::MemConflict);
                return used;
            }
            if (sleActive_ && !sleReleaseSeen_ && addr == sleLockAddr_
                && v2 == 0) {
                // A deferred lock release resolved here: elide it (drop
                // its SSQ slot) so the free lock word is never written
                // back — a committed rewrite of the same value would
                // needlessly squash the other cores elided on it.
                std::erase_if(ssq_, [&](const SsqEntry &st) {
                    return st.seq == entry.seq;
                });
                sleReleaseSeen_ = true;
                replayResults_.set(entry.seq, ReplayResult{0, now_ + 1});
                break;
            }
            resolveSsqPlaceholder(entry.seq, addr, size, v2);
            replayResults_.set(entry.seq, ReplayResult{0, now_ + 1});
            break;
          }
          case OpClass::Branch: {
            bool taken = semantics::branchTaken(inst, v1, v2);
            ++branches_;
            if (unverifiedBranches_ > 0)
                --unverifiedBranches_;
            // Train the entry the prediction actually read (tables
            // only: the direction already entered the history
            // speculatively when the branch was deferred).
            predictor_->trainAt(entry.pc, taken, entry.predHistory);
            if (taken != entry.predTaken) {
                ++mispredicts_;
                rollback(FailKind::BranchMispredict);
                return used;
            }
            break;
          }
          case OpClass::Jump: {
            panic_if(inst.op != Opcode::JALR,
                     "only JALR can be deferred among jumps");
            std::uint64_t target =
                v1
                + static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(inst.imm));
            if (unverifiedBranches_ > 0)
                --unverifiedBranches_;
            if (target != entry.predTarget) {
                ++mispredicts_;
                rollback(FailKind::JumpMispredict);
                return used;
            }
            break;
          }
          default: {
            std::uint64_t val = semantics::aluOp(inst, v1, v2);
            Cycle done = ready + info.latency;
            replayResults_.set(entry.seq, ReplayResult{val, done});
            publishReplayValue(entry.seq, inst.rd, val, done);
            break;
          }
        }

        record(trace::TraceKind::Replay, trace::TraceStrand::Behind,
               entry.pc, entry.seq);
        ++replayedInsts_;
        epoch.dq.pop_front();
        --dqCount_;
        ++used;
    }
    return used;
}

void
SstCore::tryCommit()
{
    if (epochs_.empty())
        return;

    if (params_.discardSpecWork) {
        // Scout: the region ends (rolls back) when the trigger returns.
        Epoch &front = epochs_.front();
        if (front.triggerReady != 0 && front.triggerReady <= now_)
            rollback(FailKind::ScoutEnd);
        else if (front.triggerReady != 0)
            wakeBy(front.triggerReady);
        return;
    }

    Epoch &front = epochs_.front();
    if (!front.dq.empty() || !front.redeferred.empty())
        return;

    if (sleActive_) {
        // The elided critical section must publish atomically, and only
        // once its release has been observed: until then nothing
        // commits (sleActive_ also pins the region to this one epoch,
        // so the whole DQ is the front DQ checked above).
        if (!sleReleaseSeen_)
            return;
        // A section that stored must be ordered against the other
        // cores at its commit (MemoryImage::commitElided); one that
        // only read needs nothing.
        if (!ssq_.empty() && !memory_.commitElided(sleLockAddr_)) {
            rollback(FailKind::CohConflict);
            return;
        }
        commitAll();
        sleActive_ = false;
        sleLockAddr_ = invalidAddr;
        sleReleaseSeen_ = false;
        ++sleCommits_;
        record(trace::TraceKind::LockElide, trace::TraceStrand::Main,
               arch_.pc, nextSeq_, 1);
        return;
    }

    if (epochs_.size() == 1)
        commitAll();
    else
        commitOldestEpoch();
}

void
SstCore::commitOldestEpoch()
{
    Epoch &front = epochs_.front();
    Epoch &next = epochs_[1];
    for (unsigned r = 1; r < numArchRegs; ++r)
        panic_if(next.na[r],
                 "committing epoch %u but next snapshot has NA x%u",
                 front.id, r);
    std::uint64_t insts = next.startSeq - front.startSeq;
    committed_ += insts;
    epochInsts_.sample(insts);
    arch_.regs = next.regs;
    arch_.pc = next.pc;
    drainSsqUpTo(next.startSeq);
    std::erase_if(loadLog_, [&](const SpecLoad &ld) {
        return ld.seq < next.startSeq;
    });
    record(trace::TraceKind::Commit, trace::TraceStrand::Main, front.pc,
           front.startSeq, static_cast<std::uint32_t>(insts));
    SeqNum bound = next.startSeq;
    epochs_.pop_front();
    // Drop replay results the committed epoch owned. A parked consumer
    // in a younger epoch may still name an older producer (publish only
    // clears NA bits, not DQ operands), so keep any seq a remaining
    // deferred operand references.
    if (!replayResults_.empty()) {
        std::vector<SeqNum> live;
        auto keep = [&](const DqEntry &e) {
            if (e.src1.used && !e.src1.captured
                && e.src1.producer < bound)
                live.push_back(e.src1.producer);
            if (e.src2.used && !e.src2.captured
                && e.src2.producer < bound)
                live.push_back(e.src2.producer);
        };
        for (const auto &epoch : epochs_) {
            for (const auto &e : epoch.dq)
                keep(e);
            for (const auto &e : epoch.redeferred)
                keep(e);
        }
        std::sort(live.begin(), live.end());
        replayResults_.eraseIf([&](SeqNum seq) {
            return seq < bound
                   && !std::binary_search(live.begin(), live.end(), seq);
        });
    }
    ++epochsCommitted_;
    // The oldest region retired: pending speculation cycles keep their
    // provisional categories. (Cycles of still-live younger epochs are
    // folded in too — a deliberate approximation; a later rollback only
    // discards work done after this point.)
    flushPendingSpec(false);
}

void
SstCore::commitAll()
{
    Epoch &front = epochs_.front();
    for (unsigned r = 1; r < numArchRegs; ++r)
        panic_if(na_[r], "full commit with NA register x%u", r);
    std::uint64_t insts = nextSeq_ - front.startSeq;
    committed_ += insts;
    epochInsts_.sample(insts);
    arch_.regs = specRegs_;
    arch_.pc = aheadPc_;
    drainSsqUpTo(nextSeq_);
    panic_if(!ssq_.empty(), "SSQ not empty after full commit");
    loadLog_.clear();
    replayResults_.clear();
    epochs_.clear();
    dqCount_ = 0;
    regReady_ = specReady_;
    frontEndReadyAt_ = aheadFrontEndReadyAt_;
    divBusyUntil_ = aheadDivBusyUntil_;
    // The ahead strand's branch history is now architectural: the main
    // strand adopts it (no-op without core.strand_history).
    std::uint64_t hist = predictor_->snapshotHistory();
    predictor_->setStrand(BranchPredictor::mainStrand);
    predictor_->restoreHistory(hist);
    if (aheadHalted_)
        arch_.halted = true;
    ++epochsCommitted_;
    ++fullCommits_;
    record(trace::TraceKind::Commit, trace::TraceStrand::Main, arch_.pc,
           nextSeq_, static_cast<std::uint32_t>(insts));
    flushPendingSpec(false);
}

void
SstCore::rollback(FailKind kind)
{
    // Speculative state is gone: whatever the strands recorded no
    // longer describes the next cycle.
    wakeBy(now_);
    Epoch &front = epochs_.front();
    discardedInsts_ += nextSeq_ - front.startSeq;
    switch (kind) {
      case FailKind::BranchMispredict: ++failBranch_; break;
      case FailKind::JumpMispredict: ++failJump_; break;
      case FailKind::MemConflict: ++failMem_; break;
      case FailKind::ScoutEnd: ++scoutEnds_; break;
      case FailKind::Forced: ++failForced_; break;
      case FailKind::CohConflict: ++failCoh_; break;
      case FailKind::ValueMispredict: ++failVpred_; break;
    }

    if (sleActive_) {
        // The elision is abandoned whatever the rollback's cause; the
        // retry at the acquire PC (the front checkpoint's PC) takes the
        // lock conventionally so two cores ping-ponging elisions cannot
        // livelock (requester wins).
        ++sleAborts_;
        record(trace::TraceKind::LockElide, trace::TraceStrand::Main,
               front.pc, front.startSeq, 0);
        sleActive_ = false;
        sleLockAddr_ = invalidAddr;
        sleReleaseSeen_ = false;
        sleSuppressPc_ = front.pc;
    }

    record(trace::TraceKind::Rollback, trace::TraceStrand::Main, front.pc,
           front.startSeq, static_cast<std::uint32_t>(kind));
    // Every speculation cycle of this region was wasted work; when a
    // remote write caused it, the waste is coherence contention, and
    // when a predicted load value caused it, the waste belongs to the
    // value predictor's CPI bucket.
    trace::CpiCat discard_cat = trace::CpiCat::RollbackDiscard;
    if (kind == FailKind::CohConflict)
        discard_cat = trace::CpiCat::Coherence;
    else if (kind == FailKind::ValueMispredict)
        discard_cat = trace::CpiCat::ValuePredWaste;
    flushPendingSpec(true, discard_cat);
    // Committed state is exactly the front checkpoint; re-execute from
    // its trigger PC (whose data has normally arrived by now). The
    // speculative-state repair covers the PC, the global branch
    // history (into the main strand's register) and the RAS.
    arch_.pc = front.pc;
    predictor_->setStrand(BranchPredictor::mainStrand);
    predictor_->restoreHistory(front.predictorHistory);
    ras_ = front.ras;

    // "No meaningful progress" = fewer than a handful of instructions
    // retired since the previous rollback at this PC; a tiny commit
    // squeezed between two fails must not reset the guard.
    if (front.pc == lastFailTriggerPc_
        && committed_.value() < lastRollbackCommitted_ + 8) {
        if (++consecutiveFails_ >= 2 && suppressTriggerPc_ != front.pc) {
            suppressTriggerPc_ = front.pc;
            ++livelockSuppressions_;
        }
    } else {
        lastFailTriggerPc_ = front.pc;
        consecutiveFails_ = 1;
    }
    lastRollbackCommitted_ = committed_.value();

    epochs_.clear();
    dqCount_ = 0;
    ssq_.clear();
    loadLog_.clear();
    replayResults_.clear();
    aheadHalted_ = false;
    unverifiedBranches_ = 0;
    vpOutstanding_ = 0;
    vpred_.squash();
    na_.fill(false);
    naWriter_.fill(0);
}

void
SstCore::accountCycle(std::uint64_t retired)
{
    // Cycles spent inside a speculation region can't be classified yet:
    // the region's fate decides whether they were useful overlap
    // (replay / queue-pressure) or discarded work. Hold them pending.
    // epochs_ is the post-cycle() state, so a mid-cycle commit-all
    // (retired > 0) or rollback is already accounted correctly.
    if (!epochs_.empty() && retired == 0) {
        ++pendingSpec_[static_cast<std::size_t>(specCycleCat())];
        return;
    }
    Core::accountCycle(retired);
}

void
SstCore::flushPendingSpec(bool discarded, trace::CpiCat discardCat)
{
    for (std::size_t i = 0; i < trace::numCpiCats; ++i) {
        if (pendingSpec_[i] == 0)
            continue;
        cpiStack_.add(discarded ? discardCat
                                : static_cast<trace::CpiCat>(i),
                      pendingSpec_[i]);
        pendingSpec_[i] = 0;
    }
}

void
SstCore::finalizeAttribution()
{
    flushPendingSpec(false);
}

bool
SstCore::degradeSpeculation()
{
    if (epochs_.empty())
        return false;
    // Abandon the whole in-flight region and force the trigger load to
    // execute non-speculatively: the core keeps making architectural
    // progress even if whatever stalled speculation (e.g. a dropped
    // fill) persists.
    std::uint64_t pc = epochs_.front().pc;
    rollback(FailKind::Forced);
    suppressTriggerPc_ = pc;
    consecutiveFails_ = 0;
    ++watchdogDegrades_;
    return true;
}


template <class Io>
void
SstCore::state(Io &s)
{
    auto dq = [&s](std::deque<DqEntry> &q) {
        snap::seq(s, snap::Width::u32, q, 95, [&s](DqEntry &e) {
            s.u64(e.seq);
            s.u64(e.pc);
            e.inst.io(s);
            for (DeferredOperand *op : {&e.src1, &e.src2}) {
                s.b(op->used);
                s.b(op->captured);
                s.u64(op->value);
                s.u64(op->producer);
            }
            s.b(e.predTaken);
            s.u64(e.predHistory);
            s.u64(e.predTarget);
            s.b(e.requestIssued);
            s.u64(e.readyCycle);
            s.b(e.valuePredicted);
            s.u64(e.predValue);
        });
    };

    for (std::uint64_t &v : pendingSpec_)
        s.u64(v);
    for (std::uint64_t &v : specRegs_)
        s.u64(v);
    for (bool &v : na_)
        s.b(v);
    for (SeqNum &v : naWriter_)
        s.u64(v);
    for (Cycle &v : specReady_)
        s.u64(v);
    s.u64(aheadPc_);
    s.b(aheadHalted_);
    s.b(blocked_.acted);
    s.u64(aheadFrontEndReadyAt_);
    s.u64(aheadDivBusyUntil_);
    for (Cycle &v : regReady_)
        s.u64(v);
    s.u64(frontEndReadyAt_);
    s.u64(divBusyUntil_);
    s.u64(nextSeq_);
    s.u32(nextEpochId_);
    s.u32(dqCapacity_);
    s.u32(ssqCapacity_);
    s.u32(unverifiedBranches_);

    snap::seq(s, snap::Width::u32, epochs_, 600, [&](Epoch &ep) {
        s.u32(ep.id);
        s.u64(ep.pc);
        s.u64(ep.startSeq);
        for (std::uint64_t &v : ep.regs)
            s.u64(v);
        for (bool &v : ep.na)
            s.b(v);
        for (SeqNum &v : ep.naWriter)
            s.u64(v);
        s.u64(ep.predictorHistory);
        ep.ras.io(s);
        s.u64(ep.triggerReady);
        dq(ep.dq);
        dq(ep.redeferred);
    });

    snap::seq(s, snap::Width::u32, ssq_, 29, [&](SsqEntry &e) {
        s.u64(e.seq);
        s.b(e.resolved);
        s.u64(e.addr);
        s.u32(e.size);
        s.u64(e.value);
    });

    snap::seq(s, snap::Width::u32, loadLog_, 20, [&](SpecLoad &l) {
        s.u64(l.seq);
        s.u64(l.addr);
        s.u32(l.size);
    });

    // Emitted sorted by seq so equal state hashes equal whatever the
    // ring's size and insertion order.
    if constexpr (Io::loading) {
        replayResults_.clear();
        std::size_t n = s.count(snap::Width::u32, 0, 24);
        for (std::size_t i = 0; i < n; ++i) {
            SeqNum seq = 0;
            ReplayResult res;
            s.u64(seq);
            s.u64(res.value);
            s.u64(res.readyCycle);
            if (!replayResults_.find(seq))
                replayResults_.set(seq, res);
        }
        dqCount_ = dqRecount();
    } else {
        auto results = replayResultList();
        s.count(snap::Width::u32, results.size(), 24);
        for (const auto &[seq, value, readyCycle] : results) {
            s.u64(seq);
            s.u64(value);
            s.u64(readyCycle);
        }
    }

    snap::seq(s, snap::Width::u32, storeBuffer_, 20, [&](PendingStore &st) {
        s.u64(st.addr);
        s.u32(st.size);
        s.u64(st.issuableAt);
    });

    s.u64(lastFailTriggerPc_);
    s.u64(lastRollbackCommitted_);
    s.u32(consecutiveFails_);
    s.u64(suppressTriggerPc_);

    for (bool &v : regCoh_)
        s.b(v);
    s.b(pendingCohSquash_);
    s.b(sleActive_);
    s.u64(sleLockAddr_);
    s.b(sleReleaseSeen_);
    s.u64(sleSuppressPc_);

    vpred_.io(s);
    s.u32(vpOutstanding_);
}

template void SstCore::state(snap::Writer &);
template void SstCore::state(snap::Reader &);

} // namespace sst
