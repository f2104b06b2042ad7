#include "core/smt.hh"

#include "common/logging.hh"

namespace sst
{

SmtCore::SmtCore(const CoreParams &params,
                 std::array<const Program *, numThreads> programs,
                 std::array<MemoryImage *, numThreads> memories,
                 CorePort &port)
    : params_(params),
      port_(port),
      predictor_(makePredictor(params.predictor)),
      stats_(params.name),
      cyclesStat_(stats_.addScalar("cycles", "simulated cycles")),
      branches_(stats_.addScalar("branches", "conditional branches")),
      mispredicts_(stats_.addScalar("mispredicts", "mispredictions")),
      slotConflictCycles_(stats_.addScalar(
          "slot_donations",
          "issue slots a stalled context donated to the other"))
{
    for (unsigned t = 0; t < numThreads; ++t) {
        Context &ctx = contexts_[t];
        fatal_if(!programs[t] || !memories[t],
                 "SmtCore context %u missing program/memory", t);
        ctx.program = programs[t];
        ctx.memory = memories[t];
        // Distinct "physical" windows inside the shared caches.
        ctx.salt = static_cast<Addr>(t) << 29;
        ctx.committed = &stats_.addScalar(
            "t" + std::to_string(t) + "_committed",
            "instructions retired by context " + std::to_string(t));
        ctx.ras = std::make_unique<ReturnAddressStack>();
    }
    stats_.addFormula("aggregate_ipc", "both contexts", [this] {
        return aggregateIpc();
    });
    stats_.addChild(port.stats());
}

bool
SmtCore::halted() const
{
    for (const auto &ctx : contexts_)
        if (!ctx.arch.halted)
            return false;
    return true;
}

bool
SmtCore::threadHalted(unsigned tid) const
{
    return contexts_.at(tid).arch.halted;
}

std::uint64_t
SmtCore::instsRetired(unsigned tid) const
{
    return contexts_.at(tid).committed->value();
}

std::uint64_t
SmtCore::totalInstsRetired() const
{
    std::uint64_t n = 0;
    for (const auto &ctx : contexts_)
        n += ctx.committed->value();
    return n;
}

double
SmtCore::aggregateIpc() const
{
    return now_ ? static_cast<double>(totalInstsRetired())
                      / static_cast<double>(now_)
                : 0.0;
}

const ArchState &
SmtCore::archState(unsigned tid) const
{
    return contexts_.at(tid).arch;
}

void
SmtCore::tick()
{
    if (halted())
        return;
    std::uint64_t before = totalInstsRetired();
    stallCat_ = trace::CpiCat::Other;
    drainStoreBuffer();

    // Round-robin priority; a blocked context donates its slots.
    unsigned first = static_cast<unsigned>(now_ % numThreads);
    unsigned slots = params_.fetchWidth;
    bool blocked[numThreads] = {};
    while (slots > 0) {
        bool issued_any = false;
        for (unsigned k = 0; k < numThreads && slots > 0; ++k) {
            unsigned tid = (first + k) % numThreads;
            Context &ctx = contexts_[tid];
            if (ctx.arch.halted || blocked[tid])
                continue;
            if (issueOne(ctx)) {
                --slots;
                issued_any = true;
                if (k != 0)
                    ++slotConflictCycles_;
            } else {
                blocked[tid] = true;
            }
        }
        if (!issued_any)
            break;
    }

    cpiStack_.add(totalInstsRetired() > before ? trace::CpiCat::Base
                                               : stallCat_);
    ++now_;
    ++cyclesStat_;
}

void
SmtCore::drainStoreBuffer()
{
    if (storeBuffer_.empty())
        return;
    PendingStore &st = storeBuffer_.front();
    if (st.issuableAt > now_)
        return;
    auto res = port_.access(AccessType::Store, st.addr, now_);
    if (res.rejected) {
        st.issuableAt = res.retryCycle;
        return;
    }
    storeBuffer_.pop_front();
}

Cycle
SmtCore::fetchReady(Context &ctx)
{
    Addr addr = ctx.program->instAddr(ctx.arch.pc) + ctx.salt;
    Addr line = port_.l1i().lineAddr(addr);
    if (line == ctx.lastFetchLine)
        return ctx.fetchLineReady;
    auto res = port_.access(AccessType::InstFetch, addr, now_);
    if (res.rejected)
        return res.retryCycle;
    ctx.lastFetchLine = line;
    ctx.fetchLineReady = res.l1Hit ? now_ : res.readyCycle;
    return ctx.fetchLineReady;
}

bool
SmtCore::issueOne(Context &ctx)
{
    if (ctx.frontEndReadyAt > now_) {
        noteStall(trace::CpiCat::Fetch);
        return false;
    }
    std::uint64_t pc = ctx.arch.pc;
    Cycle fetch_at = fetchReady(ctx);
    if (fetch_at > now_) {
        ctx.frontEndReadyAt = fetch_at;
        noteStall(trace::CpiCat::Fetch);
        return false;
    }

    const Inst &inst = ctx.program->at(pc);
    const OpInfo &info = opInfo(inst.op);

    auto ready = [&](RegId r) {
        return r == 0 || ctx.regReady[r] <= now_;
    };
    if ((info.readsRs1 && !ready(inst.rs1))
        || (info.readsRs2 && !ready(inst.rs2))) {
        noteStall(trace::CpiCat::UseStall);
        return false;
    }

    if ((info.cls == OpClass::IntDiv || info.cls == OpClass::FpDiv)
        && divBusyUntil_ > now_) {
        noteStall(trace::CpiCat::UseStall);
        return false;
    }
    if (isStore(inst.op)
        && storeBuffer_.size() >= params_.storeBufferEntries) {
        noteStall(trace::CpiCat::StoreBuf);
        return false;
    }

    std::uint32_t tid =
        static_cast<std::uint32_t>(&ctx - contexts_.data());
    if (isLoad(inst.op)) {
        Addr addr = semantics::effectiveAddr(inst, ctx.arch.reg(inst.rs1))
                    + ctx.salt;
        auto res = port_.access(AccessType::Load, addr, now_);
        if (res.rejected) {
            noteStall(trace::CpiCat::UseStall);
            return false;
        }
        Executor exec(*ctx.program, *ctx.memory);
        exec.step(ctx.arch);
        ctx.regReady[inst.rd] = res.readyCycle;
        ++*ctx.committed;
        record(trace::TraceKind::Commit, pc, 0, tid);
        return true;
    }

    Executor exec(*ctx.program, *ctx.memory);
    StepInfo step = exec.step(ctx.arch);
    ++*ctx.committed;
    record(trace::TraceKind::Commit, pc, 0, tid);

    switch (info.cls) {
      case OpClass::Store:
        storeBuffer_.push_back(
            PendingStore{step.effAddr + ctx.salt, step.memSize, now_});
        break;
      case OpClass::Branch: {
        ++branches_;
        bool pred = predictor_->predict(pc);
        predictor_->update(pc, step.taken);
        bool target_known = true;
        if (step.taken) {
            target_known = btb_.lookup(pc) == step.nextPc;
            btb_.update(pc, step.nextPc);
        }
        bool correct = pred == step.taken && target_known;
        if (!correct) {
            ++mispredicts_;
            ctx.frontEndReadyAt = now_ + params_.pipelineDepth;
        } else if (step.taken) {
            ctx.frontEndReadyAt = now_ + 1;
        }
        break;
      }
      case OpClass::Jump: {
        if (info.writesRd)
            ctx.regReady[inst.rd] = now_ + 1;
        bool correct;
        if (inst.op == Opcode::JAL) {
            correct = btb_.lookup(pc) == step.nextPc;
            btb_.update(pc, step.nextPc);
            if (inst.rd != 0)
                ctx.ras->push(pc + 1);
        } else {
            bool is_return =
                inst.rd == 0 && inst.rs1 == 1 && inst.imm == 0;
            std::uint64_t predicted =
                is_return ? ctx.ras->pop() : btb_.lookup(pc);
            btb_.update(pc, step.nextPc);
            if (inst.rd != 0)
                ctx.ras->push(pc + 1);
            correct = predicted == step.nextPc;
        }
        if (!correct) {
            ++mispredicts_;
            ctx.frontEndReadyAt = now_ + params_.pipelineDepth;
        } else {
            ctx.frontEndReadyAt = now_ + 1;
        }
        break;
      }
      case OpClass::IntDiv:
      case OpClass::FpDiv:
        divBusyUntil_ = now_ + info.latency;
        ctx.regReady[inst.rd] = now_ + info.latency;
        break;
      case OpClass::Other:
        break;
      default:
        if (info.writesRd)
            ctx.regReady[inst.rd] = now_ + info.latency;
        break;
    }
    return true;
}

} // namespace sst
