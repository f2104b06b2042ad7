#include "sim/machine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fault/chaos.hh"
#include "sim/fastfwd.hh"
#include "snap/snap.hh"
#include "trace/trace.hh"

namespace sst
{

std::unique_ptr<Core>
makeCore(const MachineConfig &config, const Program &program,
         MemoryImage &memory, CorePort &port)
{
    if (config.model == "inorder")
        return std::make_unique<InOrderCore>(config.core, program, memory,
                                             port);
    if (config.model == "ooo")
        return std::make_unique<OoOCore>(config.core, program, memory,
                                         port);
    if (config.model == "sst")
        return std::make_unique<SstCore>(config.core, program, memory,
                                         port);
    fatal("unknown core model '%s'", config.model.c_str());
}

std::uint64_t
programFingerprint(const Program &program)
{
    snap::Hasher h;
    h.mixU64(program.codeBase());
    h.mixU64(program.size());
    for (const Inst &inst : program.insts())
        h.mixU64(inst.encode());
    for (const auto &seg : program.segments()) {
        h.mixU64(seg.base);
        h.mixU64(seg.bytes.size());
        h.mix(seg.bytes.data(), seg.bytes.size());
    }
    return h.value();
}

const char *
degradeReasonName(DegradeReason reason)
{
    switch (reason) {
      case DegradeReason::None: return "none";
      case DegradeReason::CycleBudget: return "cycle_budget";
      case DegradeReason::Livelock: return "livelock";
    }
    panic("bad DegradeReason %d", static_cast<int>(reason));
}

bool
Watchdog::intervene()
{
    // A full window with zero retirement: intervene. Degrading
    // speculation is always correctness-preserving (it rolls back to
    // committed state), so it is safe to try before giving up.
    ++interventions_;
    windowStart_ = core_.cycles();
    if (core_.degradeSpeculation()) {
        ++recoveries_;
        fruitless_ = 0;
        return true;
    }
    if (++fruitless_ >= params_.maxInterventions) {
        gaveUp_ = true;
        return false;
    }
    return true;
}

template <class Io>
void
Watchdog::io(Io &s)
{
    s.tag("watchdog");
    s.u64(lastInsts_);
    s.u64(windowStart_);
    s.u32(fruitless_);
    s.u64(recoveries_);
    s.u64(interventions_);
    s.b(gaveUp_);
}

template void Watchdog::io(snap::Writer &);
template void Watchdog::io(snap::Reader &);

Machine::Machine(const MachineConfig &config, const Program &program)
    : config_(config), program_(program), memsys_(config.mem)
{
    image_.loadSegments(program);
    CorePort &port = memsys_.addCore();
    core_ = makeCore(config_, program_, image_, port);
    watchdog_ = std::make_unique<Watchdog>(config_.watchdog, *core_);
}

void
Machine::attachTraceBuffer(trace::TraceBuffer *buf)
{
    traceBuf_ = buf;
    core_->attachTraceBuffer(buf);
    core_->port().l1i().setTrace(buf, 1);
    core_->port().l1d().setTrace(buf, 1);
    memsys_.l2().setTrace(buf, 2);
    memsys_.dram().setTrace(buf);
    memsys_.setTraceBuffer(buf);
}

void
Machine::loopTo(Cycle bound, const SnapPolicy *snap)
{
    const bool fastfwd = fastForwardEnabled();
    Cycle nextSnapAt = snap && snap->everyCycles
                           ? core_->cycles() + snap->everyCycles
                           : invalidCycle;
    while (!livelocked_ && !core_->halted() && core_->cycles() < bound) {
        std::uint64_t before = core_->instsRetired();
        core_->tick();
        if (!watchdog_->observe()) {
            livelocked_ = true;
            break;
        }
        // Fast-forward: after a tick that retired nothing, ask the core
        // for the earliest cycle it can act again and replay the stalled
        // window in one step. Capped so the cycle bound and the
        // watchdog's intervention deadline are still hit by real ticks.
        if (fastfwd && !core_->halted()
            && core_->instsRetired() == before) {
            Cycle wake = core_->nextWakeCycle();
            Cycle now = core_->cycles();
            Cycle target = std::min(std::min(wake, bound),
                                    watchdog_->skipBound());
            if (wake > now && target > now)
                core_->advanceIdle(target - now);
        }
        if (core_->cycles() >= nextSnapAt) {
            auto res = snapshotToFile(snap->path);
            if (!res.ok())
                warn("periodic snapshot to '%s' failed: %s",
                     snap->path.c_str(), res.error().message.c_str());
            nextSnapAt = core_->cycles() + snap->everyCycles;
        }
        // After the snapshot write, so a kill scheduled on a snapshot
        // boundary hands the freshest checkpoint to the next worker.
        if (chaos_)
            chaos_->observe(core_->cycles());
    }
}

void
Machine::stepTo(Cycle target)
{
    loopTo(target, nullptr);
}

RunResult
Machine::harvest()
{
    core_->finalizeAttribution();

    RunResult res;
    res.preset = config_.presetName;
    res.workload = program_.name();
    res.cycles = core_->cycles();
    res.insts = core_->instsRetired();
    res.ipc = core_->ipc();
    res.finished = core_->halted();
    if (!res.finished)
        res.degrade = livelocked_ ? DegradeReason::Livelock
                                  : DegradeReason::CycleBudget;
    res.stats = core_->stats().flatten();
    for (const auto &kv : memsys_.faults().stats().flatten())
        res.stats[kv.first] = kv.second;
    res.stats["watchdog.recoveries"] =
        static_cast<double>(watchdog_->recoveries());
    res.stats["watchdog.interventions"] =
        static_cast<double>(watchdog_->interventions());

    auto stat = [&](const std::string &suffix) {
        for (const auto &kv : res.stats)
            if (kv.first.size() >= suffix.size()
                && kv.first.compare(kv.first.size() - suffix.size(),
                                    suffix.size(), suffix)
                       == 0)
                return kv.second;
        return 0.0;
    };
    res.l1dMissRate = stat("l1d.miss_rate");
    res.meanDemandMlp = stat("l1_mshrs.demand_mlp.mean");
    res.mispredictRate = stat(".mispredict_rate");
    return res;
}

RunResult
Machine::run(std::uint64_t max_cycles)
{
    loopTo(max_cycles, nullptr);
    return harvest();
}

RunResult
Machine::run(std::uint64_t max_cycles, const SnapPolicy &snap)
{
    loopTo(max_cycles, snap.everyCycles ? &snap : nullptr);
    return harvest();
}

template <class Io>
void
Machine::io(Io &s)
{
    s.tag("machine-state");
    core_->io(s);
    memsys_.io(s);
    memsys_.stats().io(s);
    image_.io(s);
    watchdog_->io(s);
    s.b(livelocked_);
}

template void Machine::io(snap::Writer &);
template void Machine::io(snap::Reader &);

template <class Io>
void
Machine::fileIo(Io &s)
{
    snap::header(s, snap::Kind::Machine, config_.presetName,
                 config_.model);
    snap::program(s, program_.name(), programFingerprint(program_));
    Cycle cycle = core_->cycles();
    s.u64(cycle); // informational, the core state holds the clock
    io(s);
    s.tag("trace");
    bool traced = traceBuf_ != nullptr;
    s.b(traced);
    fatal_if(traced && !traceBuf_,
             "snapshot carries a trace buffer but none is attached; "
             "attach one before restore to keep traces byte-identical");
    if (traced)
        traceBuf_->io(s);
}

std::uint64_t
Machine::stateHash() const
{
    snap::Writer w;
    snap::save(w, *this);
    return w.hash();
}

std::vector<std::uint8_t>
Machine::snapshot() const
{
    snap::Writer w;
    const_cast<Machine *>(this)->fileIo(w);
    return w.data();
}

void
Machine::restore(const std::vector<std::uint8_t> &bytes)
{
    snap::Reader r(bytes);
    fileIo(r);
    r.done();
}

Result<void>
Machine::snapshotToFile(const std::string &path) const
{
    return snap::writeFile(path, snapshot());
}

Result<void>
Machine::restoreFromFile(const std::string &path)
{
    auto bytes = snap::readFile(path);
    if (!bytes.ok())
        return bytes.error();
    return trapFatal([&] { restore(bytes.value()); });
}

RunResult
runOn(const std::string &preset, const Program &program,
      std::uint64_t max_cycles)
{
    Machine machine(makePreset(preset), program);
    return machine.run(max_cycles);
}

} // namespace sst
