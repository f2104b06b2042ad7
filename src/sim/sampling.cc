#include "sim/sampling.hh"

#include <cmath>

#include "common/logging.hh"

namespace sst
{

double
SampledResult::ipcStddev() const
{
    if (windowIpc.size() < 2)
        return 0.0;
    double mean = 0;
    for (double v : windowIpc)
        mean += v;
    mean /= static_cast<double>(windowIpc.size());
    double acc = 0;
    for (double v : windowIpc)
        acc += (v - mean) * (v - mean);
    return std::sqrt(acc / static_cast<double>(windowIpc.size() - 1));
}

double
SampledResult::ipcCi95() const
{
    std::size_t n = windowIpc.size();
    if (n < 2)
        return 0.0;
    bool weighted = windowWeight.size() == n;
    double wsum = 0, wsq = 0, mean = 0;
    for (std::size_t i = 0; i < n; ++i) {
        double w = weighted ? windowWeight[i] : 1.0;
        wsum += w;
        wsq += w * w;
        mean += w * windowIpc[i];
    }
    if (wsum <= 0)
        return 0.0;
    mean /= wsum;
    double acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
        double w = weighted ? windowWeight[i] : 1.0;
        acc += w * (windowIpc[i] - mean) * (windowIpc[i] - mean);
    }
    // Bessel-corrected weighted variance and Kish effective sample
    // size; reduces to 1.96 * s / sqrt(n) for equal weights.
    double var = acc / wsum * static_cast<double>(n)
                 / static_cast<double>(n - 1);
    double neff = wsum * wsum / wsq;
    return 1.96 * std::sqrt(var / neff);
}

SampledResult
runSampled(const MachineConfig &config, const Program &program,
           const SampleParams &params)
{
    fatal_if(params.detailInsts == 0, "detailInsts must be positive");

    MemorySystem memsys(config.mem);
    CorePort &port = memsys.addCore();
    MemoryImage image;
    image.loadSegments(program);
    Executor exec(program, image);

    ArchState cursor;
    Cycle clock = 0;

    SampledResult result;
    result.preset = config.presetName;
    std::uint64_t total_insts = 0;
    std::uint64_t total_cycles = 0;

    auto fast_forward = [&](std::uint64_t n) {
        std::uint64_t done = 0;
        for (; done < n && !cursor.halted; ++done)
            warmStep(exec, cursor, port, clock, params.warmCpi,
                     result.warmAccesses, result.warmHits);
        result.skippedInsts += done;
    };

    while (!cursor.halted) {
        if (params.maxSamples != 0
            && result.windowIpc.size() >= params.maxSamples)
            break;

        // Detailed window.
        auto core = makeCore(config, program, image, port);
        core->warmStart(cursor, clock);
        runWindow(*core, params.detailInsts);

        std::uint64_t insts = core->instsRetired();
        Cycle cycles = core->cycles() - core->startCycle();
        result.windowIpc.push_back(core->ipc());
        total_insts += insts;
        total_cycles += cycles;
        result.detailedInsts += insts;
        clock = core->cycles();
        cursor = core->archState();
        if (core->halted()) {
            result.reachedEnd = true;
            break;
        }
        // The detailed core stopped mid-flight (between commits its
        // ArchState is exact because all models keep arch_ committed).
        cursor.halted = false;

        // Fast-forward with warming.
        fast_forward(params.skipInsts);
        if (cursor.halted)
            result.reachedEnd = true;
    }

    result.ipc = total_cycles
                     ? static_cast<double>(total_insts)
                           / static_cast<double>(total_cycles)
                     : 0.0;
    return result;
}

} // namespace sst
