/**
 * @file
 * Shared helpers for the bench binaries: the figures that are not a
 * sweep over presets x workloads x config values (those are manifests
 * under examples/figures/) and the host-time benches.
 *
 * Every bench prints (a) a human-readable table and (b) a CSV block
 * bracketed by BEGIN_CSV/END_CSV for plotting. Scale all run lengths
 * with the SST_BENCH_SCALE environment variable (default 1.0).
 */

#ifndef SSTSIM_BENCH_BENCH_UTIL_HH
#define SSTSIM_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "exp/run.hh"
#include "workloads/workloads.hh"

namespace sst::bench
{

/** Run-length multiplier from SST_BENCH_SCALE (default 1). */
inline double
benchScale()
{
    if (const char *env = std::getenv("SST_BENCH_SCALE"))
        return std::max(0.01, std::atof(env));
    return 1.0;
}

/** Standard workload parameters for benches. */
inline WorkloadParams
benchWorkloadParams()
{
    WorkloadParams p;
    p.lengthScale = 0.5 * benchScale();
    return p;
}

/** Build and cache workloads by name. */
class WorkloadSet
{
  public:
    explicit WorkloadSet(WorkloadParams params = benchWorkloadParams())
        : params_(params)
    {}

    const Workload &
    get(const std::string &name)
    {
        auto it = cache_.find(name);
        if (it == cache_.end())
            it = cache_.emplace(name, makeWorkload(name, params_)).first;
        return it->second;
    }

  private:
    WorkloadParams params_;
    std::map<std::string, Workload> cache_;
};

/** Geometric mean of a non-empty vector. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : v)
        acc += std::log(std::max(x, 1e-12));
    return std::exp(acc / static_cast<double>(v.size()));
}

/**
 * Run @p preset on @p workload through the run pipeline (exp/run.hh)
 * at the bench length (unless @p request sets length_scale), with the
 * request's machine keys on top, and check the final state against
 * the golden executor. Fatal unless the run finishes and matches. The
 * outcome keeps the machine for the power model.
 */
inline exp::RunOutcome
runVerified(const std::string &preset, const std::string &workload,
            Config request = {})
{
    request.set("preset", preset);
    request.set("workload", workload);
    if (!request.has("length_scale"))
        request.set("length_scale",
                    jsonNumber(benchWorkloadParams().lengthScale));
    auto target = exp::resolveRun(request);
    fatal_if(!target.ok(), "%s", target.error().message.c_str());
    auto run = exp::executeRun(target.value(), target.value().options);
    fatal_if(!run.ok(), "%s", run.error().message.c_str());
    fatal_if(!run.value().result.finished || !run.value().archOk,
             "%s on %s did not finish with the golden state",
             preset.c_str(), workload.c_str());
    return run.take();
}

/** Print the standard bench banner. */
inline void
banner(const std::string &id, const std::string &what)
{
    std::printf("\n##########################################################"
                "############\n");
    std::printf("## %s — %s\n", id.c_str(), what.c_str());
    std::printf("## (shape reproduction; absolute numbers are from this "
                "simulator,\n##  not the paper's testbed)\n");
    std::printf("############################################################"
                "##########\n");
}

} // namespace sst::bench

#endif // SSTSIM_BENCH_BENCH_UTIL_HH
