#include "exp/sweep.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/presets.hh"
#include "workloads/workloads.hh"

namespace sst::exp
{

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

/** Driver keys a manifest may set besides axes. */
const std::vector<std::string> &
sweepKeys()
{
    static const std::vector<std::string> keys = {
        "sweep.name",         "sweep.seed",
        "sweep.repeats",      "sweep.baseline",
        "sweep.max_cycles",   "sweep.length_scale",
        "sweep.footprint_scale", "sweep.verify",
        "sweep.sample",       "sweep.sample_detail",
        "sweep.sample_regions", "sweep.region_insts",
        "sweep.profile_cache",
        "preset",             "workload",
    };
    return keys;
}

Error
lineError(const std::string &origin, unsigned line, const std::string &msg)
{
    return Error{origin + ":" + std::to_string(line) + ": " + msg,
                 exit_code::badInput};
}

} // namespace

std::vector<std::string>
splitList(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::string piece;
    std::stringstream ss(text);
    while (std::getline(ss, piece, sep)) {
        piece = trim(piece);
        if (!piece.empty())
            out.push_back(piece);
    }
    return out;
}

Result<SweepSpec>
SweepSpec::parse(const std::string &text, const std::string &origin)
{
    SweepSpec spec;
    Config driver; // sweep.* values, type-checked through Config getters

    const std::vector<std::string> machineKeys = machineConfigKeys();
    std::vector<std::string> known = sweepKeys();
    known.insert(known.end(), machineKeys.begin(), machineKeys.end());

    std::stringstream ss(text);
    std::string raw;
    unsigned lineNo = 0;
    while (std::getline(ss, raw)) {
        ++lineNo;
        std::string line = raw;
        if (auto hash = line.find('#'); hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            return lineError(origin, lineNo,
                             "expected 'key = value', got '" + line + "'");
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));
        if (key.empty() || value.empty())
            return lineError(origin, lineNo,
                             "empty key or value in '" + line + "'");

        if (std::find(known.begin(), known.end(), key) == known.end()) {
            std::string msg = "unknown manifest key '" + key + "'";
            std::string near = closestMatch(key, known);
            if (!near.empty())
                msg += "; did you mean '" + near + "'?";
            return lineError(origin, lineNo, msg);
        }

        if (key == "preset") {
            spec.presets = splitList(value, ',');
            for (const auto &p : spec.presets) {
                auto names = presetNames();
                if (std::find(names.begin(), names.end(), p)
                    == names.end()) {
                    std::string msg = "unknown preset '" + p + "'";
                    std::string near = closestMatch(p, names);
                    if (!near.empty())
                        msg += "; did you mean '" + near + "'?";
                    return lineError(origin, lineNo, msg);
                }
            }
        } else if (key == "workload") {
            spec.workloads = splitList(value, ',');
            for (const auto &w : spec.workloads) {
                auto names = allWorkloadNames();
                if (std::find(names.begin(), names.end(), w)
                    == names.end()) {
                    std::string msg = "unknown workload '" + w + "'";
                    std::string near = closestMatch(w, names);
                    if (!near.empty())
                        msg += "; did you mean '" + near + "'?";
                    return lineError(origin, lineNo, msg);
                }
            }
        } else if (key.rfind("sweep.", 0) == 0) {
            driver.set(key, value);
        } else {
            // A machine-config axis. Validate every value now by
            // applying it to a scratch preset, so a typo fails at
            // parse time with a line number instead of mid-sweep.
            std::vector<std::string> values = splitList(value, ',');
            if (values.empty())
                return lineError(origin, lineNo,
                                 "axis '" + key + "' has no values");
            for (const auto &v : values) {
                auto checked = trapFatal([&] {
                    MachineConfig scratch = makePreset("inorder");
                    Config one;
                    one.set(key, v);
                    applyOverrides(scratch, one);
                });
                if (!checked.ok())
                    return lineError(origin, lineNo,
                                     checked.error().message);
            }
            // Re-assigning an axis replaces it (last line wins), like
            // Config::set overwriting a key.
            auto it = std::find_if(spec.axes.begin(), spec.axes.end(),
                                   [&](const Axis &a) {
                                       return a.key == key;
                                   });
            if (it != spec.axes.end())
                it->values = values;
            else
                spec.axes.push_back(Axis{key, values});
            if (key == "fault.seed")
                spec.explicitFaultSeed = true;
        }
    }

    if (spec.presets.empty())
        return Error{origin + ": manifest sets no 'preset'",
                     exit_code::badInput};
    if (spec.workloads.empty())
        return Error{origin + ": manifest sets no 'workload'",
                     exit_code::badInput};

    auto driven = trapFatal([&] {
        spec.name = driver.getString("sweep.name", spec.name);
        spec.baseSeed = driver.getUint("sweep.seed", spec.baseSeed);
        spec.repeats = static_cast<unsigned>(
            driver.getUint("sweep.repeats", spec.repeats));
        spec.baseline = driver.getString("sweep.baseline", spec.baseline);
        spec.maxCycles = driver.getUint("sweep.max_cycles", spec.maxCycles);
        spec.lengthScale =
            driver.getDouble("sweep.length_scale", spec.lengthScale);
        spec.footprintScale =
            driver.getDouble("sweep.footprint_scale", spec.footprintScale);
        spec.verifyGolden = driver.getBool("sweep.verify",
                                           spec.verifyGolden);
        spec.sample = driver.getBool("sweep.sample", spec.sample);
        spec.sampleDetail =
            driver.getUint("sweep.sample_detail", spec.sampleDetail);
        spec.sampleRegions = static_cast<unsigned>(
            driver.getUint("sweep.sample_regions", spec.sampleRegions));
        spec.regionInsts =
            driver.getUint("sweep.region_insts", spec.regionInsts);
        spec.profileCache =
            driver.getString("sweep.profile_cache", spec.profileCache);
    });
    if (!driven.ok())
        return Error{origin + ": " + driven.error().message,
                     exit_code::badInput};

    if (spec.repeats == 0)
        return Error{origin + ": sweep.repeats must be >= 1",
                     exit_code::badInput};
    if (spec.sample && spec.verifyGolden)
        return Error{origin + ": sweep.sample and sweep.verify are "
                              "mutually exclusive (sampled runs estimate "
                              "IPC, they do not reproduce the golden "
                              "final state)",
                     exit_code::badInput};
    if (spec.sample && spec.sampleDetail == 0)
        return Error{origin + ": sweep.sample_detail must be >= 1",
                     exit_code::badInput};
    if (!spec.baseline.empty()
        && std::find(spec.presets.begin(), spec.presets.end(),
                     spec.baseline)
               == spec.presets.end())
        return Error{origin + ": sweep.baseline '" + spec.baseline
                         + "' is not in the preset list",
                     exit_code::badInput};
    return spec;
}

Result<SweepSpec>
SweepSpec::parseFile(const std::string &path, std::string *text)
{
    std::ifstream in(path);
    if (!in)
        return Error{"cannot open sweep manifest '" + path + "'",
                     exit_code::badInput};
    std::stringstream ss;
    ss << in.rdbuf();
    if (text)
        *text = ss.str();
    return parse(ss.str(), path);
}

std::size_t
SweepSpec::pointCount() const
{
    std::size_t n = workloads.size() * repeats;
    for (const auto &axis : axes)
        n *= axis.values.size();
    return n;
}

std::vector<JobSpec>
SweepSpec::expand() const
{
    std::vector<JobSpec> jobs;
    jobs.reserve(jobCount());

    // Odometer over the axes: counter[i] indexes axes[i].values, the
    // last axis spins fastest.
    std::vector<std::size_t> counter(axes.size(), 0);
    std::size_t pointOrdinal = 0;
    const bool sweepsFaults =
        std::any_of(axes.begin(), axes.end(), [](const Axis &a) {
            return a.key.rfind("fault.", 0) == 0;
        });

    for (const auto &workload : workloads) {
        std::fill(counter.begin(), counter.end(), 0);
        for (;;) {
            std::string axisKey;
            for (std::size_t i = 0; i < axes.size(); ++i) {
                axisKey += '|';
                axisKey += axes[i].key + '=' + axes[i].values[counter[i]];
            }
            for (unsigned repeat = 0; repeat < repeats; ++repeat) {
                // Even/odd indices domain-separate the two streams:
                // with one preset, job index == point ordinal, and a
                // shared index space would seed the fault injector
                // identically to the workload generator.
                std::uint64_t workloadSeed =
                    deriveSeed(baseSeed, 2 * pointOrdinal + 1);
                for (const auto &preset : presets) {
                    JobSpec job;
                    job.index = jobs.size();
                    job.preset = preset;
                    job.workload = workload;
                    job.repeat = repeat;
                    job.jobSeed = deriveSeed(baseSeed, 2 * job.index);
                    job.workloadSeed = workloadSeed;
                    for (std::size_t i = 0; i < axes.size(); ++i)
                        job.overrides.set(axes[i].key,
                                          axes[i].values[counter[i]]);
                    if (sweepsFaults && !explicitFaultSeed)
                        job.overrides.set("fault.seed", job.jobSeed);
                    job.pointKey = workload + axisKey + "|r"
                                   + std::to_string(repeat);
                    jobs.push_back(std::move(job));
                }
                ++pointOrdinal;
            }
            // Advance the odometer; done when it wraps past axis 0
            // (immediately, when there are no axes at all).
            bool wrapped = true;
            for (std::size_t i = axes.size(); i-- > 0;) {
                if (++counter[i] < axes[i].values.size()) {
                    wrapped = false;
                    break;
                }
                counter[i] = 0;
            }
            if (wrapped)
                break;
        }
    }
    return jobs;
}

} // namespace sst::exp
