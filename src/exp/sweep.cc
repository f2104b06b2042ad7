#include "exp/sweep.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
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
        "seed",
    };
    return keys;
}

Error
lineError(const std::string &origin, unsigned line, const std::string &msg)
{
    return Error{origin + ":" + std::to_string(line) + ": " + msg,
                 exit_code::badInput};
}

/** "unknown <what> '<name>'", plus the nearest name in @p known. */
std::string
unknownName(const std::string &what, const std::string &name,
            const std::vector<std::string> &known)
{
    std::string msg = "unknown " + what + " '" + name + "'";
    std::string near = closestMatch(name, known);
    if (!near.empty())
        msg += "; did you mean '" + near + "'?";
    return msg;
}

/** Apply key=value to a scratch preset, so a bad machine-config value
 *  fails at parse time instead of mid-sweep. */
Result<void>
checkAssignment(const std::string &key, const std::string &value)
{
    return trapFatal([&] {
        MachineConfig scratch = makePreset("inorder");
        Config one;
        one.set(key, value);
        applyOverrides(scratch, one);
    });
}

/** `variant.<name> = <preset> key=value ...` on top of @p spec. */
Result<void>
parseVariant(SweepSpec &spec, const std::string &name,
             const std::string &value)
{
    const std::vector<std::string> presets = presetNames();
    if (name.empty() || name.find_first_of(", \t") != std::string::npos)
        return Error{"variant name '" + name
                     + "' must be non-empty, without commas or spaces"};
    if (std::find(presets.begin(), presets.end(), name) != presets.end())
        return Error{"variant '" + name + "' shadows a preset"};
    if (spec.variant(name))
        return Error{"variant '" + name + "' is defined twice"};

    std::vector<std::string> words = splitList(value, ' ');
    SweepSpec::Variant v{name, words.front(), {}};
    if (std::find(presets.begin(), presets.end(), v.preset)
        == presets.end())
        return Error{unknownName("base preset", v.preset, presets)};
    const std::vector<std::string> machineKeys = machineConfigKeys();
    for (std::size_t i = 1; i < words.size(); ++i) {
        std::size_t eq = words[i].find('=');
        if (eq == std::string::npos || eq == 0)
            return Error{"variant '" + name + "': expected key=value, got '"
                         + words[i] + "'"};
        std::string key = words[i].substr(0, eq);
        std::string val = words[i].substr(eq + 1);
        if (std::find(machineKeys.begin(), machineKeys.end(), key)
            == machineKeys.end())
            return Error{unknownName("machine key", key, machineKeys)};
        if (auto checked = checkAssignment(key, val); !checked.ok())
            return checked.error();
        v.overrides.set(key, val);
    }
    spec.variants.push_back(std::move(v));
    return {};
}

/** A workload scale: a finite number > 0. */
Result<void>
checkScale(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || !std::isfinite(v) || v <= 0)
        return Error{key + " must be a positive finite number"};
    return {};
}

/** `seed`: a decimal unsigned 64-bit integer. */
Result<std::uint64_t>
parseSeed(const std::string &value)
{
    errno = 0;
    unsigned long long v = std::strtoull(value.c_str(), nullptr, 10);
    if (value.find_first_not_of("0123456789") != std::string::npos
        || errno == ERANGE)
        return Error{"seed '" + value + "' is not an unsigned integer"};
    return static_cast<std::uint64_t>(v);
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
    unsigned presetLine = 0; // checked once every variant is known
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

        if (key.rfind("variant.", 0) == 0) {
            if (auto parsed = parseVariant(spec, key.substr(8), value);
                !parsed.ok())
                return lineError(origin, lineNo, parsed.error().message);
            continue;
        }
        if (std::find(known.begin(), known.end(), key) == known.end())
            return lineError(origin, lineNo,
                             unknownName("manifest key", key, known));

        if (key == "preset") {
            spec.presets = splitList(value, ',');
            presetLine = lineNo;
        } else if (key == "workload") {
            // A shared-memory workload makes a CMP job (exp/run.hh).
            spec.workloads = splitList(value, ',');
            std::vector<std::string> names = allWorkloadNames();
            for (const auto &shared : sharedWorkloadNames())
                names.push_back(shared);
            for (const auto &w : spec.workloads)
                if (std::find(names.begin(), names.end(), w)
                    == names.end())
                    return lineError(origin, lineNo,
                                     unknownName("workload", w, names));
        } else if (key == "seed") {
            auto seed = parseSeed(value);
            if (!seed.ok())
                return lineError(origin, lineNo, seed.error().message);
            spec.workloadSeed = seed.value();
        } else if (key.rfind("sweep.", 0) == 0) {
            if (key == "sweep.length_scale" || key == "sweep.footprint_scale")
                if (auto scale = checkScale(key, value); !scale.ok())
                    return lineError(origin, lineNo, scale.error().message);
            driver.set(key, value);
        } else {
            // A machine-config axis. Validate every value now, so a
            // typo fails at parse time with a line number.
            std::vector<std::string> values = splitList(value, ',');
            if (values.empty())
                return lineError(origin, lineNo,
                                 "axis '" + key + "' has no values");
            for (const auto &v : values)
                if (auto checked = checkAssignment(key, v); !checked.ok())
                    return lineError(origin, lineNo,
                                     checked.error().message);
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
    std::vector<std::string> runnable = presetNames();
    for (const auto &v : spec.variants)
        runnable.push_back(v.name);
    for (const auto &p : spec.presets)
        if (std::find(runnable.begin(), runnable.end(), p) == runnable.end())
            return lineError(origin, presetLine,
                             unknownName("preset", p, runnable));
    for (const auto &v : spec.variants)
        for (const auto &axis : spec.axes)
            if (v.overrides.has(axis.key))
                return Error{origin + ": variant '" + v.name + "' sets '"
                                 + axis.key + "', which is also a sweep axis",
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
    if (spec.sample)
        for (const auto &shared : sharedWorkloadNames())
            if (std::find(spec.workloads.begin(), spec.workloads.end(),
                          shared)
                != spec.workloads.end())
                return Error{origin + ": sweep.sample cannot run the "
                                      "shared workload '"
                                 + shared + "' (a CMP job has no "
                                            "sampled mode)",
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

const SweepSpec::Variant *
SweepSpec::variant(const std::string &name) const
{
    for (const auto &v : variants)
        if (v.name == name)
            return &v;
    return nullptr;
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
                    this->workloadSeed
                        ? *this->workloadSeed
                        : deriveSeed(baseSeed, 2 * pointOrdinal + 1);
                for (const auto &preset : presets) {
                    JobSpec job;
                    job.index = jobs.size();
                    job.preset = preset;
                    job.workload = workload;
                    job.repeat = repeat;
                    job.jobSeed = deriveSeed(baseSeed, 2 * job.index);
                    job.workloadSeed = workloadSeed;
                    if (const Variant *v = variant(preset)) {
                        job.basePreset = v->preset;
                        job.overrides = v->overrides;
                    }
                    for (std::size_t i = 0; i < axes.size(); ++i)
                        job.overrides.set(axes[i].key,
                                          axes[i].values[counter[i]]);
                    if (sweepsFaults && !explicitFaultSeed
                        && !job.overrides.has("fault.seed"))
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
