#include "sim/profile.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/config.hh"
#include "common/logging.hh"
#include "exp/threadpool.hh"
#include "snap/snap.hh"

namespace sst
{

namespace
{

constexpr unsigned kBbvBuckets = 32;
constexpr const char *kManifestName = "library.manifest";

unsigned
bbvBucket(Addr pc)
{
    // Fibonacci hash of the PC; the top 5 bits index the histogram.
    return static_cast<unsigned>((pc * 0x9E3779B97F4A7C15ULL) >> 59);
}

std::string
memberFileName(std::uint64_t index)
{
    return "region-" + std::to_string(index) + ".snap";
}

std::string
hexU64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * A member's header. The identity fields are the run's (preset, model,
 * program, memory-config hash): saving writes them, loading fatal()s
 * (trappable) on any mismatch. The region's start is then saved or
 * loaded. Loaders pass the program's name and fingerprint rather than
 * the Program so the fingerprint — a hash over every instruction and
 * data byte — is computed once per run, not once per member.
 */
struct MemberHeader
{
    std::string preset;
    std::string model;
    std::string workload;
    std::uint64_t fingerprint = 0;
    std::uint64_t configHash = 0;
    std::uint64_t index = 0;
    std::uint64_t startInsts = 0;
    Cycle startClock = 0;

    template <class Io> void io(Io &s)
    {
        snap::header(s, snap::Kind::ProfileMember, preset, model);
        snap::program(s, workload, fingerprint);
        s.expect(configHash, "config hash");
        s.u64(index);
        s.u64(startInsts);
        s.u64(startClock);
    }
};

/** A member's warm start state, after its header. */
template <class Io>
void
memberState(Io &s, ArchState &cursor, MemorySystem &memsys,
            MemoryImage &image)
{
    s.tag("profile-cursor");
    cursor.io(s);
    s.tag("profile-mem");
    memsys.io(s);
    s.tag("profile-stats");
    memsys.stats().io(s);
    s.tag("profile-image");
    image.io(s);
    s.tag("profile-end");
}

/** Serialize one selected region's warm start state. The trailing u64
 *  is an FNV-1a checksum over every preceding byte, so triage can
 *  reject arbitrary corruption without deserializing anything; it is
 *  written as a zero slot here and filled by sealMember(). */
std::vector<std::uint8_t>
serializeMember(const ProfileLibrary &lib, const ProfileRegion &region,
                ArchState &cursor, MemorySystem &memsys,
                MemoryImage &image)
{
    snap::Writer w;
    MemberHeader header{lib.preset,        lib.model,
                        lib.workload,      lib.fingerprint,
                        lib.configHash,    region.index,
                        region.startInsts, region.startClock};
    header.io(w);
    memberState(w, cursor, memsys, image);
    w.u64(0);
    return w.take();
}

/** Fill a serialized member's checksum slot in place. */
void
sealMember(std::vector<std::uint8_t> &bytes)
{
    std::size_t body = bytes.size() - 8;
    std::uint64_t sum = snap::fnv1a(bytes.data(), body);
    for (int i = 0; i < 8; ++i)
        bytes[body + i] = static_cast<std::uint8_t>(sum >> (8 * i));
}

bool
memberChecksumOk(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < 8)
        return false;
    std::size_t body = bytes.size() - 8;
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i)
        stored |= static_cast<std::uint64_t>(bytes[body + i]) << (8 * i);
    return snap::fnv1a(bytes.data(), body) == stored;
}

/** Workers for @p tasks independent member jobs: one per job, up to
 *  the host's hardware threads. */
unsigned
memberWorkers(std::size_t tasks)
{
    return static_cast<unsigned>(std::min<std::size_t>(
        exp::ThreadPool::defaultWorkers(), tasks));
}

/** Run fn(i) for every i in [0, n) on a pool sized by memberWorkers(). */
template <class Fn>
void
forEachMember(std::size_t n, Fn &&fn)
{
    if (n == 0)
        return;
    exp::ThreadPool pool(memberWorkers(n));
    exp::parallelFor(pool, n, fn);
}

/** L1 distance between two normalized basic-block vectors. */
double
bbvDistance(const std::array<double, kBbvBuckets> &a,
            const std::array<double, kBbvBuckets> &b)
{
    double d = 0;
    for (unsigned i = 0; i < kBbvBuckets; ++i)
        d += std::abs(a[i] - b[i]);
    return d;
}

/**
 * Greedy k-center (farthest-first) selection over the region BBVs.
 * Deterministic: the seed center is the region nearest the global
 * mean, each following center is the region farthest from the chosen
 * set, and every tie breaks toward the lowest region index. Each
 * region is then assigned to its nearest center, whose weight
 * accumulates the assigned instruction counts.
 */
void
selectRegions(std::vector<ProfileRegion> &regions,
              const std::vector<std::array<double, kBbvBuckets>> &bbv,
              unsigned maxRegions)
{
    std::size_t n = regions.size();
    if (maxRegions == 0 || n <= maxRegions) {
        for (auto &r : regions) {
            r.selected = true;
            r.weight = r.lengthInsts;
        }
        return;
    }

    std::array<double, kBbvBuckets> mean{};
    for (const auto &row : bbv)
        for (unsigned i = 0; i < kBbvBuckets; ++i)
            mean[i] += row[i] / static_cast<double>(n);

    std::vector<std::size_t> centers;
    std::size_t seed = 0;
    double best = bbvDistance(bbv[0], mean);
    for (std::size_t i = 1; i < n; ++i) {
        double d = bbvDistance(bbv[i], mean);
        if (d < best) {
            best = d;
            seed = i;
        }
    }
    centers.push_back(seed);

    std::vector<double> minDist(n);
    for (std::size_t i = 0; i < n; ++i)
        minDist[i] = bbvDistance(bbv[i], bbv[seed]);
    while (centers.size() < maxRegions) {
        std::size_t far = 0;
        double farDist = -1;
        for (std::size_t i = 0; i < n; ++i) {
            if (minDist[i] > farDist) {
                farDist = minDist[i];
                far = i;
            }
        }
        if (farDist <= 0)
            break; // every region coincides with some center
        centers.push_back(far);
        for (std::size_t i = 0; i < n; ++i)
            minDist[i] = std::min(minDist[i], bbvDistance(bbv[i], bbv[far]));
    }
    std::sort(centers.begin(), centers.end());

    for (std::size_t c : centers)
        regions[c].selected = true;
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t rep = centers[0];
        double repDist = bbvDistance(bbv[i], bbv[centers[0]]);
        for (std::size_t c : centers) {
            double d = bbvDistance(bbv[i], bbv[c]);
            if (d < repDist) {
                repDist = d;
                rep = c;
            }
        }
        regions[rep].weight += regions[i].lengthInsts;
    }
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (errno != 0 || end != s.c_str() + s.size())
        return false;
    out = v;
    return true;
}

std::string
trimWs(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/** Deterministic plain-text manifest (same key=value idiom as sweep
 *  manifests); written last so its presence marks a complete entry. */
std::string
manifestText(const ProfileLibrary &lib)
{
    std::ostringstream out;
    out << "# sstsim profile library\n";
    out << "schema = 1\n";
    out << "preset = " << lib.preset << "\n";
    out << "model = " << lib.model << "\n";
    out << "workload = " << lib.workload << "\n";
    out << "fingerprint = " << hexU64(lib.fingerprint) << "\n";
    out << "config_hash = " << hexU64(lib.configHash) << "\n";
    out << "region_insts = " << lib.regionInsts << "\n";
    out << "max_regions = " << lib.maxRegions << "\n";
    out << "warm_cpi = " << lib.warmCpi << "\n";
    out << "total_insts = " << lib.totalInsts << "\n";
    out << "warm_accesses = " << lib.warmAccesses << "\n";
    out << "warm_hits = " << lib.warmHits << "\n";
    out << "regions = " << lib.regions.size() << "\n";
    for (const ProfileRegion &r : lib.regions) {
        out << "region." << r.index << " = start=" << r.startInsts
            << " length=" << r.lengthInsts << " clock=" << r.startClock
            << " weight=" << r.weight << " selected="
            << (r.selected ? 1 : 0) << " member="
            << (r.selected ? memberFileName(r.index) : std::string("-"))
            << "\n";
    }
    return out.str();
}

Error
manifestError(const std::string &detail)
{
    return Error{"profile library manifest: " + detail};
}

/** Parse manifestText() output. Structural identity only; member
 *  bytes are loaded and triaged separately. */
Result<ProfileLibrary>
parseManifest(const std::string &text)
{
    ProfileLibrary lib;
    std::uint64_t schema = 0, regionCount = 0;
    std::uint64_t maxRegions = 0, warmCpi = 0;
    bool sawRegions = false;
    std::istringstream in(text);
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        line = trimWs(line);
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            return manifestError("line " + std::to_string(lineNo)
                                 + ": expected key = value");
        std::string key = trimWs(line.substr(0, eq));
        std::string val = trimWs(line.substr(eq + 1));
        bool ok = true;
        if (key == "schema")
            ok = parseU64(val, schema);
        else if (key == "preset")
            lib.preset = val;
        else if (key == "model")
            lib.model = val;
        else if (key == "workload")
            lib.workload = val;
        else if (key == "fingerprint")
            ok = parseU64(val, lib.fingerprint);
        else if (key == "config_hash")
            ok = parseU64(val, lib.configHash);
        else if (key == "region_insts")
            ok = parseU64(val, lib.regionInsts);
        else if (key == "max_regions")
            ok = parseU64(val, maxRegions);
        else if (key == "warm_cpi")
            ok = parseU64(val, warmCpi);
        else if (key == "total_insts")
            ok = parseU64(val, lib.totalInsts);
        else if (key == "warm_accesses")
            ok = parseU64(val, lib.warmAccesses);
        else if (key == "warm_hits")
            ok = parseU64(val, lib.warmHits);
        else if (key == "regions") {
            ok = parseU64(val, regionCount);
            sawRegions = true;
        } else if (key.rfind("region.", 0) == 0) {
            ProfileRegion r;
            if (!parseU64(key.substr(7), r.index))
                return manifestError("bad region key '" + key + "'");
            std::istringstream fields(val);
            std::string tok;
            std::string memberName;
            while (fields >> tok) {
                std::size_t feq = tok.find('=');
                if (feq == std::string::npos)
                    return manifestError("region field '" + tok + "'");
                std::string fk = tok.substr(0, feq);
                std::string fv = tok.substr(feq + 1);
                std::uint64_t sel = 0;
                bool fok = true;
                if (fk == "start")
                    fok = parseU64(fv, r.startInsts);
                else if (fk == "length")
                    fok = parseU64(fv, r.lengthInsts);
                else if (fk == "clock")
                    fok = parseU64(fv, r.startClock);
                else if (fk == "weight")
                    fok = parseU64(fv, r.weight);
                else if (fk == "selected") {
                    fok = parseU64(fv, sel);
                    r.selected = sel != 0;
                } else if (fk == "member")
                    memberName = fv;
                else
                    return manifestError("unknown region field '" + fk
                                         + "'");
                if (!fok)
                    return manifestError("bad value in '" + tok + "'");
            }
            if (r.selected && memberName != memberFileName(r.index))
                return manifestError("region " + std::to_string(r.index)
                                     + " names unexpected member '"
                                     + memberName + "'");
            if (r.index != lib.regions.size())
                return manifestError("region entries out of order at "
                                     + key);
            lib.regions.push_back(std::move(r));
        } else {
            return manifestError("unknown key '" + key + "'");
        }
        if (!ok)
            return manifestError("bad value for '" + key + "'");
    }
    if (schema != 1)
        return manifestError("unsupported schema "
                             + std::to_string(schema));
    if (!sawRegions || lib.regions.size() != regionCount)
        return manifestError("region count mismatch");
    if (maxRegions > ~0u || warmCpi > ~0u)
        return manifestError("max_regions/warm_cpi out of range");
    lib.maxRegions = static_cast<unsigned>(maxRegions);
    lib.warmCpi = static_cast<unsigned>(warmCpi);
    return lib;
}

} // namespace

std::size_t
ProfileLibrary::usableCount() const
{
    std::size_t n = 0;
    for (const ProfileRegion &r : regions)
        if (r.selected && !r.member.empty())
            ++n;
    return n;
}

std::uint64_t
memConfigHash(const MachineConfig &config, const Config &effective)
{
    snap::Hasher h;
    auto mix = [&](const std::string &s) {
        h.mixU64(s.size());
        h.mix(s.data(), s.size());
    };
    mix(config.presetName);
    mix(config.model);
    for (const auto &[key, value] : effective.items()) {
        if (key.rfind("mem.", 0) != 0 && key.rfind("fault.", 0) != 0)
            continue;
        mix(key);
        mix(value);
    }
    return h.value();
}

std::uint64_t
profileRegionHint(std::uint64_t approxDynInsts)
{
    return std::clamp<std::uint64_t>(approxDynInsts / 16, 10'000, 2'000'000);
}

ProfileLibrary
buildProfileLibrary(const MachineConfig &config, const Program &program,
                    const ProfileParams &params, std::uint64_t configHash)
{
    fatal_if(params.warmCpi == 0, "profile: warmCpi must be positive");
    fatal_if(params.maxInsts == 0, "profile: maxInsts must be positive");

    std::uint64_t stride = params.regionInsts;
    if (stride == 0) {
        auto counted = goldenRun(program, params.maxInsts);
        fatal_if(!counted.ok(),
                 "profile: '%s' did not halt within %llu instructions",
                 program.name().c_str(),
                 static_cast<unsigned long long>(params.maxInsts));
        stride = profileRegionHint(counted.value().insts);
    }

    ProfileLibrary lib;
    lib.preset = config.presetName;
    lib.model = config.model;
    lib.workload = program.name();
    lib.fingerprint = programFingerprint(program);
    lib.configHash = configHash;
    lib.regionInsts = stride;
    lib.maxRegions = params.maxRegions;
    lib.warmCpi = params.warmCpi;

    // Pass 1: pure functional execution collecting one basic-block
    // vector (PC histogram) per fixed-stride region.
    std::vector<std::array<std::uint64_t, kBbvBuckets>> counts;
    {
        MemoryImage image;
        image.loadSegments(program);
        Executor exec(program, image);
        ArchState cursor;
        std::uint64_t done = 0;
        while (!cursor.halted) {
            fatal_if(done >= params.maxInsts,
                     "profile: '%s' did not halt within %llu instructions",
                     program.name().c_str(),
                     static_cast<unsigned long long>(params.maxInsts));
            if (done % stride == 0)
                counts.push_back({});
            ++counts.back()[bbvBucket(cursor.pc)];
            exec.step(cursor);
            ++done;
        }
        lib.totalInsts = done;
    }
    fatal_if(counts.empty(), "profile: '%s' retired no instructions",
             program.name().c_str());

    std::vector<std::array<double, kBbvBuckets>> bbv(counts.size());
    lib.regions.resize(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
        ProfileRegion &r = lib.regions[i];
        r.index = i;
        r.startInsts = i * stride;
        r.lengthInsts = std::min<std::uint64_t>(
            stride, lib.totalInsts - r.startInsts);
        std::uint64_t sum = 0;
        for (std::uint64_t c : counts[i])
            sum += c;
        for (unsigned b = 0; b < kBbvBuckets; ++b)
            bbv[i][b] = static_cast<double>(counts[i][b])
                        / static_cast<double>(sum);
    }

    selectRegions(lib.regions, bbv, params.maxRegions);

    // Pass 2: replay with cache warming (warmStep, the step runSampled
    // fast-forwards with) and serialize each selected region's start
    // state at its boundary. Sealing a member (hashing its megabytes)
    // runs on the pool while warming continues. The pool is declared
    // after lib, so a fatal() unwinding out of this pass joins the
    // sealing tasks before their members are freed.
    const auto selected = static_cast<std::size_t>(
        std::count_if(lib.regions.begin(), lib.regions.end(),
                      [](const ProfileRegion &r) { return r.selected; }));
    exp::ThreadPool pool(memberWorkers(selected));
    MemorySystem memsys(config.mem);
    CorePort &port = memsys.addCore();
    MemoryImage image;
    image.loadSegments(program);
    Executor exec(program, image);
    ArchState cursor;
    Cycle clock = 0;
    std::uint64_t done = 0;
    std::size_t next = 0;
    while (next < lib.regions.size() && !lib.regions[next].selected)
        ++next;
    while (!cursor.halted) {
        if (next < lib.regions.size()
            && done == lib.regions[next].startInsts) {
            ProfileRegion &r = lib.regions[next];
            r.startClock = clock;
            r.member = serializeMember(lib, r, cursor, memsys, image);
            pool.submit([&member = r.member] { sealMember(member); });
            do {
                ++next;
            } while (next < lib.regions.size()
                     && !lib.regions[next].selected);
        }
        warmStep(exec, cursor, port, clock, params.warmCpi,
                 lib.warmAccesses, lib.warmHits);
        ++done;
    }
    panic_if(done != lib.totalInsts,
             "profile: warming replay retired %llu insts, pass 1 saw %llu",
             static_cast<unsigned long long>(done),
             static_cast<unsigned long long>(lib.totalInsts));
    panic_if(next < lib.regions.size(),
             "profile: unreached selected region %llu",
             static_cast<unsigned long long>(lib.regions[next].index));
    pool.wait();
    return lib;
}

std::string
profileCacheDir(const std::string &cacheRoot, const MachineConfig &config,
                const Program &program, const ProfileParams &params,
                std::uint64_t configHash)
{
    snap::Hasher h;
    h.mixU64(programFingerprint(program));
    h.mixU64(configHash);
    h.mixU64(params.regionInsts);
    h.mixU64(params.maxRegions);
    h.mixU64(params.warmCpi);
    return cacheRoot + "/" + config.presetName + "-" + config.model + "-"
           + program.name() + "-" + hexU64(h.value()).substr(2);
}

Result<void>
saveProfileLibrary(const ProfileLibrary &library, const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return Error{"profile cache: cannot create '" + dir
                     + "': " + ec.message()};
    // Members are written concurrently, each still staged, fsynced and
    // renamed on its own; the manifest goes last, and only once every
    // member is in place, so its presence still marks a complete entry.
    std::vector<const ProfileRegion *> members;
    for (const ProfileRegion &r : library.regions)
        if (r.selected && !r.member.empty())
            members.push_back(&r);
    std::vector<Result<void>> written(members.size());
    forEachMember(members.size(), [&](std::size_t i) {
        written[i] = snap::writeFile(
            dir + "/" + memberFileName(members[i]->index),
            members[i]->member);
    });
    for (const Result<void> &w : written)
        if (!w.ok())
            return w.error();
    std::string text = manifestText(library);
    std::vector<std::uint8_t> bytes(text.begin(), text.end());
    return snap::writeFile(dir + "/" + kManifestName, bytes);
}

Result<ProfileLibrary>
loadProfileLibrary(const std::string &dir, const MachineConfig &config,
                   const Program &program, const ProfileParams &params,
                   std::uint64_t configHash)
{
    std::ifstream in(dir + "/" + kManifestName, std::ios::binary);
    if (!in)
        return Error{"no profile library at '" + dir + "'"};
    std::ostringstream text;
    text << in.rdbuf();
    auto parsed = parseManifest(text.str());
    if (!parsed.ok())
        return parsed.error();
    ProfileLibrary lib = parsed.take();

    const std::uint64_t programFp = programFingerprint(program);
    if (lib.preset != config.presetName || lib.model != config.model
        || lib.workload != program.name()
        || lib.fingerprint != programFp
        || lib.configHash != configHash
        || lib.regionInsts != params.regionInsts
        || lib.maxRegions != params.maxRegions
        || lib.warmCpi != params.warmCpi)
        return Error{"profile library at '" + dir
                     + "' was built for a different run identity"};

    // Read every member on this thread (reads on pool threads would
    // spread the big buffers over per-thread malloc arenas), verify the
    // checksums in parallel, then triage one member at a time in region
    // order, so the warnings and the kept set do not depend on which
    // check finished first.
    struct Candidate
    {
        ProfileRegion *region;
        std::string path;
        std::string failure; ///< probe or read error, if any
        std::vector<std::uint8_t> bytes;
        bool sumOk = false;
    };
    std::vector<Candidate> candidates;
    for (ProfileRegion &r : lib.regions) {
        if (!r.selected)
            continue;
        Candidate &c = candidates.emplace_back();
        c.region = &r;
        c.path = dir + "/" + memberFileName(r.index);
        if (auto probe = snap::probeSnapshotFile(c.path); !probe.ok())
            c.failure = probe.error().message;
        else if (auto bytes = snap::readFile(c.path); !bytes.ok())
            c.failure = bytes.error().message;
        else
            c.bytes = bytes.take();
    }
    forEachMember(candidates.size(), [&](std::size_t i) {
        Candidate &c = candidates[i];
        c.sumOk = c.failure.empty() && memberChecksumOk(c.bytes);
    });

    for (Candidate &c : candidates) {
        ProfileRegion &r = *c.region;
        auto skip = [&](const std::string &why) {
            warn("profile cache: %s: %s; skipping region %llu",
                 c.path.c_str(), why.c_str(),
                 static_cast<unsigned long long>(r.index));
            r.member.clear();
        };
        if (!c.failure.empty()) {
            skip(c.failure);
            continue;
        }
        if (!c.sumOk) {
            skip("checksum mismatch (corrupt member)");
            continue;
        }
        const auto &data = c.bytes;
        auto header = trapFatal([&] {
            snap::Reader rd(data.data(), data.size() - 8);
            MemberHeader h{config.presetName, config.model,
                           program.name(), programFp, configHash};
            h.io(rd);
            fatal_if(h.index != r.index || h.startInsts != r.startInsts
                         || h.startClock != r.startClock,
                     "member header disagrees with the manifest");
        });
        if (!header.ok()) {
            skip(header.error().message);
            continue;
        }
        r.member = std::move(c.bytes);
    }
    if (lib.usableCount() == 0)
        return Error{"profile library at '" + dir
                     + "' has no usable members"};
    return lib;
}

Result<ProfileLibrary>
ensureProfileLibrary(const MachineConfig &config, const Program &program,
                     const ProfileParams &params,
                     const std::string &cacheRoot, std::uint64_t configHash)
{
    if (cacheRoot.empty())
        return trapFatal(
            [&] { return buildProfileLibrary(config, program, params,
                                             configHash); });
    if (params.regionInsts == 0)
        return Error{"profile cache lookups need a resolved region "
                     "stride; set regionInsts (profileRegionHint) before "
                     "caching"};
    std::string dir =
        profileCacheDir(cacheRoot, config, program, params, configHash);
    if (auto cached =
            loadProfileLibrary(dir, config, program, params, configHash);
        cached.ok())
        return cached;
    auto built = trapFatal(
        [&] { return buildProfileLibrary(config, program, params,
                                         configHash); });
    if (!built.ok())
        return built.error();
    if (auto saved = saveProfileLibrary(built.value(), dir); !saved.ok())
        warn("profile cache: could not populate '%s': %s", dir.c_str(),
             saved.error().message.c_str());
    return built;
}

SampledResult
runSampledFromLibrary(const MachineConfig &config, const Program &program,
                      const ProfileLibrary &library,
                      const SampleParams &params)
{
    fatal_if(params.detailInsts == 0, "detailInsts must be positive");

    std::vector<const ProfileRegion *> picks;
    for (const ProfileRegion &r : library.regions)
        if (r.selected && !r.member.empty())
            picks.push_back(&r);
    fatal_if(picks.empty(), "profile library has no usable members");
    if (params.maxSamples != 0 && picks.size() > params.maxSamples) {
        std::stable_sort(picks.begin(), picks.end(),
                         [](const ProfileRegion *a, const ProfileRegion *b) {
                             return a->weight > b->weight;
                         });
        picks.resize(params.maxSamples);
        std::sort(picks.begin(), picks.end(),
                  [](const ProfileRegion *a, const ProfileRegion *b) {
                      return a->startInsts < b->startInsts;
                  });
    }

    SampledResult result;
    result.preset = config.presetName;
    result.warmAccesses = library.warmAccesses;
    result.warmHits = library.warmHits;
    double est_cycles = 0;
    std::uint64_t total_weight = 0;
    const std::uint64_t programFp = programFingerprint(program);
    for (const ProfileRegion *pick : picks) {
        MemorySystem memsys(config.mem);
        CorePort &port = memsys.addCore();
        MemoryImage image;
        ArchState cursor;
        snap::Reader rd(pick->member.data(), pick->member.size() - 8);
        MemberHeader h{config.presetName, config.model, program.name(),
                       programFp, library.configHash};
        h.io(rd);
        memberState(rd, cursor, memsys, image);
        rd.done();

        auto core = makeCore(config, program, image, port);
        core->warmStart(cursor, h.startClock);
        runWindow(*core, params.detailInsts);
        std::uint64_t insts = core->instsRetired();
        Cycle cycles = core->cycles() - core->startCycle();
        fatal_if(insts == 0, "sampled window retired nothing");

        result.windowIpc.push_back(core->ipc());
        result.windowWeight.push_back(static_cast<double>(pick->weight));
        result.detailedInsts += insts;
        est_cycles += static_cast<double>(pick->weight)
                      * static_cast<double>(cycles)
                      / static_cast<double>(insts);
        total_weight += pick->weight;
    }
    result.skippedInsts = library.totalInsts > result.detailedInsts
                              ? library.totalInsts - result.detailedInsts
                              : 0;
    result.ipc = est_cycles > 0
                     ? static_cast<double>(total_weight) / est_cycles
                     : 0.0;
    result.reachedEnd = true;
    return result;
}

Result<void>
warmStartMachine(Machine &machine, const ProfileLibrary &library,
                 std::uint64_t targetInsts, std::uint64_t *startInsts)
{
    if (machine.core().cycles() != 0 || machine.core().instsRetired() != 0)
        return Error{"warm start requires a freshly built machine"};

    const ProfileRegion *pick = nullptr;
    for (const ProfileRegion &r : library.regions) {
        if (!r.selected || r.member.empty())
            continue;
        if (r.startInsts <= targetInsts
            && (!pick || r.startInsts > pick->startInsts))
            pick = &r;
    }
    if (!pick) {
        // Nothing at or below the target: fall back to the earliest
        // member rather than failing the run.
        for (const ProfileRegion &r : library.regions)
            if (r.selected && !r.member.empty()
                && (!pick || r.startInsts < pick->startInsts))
                pick = &r;
    }
    if (!pick)
        return Error{"profile library has no usable members"};

    return trapFatal([&] {
        snap::Reader rd(pick->member.data(), pick->member.size() - 8);
        MemberHeader h{machine.config().presetName,
                       machine.config().model, machine.program().name(),
                       programFingerprint(machine.program()),
                       library.configHash};
        h.io(rd);
        ArchState cursor;
        memberState(rd, cursor, machine.memsys(), machine.image());
        rd.done();
        machine.core().warmStart(cursor, h.startClock);
        machine.watchdog().rebase(h.startClock);
        if (startInsts)
            *startInsts = h.startInsts;
    });
}

} // namespace sst
