#include "coh/coh.hh"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/logging.hh"
#include "snap/snap.hh"

namespace sst
{

CohAction
Directory::onAccess(Addr line, unsigned core, bool isStore)
{
    CohAction act;
    const std::uint64_t bit = std::uint64_t{1} << core;
    auto it = lines_.find(line);

    if (it == lines_.end()) {
        // Uncached: first touch goes straight to Exclusive (MESI E on a
        // read; no other copies exist, so no traffic either way).
        lines_[line] = CohLine{0, static_cast<int>(core)};
        return act;
    }

    CohLine &st = it->second;
    if (st.owner >= 0) {
        if (st.owner == static_cast<int>(core))
            return act; // silent E/M hit, and E->M is traffic-free
        // Another core owns the line: its copy may be dirty, so every
        // transfer is modelled as an intervention.
        act.intervention = true;
        act.latency += params_.interventionLatency;
        ++interventions_;
        if (isStore) {
            act.invalidateMask = std::uint64_t{1}
                                 << static_cast<unsigned>(st.owner);
            act.latency += params_.invalidateLatency;
            invalidations_ += 1;
            st = CohLine{0, static_cast<int>(core)};
        } else {
            st.sharers = (std::uint64_t{1}
                          << static_cast<unsigned>(st.owner))
                         | bit;
            st.owner = -1;
        }
        return act;
    }

    // Shared.
    if (!isStore) {
        st.sharers |= bit;
        return act;
    }
    std::uint64_t victims = st.sharers & ~bit;
    if (victims != 0) {
        act.invalidateMask = victims;
        act.latency += params_.invalidateLatency;
        invalidations_ +=
            static_cast<std::uint64_t>(std::popcount(victims));
    }
    if ((st.sharers & bit) != 0) {
        act.upgrade = true;
        act.latency += params_.upgradeLatency;
        ++upgrades_;
    }
    st = CohLine{0, static_cast<int>(core)};
    return act;
}

void
Directory::onEvict(Addr line, unsigned core)
{
    auto it = lines_.find(line);
    if (it == lines_.end())
        return;
    CohLine &st = it->second;
    const std::uint64_t bit = std::uint64_t{1} << core;
    if (st.owner == static_cast<int>(core))
        st.owner = -1;
    st.sharers &= ~bit;
    if (st.owner < 0 && st.sharers == 0)
        lines_.erase(it);
}

void
Directory::dropCore(unsigned core)
{
    const std::uint64_t bit = std::uint64_t{1} << core;
    for (auto it = lines_.begin(); it != lines_.end();) {
        CohLine &st = it->second;
        if (st.owner == static_cast<int>(core))
            st.owner = -1;
        st.sharers &= ~bit;
        if (st.owner < 0 && st.sharers == 0)
            it = lines_.erase(it);
        else
            ++it;
    }
}

CohLine
Directory::lineState(Addr line) const
{
    auto it = lines_.find(line);
    return it == lines_.end() ? CohLine{} : it->second;
}

template <class Io>
void
Directory::io(Io &s)
{
    s.tag("coh-dir");
    if constexpr (Io::loading) {
        lines_.clear();
        std::size_t n = s.count(snap::Width::u64, 0, 20);
        lines_.reserve(n); // one rehash, not log2(n) incremental ones
        Addr prev = 0;
        for (std::size_t i = 0; i < n; ++i) {
            Addr key = 0;
            s.u64(key);
            fatal_if(i > 0 && key <= prev,
                     "snapshot: directory lines out of order");
            prev = key;
            CohLine st;
            s.u64(st.sharers);
            s.i32(st.owner);
            lines_.emplace(key, st);
        }
    } else {
        std::vector<Addr> keys;
        keys.reserve(lines_.size());
        for (const auto &kv : lines_)
            keys.push_back(kv.first);
        std::sort(keys.begin(), keys.end());
        s.count(snap::Width::u64, keys.size(), 20);
        for (Addr key : keys) {
            CohLine &st = lines_.at(key);
            s.u64(key);
            s.u64(st.sharers);
            s.i32(st.owner);
        }
    }
    s.u64(invalidations_);
    s.u64(interventions_);
    s.u64(upgrades_);
}

template void Directory::io(snap::Writer &);
template void Directory::io(snap::Reader &);

} // namespace sst
