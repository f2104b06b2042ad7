/**
 * @file
 * io() definitions for classes that live in the common library.
 *
 * The bodies live here (in sst_snap, which links sst_common) rather than
 * in stats.cc/rng.cc so that sst_common never references snap symbols —
 * keeping the static-library dependency graph acyclic.
 */

#include "common/rng.hh"
#include "common/stats.hh"
#include "snap/snap.hh"

namespace sst
{

template <class Io>
void
Rng::io(Io &s)
{
    for (std::uint64_t &word : state_)
        s.u64(word);
}

template <class Io>
void
Distribution::io(Io &s)
{
    s.expect(static_cast<std::uint32_t>(buckets_.size()),
             "distribution buckets");
    for (std::uint64_t &b : buckets_)
        s.u64(b);
    s.expect(width_, "distribution bucket width");
    s.u64(count_);
    s.u64(sum_);
    s.u64(overflow_);
    s.u64(maxSample_);
}

template <class Io>
void
StatGroup::io(Io &s)
{
    s.tag("statgroup");
    s.expect(name_, "stat group");
    s.expect(static_cast<std::uint32_t>(scalars_.size()), "scalar count");
    for (NamedScalar *sc : scalars_) {
        s.expect(sc->name, "stat");
        sc->stat.io(s);
    }
    s.expect(static_cast<std::uint32_t>(dists_.size()),
             "distribution count");
    for (NamedDist *d : dists_) {
        s.expect(d->name, "distribution");
        d->stat.io(s);
    }
    s.expect(static_cast<std::uint32_t>(children_.size()),
             "child group count");
    for (StatGroup *c : children_)
        c->io(s);
}

template void Rng::io(snap::Writer &);
template void Rng::io(snap::Reader &);
template void Distribution::io(snap::Writer &);
template void Distribution::io(snap::Reader &);
template void StatGroup::io(snap::Writer &);
template void StatGroup::io(snap::Reader &);

} // namespace sst
