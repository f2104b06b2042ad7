#include "sim/fastfwd.hh"

#include <atomic>
#include <cstdlib>

namespace sst
{

namespace
{

/** -1 = follow the environment, 0 = forced off, 1 = forced on. */
std::atomic<int> gForce{-1};

bool
envDisabled()
{
    // Magic static: the env var is read once, thread-safely, on first
    // use (sweep workers may race to the first run).
    static const bool disabled = [] {
        const char *v = std::getenv("SSTSIM_NO_FASTFWD");
        return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
    }();
    return disabled;
}

} // namespace

bool
fastForwardEnabled()
{
    int f = gForce.load(std::memory_order_relaxed);
    if (f >= 0)
        return f != 0;
    return !envDisabled();
}

void
setFastForward(bool on)
{
    gForce.store(on ? 1 : 0, std::memory_order_relaxed);
}

void
clearFastForwardOverride()
{
    gForce.store(-1, std::memory_order_relaxed);
}

} // namespace sst
