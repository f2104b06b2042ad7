/**
 * @file
 * Runtime switch for stall-cycle fast-forwarding.
 *
 * The run loops in Machine/Cmp skip stalled windows in bulk via
 * Core::nextWakeCycle()/advanceIdle(): the wake is read off the Blocked
 * record each tick leaves behind, and the skip replays exactly that
 * tick's stall accounting. The skip is designed to be invisible —
 * stats, traces and results byte-identical to the naive per-cycle loop
 * — and this switch exists to *prove* that claim:
 *
 *  - env var SSTSIM_NO_FASTFWD=1 disables skipping at runtime (any
 *    value other than empty/"0" counts);
 *  - setFastForward() overrides the env var (differential tests and
 *    `sstsim diff` flip it both ways in-process).
 */

#ifndef SSTSIM_SIM_FASTFWD_HH
#define SSTSIM_SIM_FASTFWD_HH

namespace sst
{

/** True when the run loops may skip stalled cycles in bulk. */
bool fastForwardEnabled();

/** Force fast-forwarding on/off for this process (overrides the env
 *  var). */
void setFastForward(bool on);

/** Drop any setFastForward() override; the env var rules again. */
void clearFastForwardOverride();

} // namespace sst

#endif // SSTSIM_SIM_FASTFWD_HH
