/**
 * @file
 * Banked main-memory model ("DRAM-lite").
 *
 * Captures the three first-order effects that matter to SST: a long base
 * latency, bank-level parallelism that bounds MLP, and row-buffer
 * locality. The model is analytic (no event queue): each access computes
 * its completion time from per-bank busy-until state and a shared
 * channel that serialises data transfers.
 */

#ifndef SSTSIM_MEM_DRAM_HH
#define SSTSIM_MEM_DRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "trace/trace.hh"

namespace sst
{

/** Timing/geometry parameters (all in core cycles). */
struct DramParams
{
    std::string name = "dram";
    unsigned banks = 16;
    unsigned rowBytes = 4096;
    /** Fixed controller + interconnect latency added to every access. */
    unsigned baseLatency = 240;
    unsigned tCas = 30;        ///< column access, row already open
    unsigned tRcdRp = 60;      ///< precharge + activate on a row miss
    unsigned channelCycles = 8; ///< channel occupancy per 64B transfer
};

/** The memory controller + devices. */
class Dram
{
  public:
    Dram(const DramParams &params, StatGroup &parentStats);

    const DramParams &params() const { return params_; }

    /**
     * Issue a line read/write beginning no earlier than @p now.
     * @return the cycle the data transfer completes.
     */
    Cycle access(Addr lineAddr, Cycle now, bool isWrite);

    /** Reset bank/channel state (not stats). */
    void drain();

    /** Emit a Fill event (level 3) per access into @p buf. */
    void setTrace(trace::TraceBuffer *buf) { traceBuf_ = buf; }

    template <class Io> void io(Io &s);

  private:
    struct Bank
    {
        Cycle busyUntil = 0;
        Addr openRow = invalidAddr;
    };

    DramParams params_;
    std::vector<Bank> banks_;
    Cycle channelFree_ = 0;

    StatGroup stats_;
    Scalar &reads_;
    Scalar &writes_;
    Scalar &rowHits_;
    Scalar &rowMisses_;
    Scalar &channelStallCycles_;
    Distribution &latency_;

    trace::TraceBuffer *traceBuf_ = nullptr;
};

} // namespace sst

#endif // SSTSIM_MEM_DRAM_HH
