/**
 * @file
 * Per-core write-buffering view over the shared functional image, for
 * the deterministic parallel CMP engine.
 *
 * Inside one sync quantum the shared base image is frozen: every core
 * reads its own buffered writes first and the (immutable) base bytes
 * otherwise, so plain loads and stores never need cross-thread
 * ordering at all. The buffered writes are logged with their cycle
 * stamp; at the quantum barrier the engine merges all cores' logs in
 * (cycle, coreId) order and replays them into the base image on one
 * thread, which is also when the base's write observer (coherence
 * squash fabric) sees them. Cross-core visibility of a store is thus
 * deferred to the next barrier — bounded by the quantum, which the
 * engine sizes to the minimum coherence latency — identically at every
 * worker count, including one.
 *
 * Atomics cannot be buffered privately (a spinlock's mutual exclusion
 * is functional, not timing): atomicSwap serializes through the shared
 * AtomicJournal under the TickGate, so two cores swapping the same
 * word within a quantum still observe each other in deterministic
 * (cycle, coreId) order.
 *
 * An elided critical section never writes its lock word, so while its
 * stores stay buffered the word still reads free. The commit of one
 * that stored goes through the gate too (commitElided): it aborts when
 * another core's atomic or elided commit touched the word this
 * quantum, and otherwise the word reads as held to other cores'
 * atomicSwap until the barrier publishes the stores. A read-only
 * section read only quantum-start state and orders before them.
 */

#ifndef SSTSIM_FUNC_OVERLAY_HH
#define SSTSIM_FUNC_OVERLAY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/tickgate.hh"
#include "common/types.hh"
#include "func/memory_image.hh"

namespace sst
{

/**
 * State shared by all overlay views of one CMP: the gate that orders
 * cross-core operations and the byte-granular journal atomics go
 * through. The journal is only ever touched inside gated sections
 * (mutually exclusive) or the serial barrier phase.
 */
struct OverlayShared
{
    /** Null outside a parallel run; atomics then serialize trivially. */
    const TickGate *gate = nullptr;
    /** Bytes written by atomics this quantum (cleared at each drain). */
    std::unordered_map<Addr, std::uint8_t> journal;
    /** Lock word -> core, of elided commits this quantum (cleared at
     *  each drain). */
    std::unordered_map<Addr, unsigned> elided;
};

/**
 * One core's buffered view. Created once per core by the coherent Cmp
 * and handed to the core as its MemoryImage; the base image stays
 * owned by the Cmp. Views are always drained (empty) at barriers, so
 * snapshots never see them.
 */
class OverlayImage final : public MemoryImage
{
  public:
    /** One buffered write, in program order within the core. */
    struct WriteRec
    {
        Cycle cycle;
        Addr addr;
        std::uint64_t value;
        std::uint8_t size;
        /** An atomicSwap's store half (already published through the
         *  journal in gate order) rather than a plain buffered store. */
        bool atomic = false;
    };

    OverlayImage(MemoryImage &base, unsigned coreId,
                 OverlayShared &shared)
        : base_(base), shared_(shared), coreId_(coreId)
    {
    }

    /** Stamp for subsequent writes; the engine calls this before every
     *  tick of the owning core. */
    void beginTick(Cycle now) { now_ = now; }

    std::uint64_t read(Addr addr, unsigned size) const override;
    std::uint8_t readByte(Addr addr) const override;
    void write(Addr addr, std::uint64_t value, unsigned size) override;
    void writeByte(Addr addr, std::uint8_t value) override;
    std::uint64_t atomicSwap(Addr addr, std::uint64_t value,
                             unsigned size) override;
    bool commitElided(Addr lock) override;

    /** This quantum's buffered writes, in program order. */
    const std::vector<WriteRec> &log() const { return log_; }

    /** The program-order-last buffered write covering byte @p addr
     *  this quantum, if any. Drives the plain-store "sink" rule: a
     *  core's plain store is invisible to other cores' atomics until
     *  the barrier, so in the quantum's serialization it slides as
     *  late as possible — just before its core's next atomic to that
     *  byte, or to the barrier itself if no such atomic follows. */
    struct LastWrite
    {
        bool found = false;
        bool atomic = false;
        Cycle cycle = 0;
        std::uint8_t byte = 0;
    };
    LastWrite lastWriteTo(Addr addr) const
    {
        for (auto it = log_.rbegin(); it != log_.rend(); ++it)
            if (addr >= it->addr && addr < it->addr + it->size)
                return {true, it->atomic, it->cycle,
                        static_cast<std::uint8_t>(
                            it->value >> (8 * (addr - it->addr)))};
        return {};
    }

    /** Forget all buffered state (after the log was replayed into the
     *  base). O(1): pages are recycled by epoch, not freed. */
    void clearQuantum()
    {
        ++epoch_;
        log_.clear();
    }

  private:
    /** A buffered page: data plus a present-bitmap (bit per byte).
     *  epoch tags lazily recycle pages across quanta without a sweep. */
    struct VPage
    {
        std::uint64_t epoch = 0;
        std::array<std::uint64_t, pageSize / 64> present{};
        std::array<std::uint8_t, pageSize> data{};
    };

    /** Inside the gate: the bytes an atomic reads at @p addr. */
    std::uint64_t gatedRead(Addr addr, unsigned size) const;
    /** Inside the gate: another core's elided commit holds @p addr. */
    bool elidedByOther(Addr addr) const;

    VPage *findVPage(Addr addr) const;
    VPage &touchVPage(Addr addr);
    void bufferByte(Addr addr, std::uint8_t value);
    std::uint8_t viewByte(Addr addr) const;

    MemoryImage &base_;
    OverlayShared &shared_;
    const unsigned coreId_;
    Cycle now_ = 0;
    std::uint64_t epoch_ = 1;
    std::vector<WriteRec> log_;
    std::unordered_map<Addr, std::unique_ptr<VPage>> vpages_;
    /** One-entry page cache (map nodes are pointer-stable). */
    mutable VPage *cachedPage_ = nullptr;
    mutable Addr cachedKey_ = ~Addr{0};
};

} // namespace sst

#endif // SSTSIM_FUNC_OVERLAY_HH
