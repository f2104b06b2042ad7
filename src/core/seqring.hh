/**
 * @file
 * Map from instruction sequence numbers to values, as a ring.
 *
 * The SST behind strand publishes one result per replayed producer and
 * looks results up by the producer's sequence number on every operand
 * it resolves. Live sequence numbers sit in a window a little wider
 * than the deferred queue, so a direct-mapped array indexed by
 * seq & mask answers a lookup with one probe and no hashing. The ring
 * never guesses: a sequence number whose slot another live one holds
 * doubles the ring until every live number has its own slot.
 */

#ifndef SSTSIM_CORE_SEQRING_HH
#define SSTSIM_CORE_SEQRING_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <vector>

#include "common/types.hh"

namespace sst
{

/** Sequence number -> T, exact, with one-probe lookups. */
template <class T> class SeqRing
{
  public:
    /** Start with @p slots slots (rounded up to a power of two). */
    explicit SeqRing(std::size_t slots)
        : slots_(std::bit_ceil(std::max<std::size_t>(slots, 16))),
          mask_(slots_.size() - 1)
    {
    }

    const T *find(SeqNum seq) const
    {
        const Slot &slot = slots_[seq & mask_];
        return slot.seq == seq ? &slot.value : nullptr;
    }

    /** Insert or overwrite the value of @p seq (any but ~0). */
    void set(SeqNum seq, const T &value)
    {
        Slot *slot = &slots_[seq & mask_];
        if (slot->seq != seq) {
            if (slot->seq != kNoSeq) [[unlikely]] {
                grow(seq);
                slot = &slots_[seq & mask_];
            }
            slot->seq = seq;
            keys_.push_back(seq);
        }
        slot->value = value;
    }

    void clear()
    {
        for (SeqNum seq : keys_)
            slots_[seq & mask_].seq = kNoSeq;
        keys_.clear();
    }

    /** Drop every sequence number for which @p dead returns true. */
    template <class Pred> void eraseIf(Pred dead)
    {
        std::erase_if(keys_, [&](SeqNum seq) {
            if (!dead(seq))
                return false;
            slots_[seq & mask_].seq = kNoSeq;
            return true;
        });
    }

    bool empty() const { return keys_.empty(); }
    std::size_t size() const { return keys_.size(); }
    std::size_t slots() const { return slots_.size(); }
    /** Live sequence numbers, in insertion order. */
    const std::vector<SeqNum> &keys() const { return keys_; }

    /** True when the occupied slots are exactly keys(), each in the
     *  slot its number maps to (tests). */
    bool consistent() const
    {
        std::size_t used = 0;
        for (const Slot &slot : slots_)
            used += slot.seq != kNoSeq;
        if (used != keys_.size())
            return false;
        for (SeqNum seq : keys_)
            if (slots_[seq & mask_].seq != seq)
                return false;
        return true;
    }

  private:
    /** Empty-slot marker; sequence numbers never reach it. */
    static constexpr SeqNum kNoSeq = ~SeqNum{0};

    struct Slot
    {
        SeqNum seq = kNoSeq;
        T value{};
    };

    /** Double until every live number and @p incoming own a slot. */
    void grow(SeqNum incoming)
    {
        std::size_t n = slots_.size();
        for (;;) {
            n *= 2;
            std::vector<Slot> next(n);
            bool fits = next.size() > keys_.size();
            for (std::size_t i = 0; fits && i < keys_.size(); ++i) {
                SeqNum seq = keys_[i];
                Slot &to = next[seq & (n - 1)];
                if (to.seq != kNoSeq)
                    fits = false;
                else
                    to = slots_[seq & mask_];
            }
            if (fits && next[incoming & (n - 1)].seq == kNoSeq) {
                slots_.swap(next);
                mask_ = n - 1;
                return;
            }
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_;
    std::vector<SeqNum> keys_;
};

} // namespace sst

#endif // SSTSIM_CORE_SEQRING_HH
