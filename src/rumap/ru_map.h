#ifndef MDES_RUMAP_RU_MAP_H
#define MDES_RUMAP_RU_MAP_H

/**
 * @file
 * The resource usage map (RU map).
 *
 * One machine word per cycle tracks which resource instances are already
 * reserved, so multiple resource usages can be checked (reserved) with a
 * single AND (OR) operation - the bit-vector design of Section 6. The map
 * grows on demand in both directions because usage times relative to an
 * operation's issue cycle may be negative (decode stages) before the
 * usage-time transformation runs.
 *
 * A map constructed with an initiation interval II operates *modulo II*
 * (a modulo reservation table): cycle c maps to slot c mod II. This is
 * the form iterative modulo scheduling uses, together with release() -
 * the "unscheduling is straightforward with reservation tables" property
 * the paper contrasts against finite-state-automata approaches.
 */

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mdes::rumap {

/**
 * Per-slot bit-vector of reserved resource instances. Machines with up
 * to 64 instances use one slot per cycle; wider machines use
 * LowMdes::slotWords() consecutive slots per cycle (the constraint
 * checker does the cycle -> slot arithmetic).
 */
class RuMap
{
  public:
    /** A linear (acyclic-schedule) map. */
    RuMap() = default;

    /**
     * A modulo reservation table wrapping every @p ii slots. Callers
     * with multi-word machines pass initiation-interval x slotWords()
     * so whole cycles wrap together.
     */
    explicit RuMap(int32_t ii) : ii_(ii)
    {
        if (ii > 0)
            words_.assign(size_t(ii), 0);
    }

    /** The wrap length in slots; 0 for a linear map. */
    int32_t initiationInterval() const { return ii_; }

    /** The slot @p cycle maps to (identity for linear maps). */
    int32_t
    normalize(int32_t cycle) const
    {
        if (ii_ == 0)
            return cycle;
        int32_t m = cycle % ii_;
        return m < 0 ? m + ii_ : m;
    }

    // ---- Slot-addressed raw accessors -------------------------------
    //
    // `slot` must already be map-normalized (slot == normalize(slot)).
    // The constraint checker normalizes an attempt's issue cycle exactly
    // once and then addresses the map through these, so a probe never
    // pays the Euclidean modulo twice (the pre-rebuild checker
    // normalized in tryReserve *and* again inside available/reserve).

    /** True if none of the resources in @p mask are reserved at
     * normalized @p slot. Slots outside a linear map's window are
     * free. */
    bool
    availableSlot(int32_t slot, uint64_t mask) const
    {
        assert(slot == normalize(slot));
        size_t idx = size_t(slot - base_);
        if (slot < base_ || idx >= words_.size())
            return true;
        return (words_[idx] & mask) == 0;
    }

    /** Reserve the resources in @p mask at normalized @p slot. */
    void
    reserveSlot(int32_t slot, uint64_t mask)
    {
        assert(slot == normalize(slot));
        size_t idx = size_t(slot - base_);
        if (slot < base_ || idx >= words_.size()) {
            ensure(slot); // out of line: only when the window grows
            idx = size_t(slot - base_);
        }
        words_[idx] |= mask;
    }

    /** Release previously reserved resources at normalized @p slot. */
    void
    releaseSlot(int32_t slot, uint64_t mask)
    {
        assert(slot == normalize(slot));
        size_t idx = size_t(slot - base_);
        if (slot >= base_ && idx < words_.size())
            words_[idx] &= ~mask;
    }

    /** The reserved-resource word at normalized @p slot (0 outside the
     * window). */
    uint64_t
    wordSlot(int32_t slot) const
    {
        assert(slot == normalize(slot));
        size_t idx = size_t(slot - base_);
        if (slot < base_ || idx >= words_.size())
            return 0;
        return words_[idx];
    }

    // ---- Window introspection (checker fast path) -------------------

    /** First allocated slot. */
    int32_t windowBase() const { return base_; }
    /** Allocated slots starting at windowBase(). */
    size_t windowSize() const { return words_.size(); }
    /** The allocated words (windowSize() entries). */
    const uint64_t *windowData() const { return words_.data(); }

    // ---- Cycle-addressed convenience API ----------------------------

    /** True if none of the resources in @p mask are reserved at
     * @p cycle. Cycles outside a linear map's window are free. */
    bool
    available(int32_t cycle, uint64_t mask) const
    {
        return availableSlot(normalize(cycle), mask);
    }

    /** Reserve the resources in @p mask at @p cycle. */
    void
    reserve(int32_t cycle, uint64_t mask)
    {
        reserveSlot(normalize(cycle), mask);
    }

    /** Release previously reserved resources (modulo unscheduling). */
    void
    release(int32_t cycle, uint64_t mask)
    {
        releaseSlot(normalize(cycle), mask);
    }

    /** The reserved-resource word at @p cycle (0 outside the window). */
    uint64_t
    word(int32_t cycle) const
    {
        return wordSlot(normalize(cycle));
    }

    /** Forget all reservations (start a new scheduling region). */
    void
    clear()
    {
        if (ii_ > 0) {
            words_.assign(size_t(ii_), 0);
        } else {
            words_.clear();
        }
        base_ = 0;
    }

  private:
    void ensure(int32_t cycle);

    std::vector<uint64_t> words_;
    int32_t base_ = 0;
    int32_t ii_ = 0;
};

} // namespace mdes::rumap

#endif // MDES_RUMAP_RU_MAP_H
