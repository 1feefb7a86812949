/// \file event_queue.hpp
/// Future event list (FEL) of the discrete-event simulation engine: an
/// *indexed* binary min-heap of (time, slot id) pairs. Indexing by a dense
/// slot id — one slot per schedulable event source, e.g. one per queue's
/// departure — gives O(log n) scheduling, popping and rescheduling of a
/// pending slot.
///
/// Memory: the id -> heap-position index costs 4 B resident per slot; the
/// heap array is reserved for every slot up front but only touched up to the
/// pending high-water mark (16 B per pending event). After construction no
/// operation allocates, per the workspace invariants in docs/ARCHITECTURE.md.
///
/// Determinism: ties are broken by slot id, so the event order — and hence
/// every downstream RNG draw — is reproducible across platforms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mflb {

/// Indexed binary min-heap keyed by event time; one entry per slot id.
class EventQueue {
public:
    struct Event {
        double time = 0.0;
        std::size_t id = 0;
    };

    /// \param capacity number of event slots (valid ids are 0..capacity-1);
    /// must be positive and below 2^32 - 1 (positions are 32-bit).
    explicit EventQueue(std::size_t capacity);

    std::size_t capacity() const noexcept { return pos_.size(); }
    std::size_t size() const noexcept { return heap_.size(); }
    bool empty() const noexcept { return heap_.empty(); }

    /// Schedules the *absent* slot `id` at `time`. Throws
    /// std::invalid_argument on an out-of-range id and std::logic_error if
    /// the slot already has a pending event (move it with
    /// `pop_and_reschedule`).
    void schedule(std::size_t id, double time);

    /// Reschedules the *pending* slot `id` at `time` — the pop-then-schedule
    /// pattern of a queue that stays busy after a departure, collapsed into
    /// a single sift. When `id` is at the root (the common case: it was just
    /// peeked as the minimum) this is one sift-down from the root instead of
    /// a removal plus a fresh insert. Throws std::logic_error if the slot
    /// has no pending event.
    void pop_and_reschedule(std::size_t id, double time);

    /// Earliest pending event; throws std::logic_error when empty.
    Event peek() const;
    /// Removes and returns the earliest pending event.
    Event pop();

    /// Drops every pending event (capacity is unchanged).
    void clear() noexcept;

private:
    static constexpr std::uint32_t kAbsent = UINT32_MAX;

    /// (time, id) lexicographic order: deterministic across tie-breaks.
    static bool before(const Event& a, const Event& b) noexcept {
        return a.time < b.time || (a.time == b.time && a.id < b.id);
    }

    bool pending(std::size_t id) const noexcept {
        return id < pos_.size() && pos_[id] != kAbsent;
    }
    void sift_up(std::size_t i) noexcept;
    void sift_down(std::size_t i) noexcept;

    std::vector<Event> heap_;        ///< the heap; capacity reserved up front.
    std::vector<std::uint32_t> pos_; ///< id -> heap index (kAbsent if none).
};

} // namespace mflb
