#include "des/event_queue.hpp"

#include <stdexcept>

namespace mflb {

namespace {

/// Validates the capacity before any buffer exists: positions are stored as
/// uint32 with UINT32_MAX reserved for "absent".
std::size_t checked_capacity(std::size_t capacity) {
    if (capacity == 0) {
        throw std::invalid_argument("EventQueue: capacity must be positive");
    }
    if (capacity >= std::size_t{UINT32_MAX}) {
        throw std::invalid_argument("EventQueue: capacity must be below 2^32 - 1");
    }
    return capacity;
}

} // namespace

EventQueue::EventQueue(std::size_t capacity) : pos_(checked_capacity(capacity), kAbsent) {
    heap_.reserve(capacity);
}

void EventQueue::schedule(std::size_t id, double time) {
    if (id >= pos_.size()) {
        throw std::invalid_argument("EventQueue::schedule: id out of range");
    }
    if (pos_[id] != kAbsent) {
        throw std::logic_error("EventQueue::schedule: slot already has a pending event");
    }
    const std::size_t last = heap_.size();
    heap_.push_back({time, id}); // within the reserved capacity: no allocation.
    pos_[id] = static_cast<std::uint32_t>(last);
    sift_up(last);
}

void EventQueue::pop_and_reschedule(std::size_t id, double time) {
    if (!pending(id)) {
        throw std::logic_error(
            "EventQueue::pop_and_reschedule: slot has no pending event");
    }
    const std::size_t i = pos_[id];
    heap_[i].time = time;
    sift_up(i); // no-op at the root (the intended call site).
    sift_down(pos_[id]);
}

EventQueue::Event EventQueue::peek() const {
    if (empty()) {
        throw std::logic_error("EventQueue::peek: queue is empty");
    }
    return heap_[0];
}

EventQueue::Event EventQueue::pop() {
    if (empty()) {
        throw std::logic_error("EventQueue::pop: queue is empty");
    }
    const Event top = heap_[0];
    pos_[top.id] = kAbsent;
    const Event last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        pos_[last.id] = 0;
        sift_down(0);
    }
    return top;
}

void EventQueue::clear() noexcept {
    for (const Event& event : heap_) {
        pos_[event.id] = kAbsent;
    }
    heap_.clear();
}

void EventQueue::sift_up(std::size_t i) noexcept {
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!before(heap_[i], heap_[parent])) {
            break;
        }
        std::swap(heap_[i], heap_[parent]);
        pos_[heap_[i].id] = static_cast<std::uint32_t>(i);
        pos_[heap_[parent].id] = static_cast<std::uint32_t>(parent);
        i = parent;
    }
}

void EventQueue::sift_down(std::size_t i) noexcept {
    const std::size_t size = heap_.size();
    while (true) {
        const std::size_t left = 2 * i + 1;
        if (left >= size) {
            return;
        }
        std::size_t smallest = left;
        const std::size_t right = left + 1;
        if (right < size && before(heap_[right], heap_[left])) {
            smallest = right;
        }
        if (!before(heap_[smallest], heap_[i])) {
            return;
        }
        std::swap(heap_[i], heap_[smallest]);
        pos_[heap_[i].id] = static_cast<std::uint32_t>(i);
        pos_[heap_[smallest].id] = static_cast<std::uint32_t>(smallest);
        i = smallest;
    }
}

} // namespace mflb
