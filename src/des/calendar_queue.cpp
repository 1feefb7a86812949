#include "des/calendar_queue.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mflb {

namespace {

std::size_t next_pow2(std::size_t x) noexcept {
    std::size_t p = 1;
    while (p < x) {
        p <<= 1;
    }
    return p;
}

} // namespace

std::size_t CalendarQueue::checked_capacity(std::size_t capacity) {
    if (capacity == 0) {
        throw std::invalid_argument("CalendarQueue: capacity must be positive");
    }
    if (capacity >= static_cast<std::size_t>(kFree)) {
        throw std::invalid_argument("CalendarQueue: capacity exceeds the 32-bit slot range");
    }
    return capacity;
}

CalendarQueue::CalendarQueue(std::size_t capacity, double rate_hint)
    : nodes_(checked_capacity(capacity)) {
    // Day array: start small and grow at retune() against the high-water
    // mark, toward ~0.5 occupancy at the 2·capacity ceiling (the pending
    // set holds at most one event per slot). Floor of 64 buckets so the
    // occupancy bitmap is whole 64-bit words.
    const std::size_t want = std::max<std::size_t>(2 * capacity, 64);
    max_buckets_ = next_pow2(want);
    head_.assign(next_pow2(std::min<std::size_t>(want, 1024)), kNil);
    mask_ = head_.size() - 1;
    occ_.assign(head_.size() / 64, 0);
    width_ = std::isfinite(rate_hint) && rate_hint > 0.0 ? 1.0 / rate_hint : 1.0;
    width_ = std::clamp(width_, 1e-12, 1e12);
    inv_width_ = 1.0 / width_;
    scratch_.reserve(capacity);
}

std::int64_t CalendarQueue::vindex(double time) const noexcept {
    double q = std::floor(time * inv_width_);
    if (!(q >= -kMaxVirtual)) { // also catches NaN
        q = -kMaxVirtual;
    } else if (q > kMaxVirtual) {
        q = kMaxVirtual;
    }
    return static_cast<std::int64_t>(q);
}

void CalendarQueue::link(Idx id) noexcept {
    const double t = nodes_[id].time;
    const std::int64_t v = vindex(t);
    if (v < cur_v_) {
        cur_v_ = v;
    }
    const std::size_t b = static_cast<std::size_t>(v) & mask_;
    // Sorted insert keeps the bucket chain in (time, id) order — the whole
    // determinism contract; O(1) expected at ~1 event per bucket.
    Idx prev = kNil;
    Idx curr = head_[b];
    while (curr != kNil && before(nodes_[curr].time, curr, t, id)) {
        prev = curr;
        curr = nodes_[curr].next;
        ++steps_;
    }
    nodes_[id].next = curr;
    nodes_[id].prev = prev;
    if (curr != kNil) {
        nodes_[curr].prev = id;
    }
    if (prev != kNil) {
        nodes_[prev].next = id;
    } else {
        head_[b] = id;
        occ_[b >> 6] |= std::uint64_t{1} << (b & 63U);
    }
}

void CalendarQueue::unlink(Idx id) noexcept {
    const Idx p = nodes_[id].prev;
    const Idx n = nodes_[id].next;
    if (p != kNil) {
        nodes_[p].next = n;
    } else {
        // Head of its bucket: the bucket index is recomputed from the time
        // (stored nowhere — that is what keeps the node at 16 bytes).
        const std::size_t b = bucket_of(nodes_[id].time);
        head_[b] = n;
        if (n == kNil) {
            occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63U));
        }
    }
    if (n != kNil) {
        nodes_[n].prev = p;
    }
    nodes_[id].prev = kFree;
}

double CalendarQueue::time_of(std::size_t id) const {
    if (!contains(id)) {
        throw std::logic_error("CalendarQueue::time_of: slot has no pending event");
    }
    return nodes_[id].time;
}

void CalendarQueue::schedule(std::size_t id, double time) {
    if (id >= nodes_.size()) {
        throw std::invalid_argument("CalendarQueue::schedule: id out of range");
    }
    ++schedules_;
    if (nodes_[id].prev != kFree) {
        // Reschedule in place: relocate within/between buckets.
        unlink(static_cast<Idx>(id));
        nodes_[id].time = time;
        link(static_cast<Idx>(id));
        touch_min(id, time);
        return;
    }
    if (size_ == 0) {
        // Re-anchor the cursor: a stale lower bound from before the queue
        // drained would force a long scan toward the first event.
        cur_v_ = vindex(time);
    }
    nodes_[id].time = time;
    link(static_cast<Idx>(id));
    ++size_;
    if (size_ > hwm_) {
        hwm_ = size_;
    }
    touch_min(id, time);
}

bool CalendarQueue::cancel(std::size_t id) noexcept {
    if (!contains(id)) {
        return false;
    }
    unlink(static_cast<Idx>(id));
    --size_;
    if (min_valid_ && id == min_id_) {
        min_valid_ = false;
    }
    return true;
}

void CalendarQueue::ensure_min() const noexcept {
    if (min_valid_) {
        return;
    }
    // Year scan: visit virtual buckets in increasing order from the cursor.
    // Bucket chains are sorted, and all events of one virtual index share a
    // bucket, so the first head whose virtual index matches the probe IS the
    // global (time, id) minimum. The occupancy bitmap turns runs of empty
    // buckets into countr_zero skips; the probe counter still advances one
    // per virtual bucket, so retune() sees the same cost signal (and makes
    // the same width decisions) as a plain linear scan.
    const std::size_t n = head_.size();
    const std::size_t nwords = occ_.size();
    const std::size_t p0 = static_cast<std::size_t>(cur_v_) & mask_;
    std::size_t w = p0 >> 6;
    std::uint64_t bits = occ_[w] & (~std::uint64_t{0} << (p0 & 63U));
    // Word sequence: the start word's high part, the nwords-1 following
    // words (cyclically), then the start word's low part — one full lap.
    for (std::size_t lap_word = 0;;) {
        while (bits != 0) {
            const std::size_t p =
                (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
            const std::size_t k = (p + n - p0) & mask_; // offset within the lap
            const std::int64_t v = cur_v_ + static_cast<std::int64_t>(k);
            const Idx h = head_[p];
            if (vindex(nodes_[h].time) == v) {
                scans_ += k + 1;
                cur_v_ = v;
                min_id_ = h;
                min_time_ = nodes_[h].time;
                min_valid_ = true;
                min_anchored_ = true;
                return;
            }
            bits &= bits - 1; // occupied, but a later lap: keep scanning.
        }
        if (++lap_word > nwords) {
            break;
        }
        w = w + 1 == nwords ? 0 : w + 1;
        bits = occ_[w];
        if (lap_word == nwords) {
            // Back at the start word: only the bits below p0 are in the lap.
            bits &= (p0 & 63U) != 0 ? (std::uint64_t{1} << (p0 & 63U)) - 1 : 0;
        }
    }
    // Full-cycle miss: every pending event is at least one year
    // (nbuckets · width) ahead. Direct min-scan over the occupied bucket
    // heads (each head is its bucket's minimum), then re-anchor the cursor
    // there. Counter parity with the plain scan: a missed lap plus a direct
    // scan probe every bucket once each.
    scans_ += 2 * n;
    Idx best = kNil;
    for (std::size_t wi = 0; wi < nwords; ++wi) {
        std::uint64_t word = occ_[wi];
        while (word != 0) {
            const std::size_t p =
                (wi << 6) + static_cast<std::size_t>(std::countr_zero(word));
            word &= word - 1;
            const Idx h = head_[p];
            if (best == kNil || before(nodes_[h].time, h, nodes_[best].time, best)) {
                best = h;
            }
        }
    }
    min_id_ = best;
    min_time_ = nodes_[best].time;
    min_valid_ = true;
    min_anchored_ = true;
    cur_v_ = vindex(min_time_);
}

CalendarQueue::Event CalendarQueue::peek() const {
    if (empty()) {
        throw std::logic_error("CalendarQueue::peek: queue is empty");
    }
    ensure_min();
    return {min_time_, min_id_};
}

CalendarQueue::Event CalendarQueue::pop() {
    if (empty()) {
        throw std::logic_error("CalendarQueue::pop: queue is empty");
    }
    ensure_min();
    const Event top{min_time_, min_id_};
    // The popped event was the minimum, so its virtual index lower-bounds
    // every remaining event — the cursor never has to back up. When the min
    // came from a scan the cursor is already there.
    if (!min_anchored_) {
        cur_v_ = vindex(top.time);
    }
    // The minimum is always the head of its (sorted) bucket, and its bucket
    // is the cursor's: specialize the unlink.
    const Idx id = static_cast<Idx>(min_id_);
    const Idx n = nodes_[id].next;
    const std::size_t b = static_cast<std::size_t>(cur_v_) & mask_;
    head_[b] = n;
    if (n != kNil) {
        nodes_[n].prev = kNil;
    } else {
        occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63U));
    }
    nodes_[id].prev = kFree;
    --size_;
    min_valid_ = false;
    ++pops_;
    return top;
}

void CalendarQueue::pop_and_reschedule(std::size_t id, double time) {
    if (!contains(id)) {
        throw std::logic_error(
            "CalendarQueue::pop_and_reschedule: slot has no pending event");
    }
    ++pops_;
    ++schedules_;
    // Advance the cursor when the relocated event is the cached minimum —
    // the intended use: the just-peeked top. That case also skips the
    // generic unlink: the min is the head of the cursor's bucket.
    if (min_valid_ && id == min_id_) {
        if (!min_anchored_) {
            cur_v_ = vindex(min_time_);
        }
        const Idx n = nodes_[id].next;
        const std::size_t b = static_cast<std::size_t>(cur_v_) & mask_;
        head_[b] = n;
        if (n != kNil) {
            nodes_[n].prev = kNil;
        } else {
            occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63U));
        }
        nodes_[id].prev = kFree;
    } else {
        unlink(static_cast<Idx>(id));
    }
    nodes_[id].time = time;
    link(static_cast<Idx>(id));
    touch_min(id, time);
}

void CalendarQueue::clear() noexcept {
    for (Node& node : nodes_) {
        node.prev = kFree;
    }
    std::fill(head_.begin(), head_.end(), kNil);
    std::fill(occ_.begin(), occ_.end(), 0);
    size_ = 0;
    hwm_ = 0;
    cur_v_ = 0;
    min_valid_ = false;
}

void CalendarQueue::retune() {
    // Day-array growth against the pending-set high-water mark (lazy: only
    // here, never in the event loop), toward ≤ 0.5 occupancy.
    std::size_t target = head_.size();
    while (target < max_buckets_ && hwm_ > target / 2) {
        target *= 2;
    }
    // Width adaptation from the window's probe counters: many empty-bucket
    // probes per pop ⇒ buckets finer than the event spacing (double the
    // width); long in-bucket insert chains ⇒ buckets too coarse (halve it).
    // Powers of two only, clamped — self-correcting and deterministic.
    const std::uint64_t pops = pops_ - window_pops_;
    const std::uint64_t scans = scans_ - window_scans_;
    const std::uint64_t scheds = schedules_ - window_schedules_;
    const std::uint64_t steps = steps_ - window_steps_;
    double new_width = width_;
    if (pops >= 64 && scans > 4 * pops) {
        new_width = std::min(width_ * 2.0, 1e12);
    } else if (scheds >= 64 && steps > 4 * scheds) {
        new_width = std::max(width_ * 0.5, 1e-12);
    }
    if (target != head_.size() || new_width != width_) {
        rebuild(target, new_width);
    }
    hwm_ = size_;
    // Start the next decision window *after* the rebuild so relink steps
    // don't masquerade as insert-chain pressure.
    window_schedules_ = schedules_;
    window_pops_ = pops_;
    window_scans_ = scans_;
    window_steps_ = steps_;
}

void CalendarQueue::rebuild(std::size_t new_buckets, double new_width) {
    scratch_.clear();
    for (std::size_t b = 0; b < head_.size(); ++b) {
        for (Idx id = head_[b]; id != kNil; id = nodes_[id].next) {
            scratch_.push_back(id);
        }
    }
    if (new_buckets > head_.size()) {
        head_.resize(new_buckets); // the only post-construction allocations,
    }                              // together with the occ_ resize below.
    std::fill(head_.begin(), head_.end(), kNil);
    occ_.assign(head_.size() / 64, 0);
    mask_ = head_.size() - 1;
    width_ = new_width;
    inv_width_ = 1.0 / new_width;
    cur_v_ = std::numeric_limits<std::int64_t>::max();
    for (const Idx id : scratch_) {
        link(id); // lowers cur_v_ to the minimum pending virtual index.
    }
    if (scratch_.empty()) {
        cur_v_ = 0;
    }
    min_valid_ = false;
}

} // namespace mflb
