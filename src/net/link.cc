#include "net/link.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"

namespace rv::net {

LinkDirection::LinkDirection(sim::Simulator& sim, BitsPerSec rate,
                             SimTime prop_delay, const QueueConfig& queue)
    : sim_(sim),
      rate_(rate),
      prop_delay_(prop_delay),
      queue_capacity_bytes_(queue.capacity_bytes),
      batch_enabled_(queue.batch) {
  RV_CHECK_GT(rate, 0.0);
  RV_CHECK_GE(prop_delay, 0);
  RV_CHECK_GT(queue.capacity_bytes, 0);
  if (queue.policy == QueuePolicy::kRed) {
    red_ = std::make_unique<RedState>(queue, queue.capacity_bytes);
  }
}

std::int64_t LinkDirection::queued_bytes() const {
  // Advance the drain cursor over batched packets whose transmission has
  // started by now — the moment the per-packet kernel would have popped
  // them from the queue.
  const SimTime now = sim_.now();
  while (drain_cursor_ < drain_start_.size() &&
         drain_start_[drain_cursor_] <= now) {
    drain_bytes_ -= drain_size_[drain_cursor_];
    ++drain_cursor_;
  }
  return queued_bytes_ + drain_bytes_;
}

void LinkDirection::send(PooledPacket packet) {
  RV_CHECK_GT(packet->size_bytes, 0);
  obs::count(obs::Counter::kPacketsEnqueued);
  if (fault_ != nullptr && fault_(*packet, sim_.now())) {
    ++stats_.packets_faulted;
    ++stats_.packets_dropped;
    obs::count(obs::Counter::kPacketsCorrupted);
    return;
  }
  if (busy_) {
    // RED drops probabilistically before the queue is full; drop-tail (and
    // RED's hard limit) drop on overflow. Occupancy counts batched
    // not-yet-started packets, so decisions match the per-packet kernel.
    const std::int64_t occupancy = queued_bytes();
    if (red_ != nullptr &&
        red_->should_drop(occupancy, packet->size_bytes)) {
      ++stats_.packets_dropped;
      obs::count(obs::Counter::kPacketsDropped);
      return;
    }
    if (occupancy + packet->size_bytes > queue_capacity_bytes_) {
      ++stats_.packets_dropped;
      obs::count(obs::Counter::kPacketsDropped);
      return;
    }
    queued_bytes_ += packet->size_bytes;
    queue_.push_back(std::move(packet));
    return;
  }
  // Jitter draws happen at each transmission start, so jittered links keep
  // the per-packet path (the draw times — and thus the RNG stream — must
  // not move).
  if (!batch_enabled_ || jitter_ != nullptr) {
    start_transmission(std::move(packet));
    return;
  }
  busy_ = true;
  drain_batch(std::move(packet));
}

void LinkDirection::drain_batch(PooledPacket first) {
  // Schedule the whole backlog analytically: packet i starts when packet
  // i-1 finishes serialising, and delivers prop_delay later. One delivery
  // event per packet (times strictly ordered by cumulative tx) plus a
  // single batch-end event replace the per-packet tx-done chain. `first`
  // is the packet that found the link idle; with it in flight the drain
  // entries cover only the queued remainder, whose starts lie in the
  // future.
  drain_start_.clear();
  drain_size_.clear();
  drain_cursor_ = 0;
  drain_bytes_ = 0;
  SimTime t = sim_.now();
  const auto transmit = [&](PooledPacket p, bool record) {
    const SimTime tx = transmission_time(p->size_bytes, rate_);
    stats_.busy_time += tx;
    ++stats_.packets_sent;
    stats_.bytes_sent += static_cast<std::uint64_t>(p->size_bytes);
    if (record) {
      drain_start_.push_back(t);
      drain_bytes_ += p->size_bytes;
      drain_size_.push_back(p->size_bytes);
    }
    const SimTime deliver_at = t + tx + prop_delay_;
    sim_.schedule_at(deliver_at, [this, p = std::move(p)]() mutable {
      if (deliver_) deliver_(std::move(p));
    });
    t += tx;
  };
  transmit(std::move(first), false);
  while (!queue_.empty()) {
    PooledPacket next = std::move(queue_.front());
    queue_.pop_front();
    queued_bytes_ -= next->size_bytes;
    transmit(std::move(next), true);
  }
  RV_CHECK_GE(queued_bytes_, 0);
  sim_.schedule_at(t, [this] { batch_done(); });
}

void LinkDirection::batch_done() {
  // Every drain entry has started by now; settle the lazy accounting.
  drain_start_.clear();
  drain_size_.clear();
  drain_cursor_ = 0;
  drain_bytes_ = 0;
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  // Arrivals queued during the batch: drain them as the next batch,
  // starting exactly when the per-packet kernel would have popped the
  // first of them.
  PooledPacket next = std::move(queue_.front());
  queue_.pop_front();
  queued_bytes_ -= next->size_bytes;
  RV_CHECK_GE(queued_bytes_, 0);
  drain_batch(std::move(next));
}

void LinkDirection::start_transmission(PooledPacket packet) {
  busy_ = true;
  const SimTime tx = transmission_time(packet->size_bytes, rate_);
  stats_.busy_time += tx;
  ++stats_.packets_sent;
  stats_.bytes_sent += static_cast<std::uint64_t>(packet->size_bytes);
  // Delivery happens tx + propagation later; the transmitter frees after tx.
  // The pool handle moves into the event's inline storage — no allocation,
  // no packet copy. The jitter draw comes first either way, so skipping a
  // delivery never shifts the hook's rng stream.
  const SimTime extra =
      jitter_ ? std::max<SimTime>(0, jitter_(sim_.now())) : 0;
  if (!packet->far_end_discards) {
    sim_.schedule_in(tx + prop_delay_ + extra,
                     [this, p = std::move(packet)]() mutable {
                       if (deliver_) deliver_(std::move(p));
                     });
  }
  sim_.schedule_in(tx, [this] { transmission_done(); });
}

void LinkDirection::transmission_done() {
  busy_ = false;
  if (queue_.empty()) return;
  PooledPacket next = std::move(queue_.front());
  queue_.pop_front();
  queued_bytes_ -= next->size_bytes;
  RV_CHECK_GE(queued_bytes_, 0);
  start_transmission(std::move(next));
}

LinkDirection& Link::direction_from(NodeId from) {
  RV_CHECK(from == a_ || from == b_);
  return from == a_ ? a_to_b_ : b_to_a_;
}

const LinkDirection& Link::direction_from(NodeId from) const {
  RV_CHECK(from == a_ || from == b_);
  return from == a_ ? a_to_b_ : b_to_a_;
}

NodeId Link::peer_of(NodeId n) const {
  RV_CHECK(n == a_ || n == b_);
  return n == a_ ? b_ : a_;
}

double Link::max_queue_fill() const {
  const auto fill = [](const LinkDirection& d) {
    const auto cap = d.queue_capacity_bytes();
    if (cap <= 0) return 0.0;
    return static_cast<double>(d.queued_bytes()) / static_cast<double>(cap);
  };
  return std::max(fill(a_to_b_), fill(b_to_a_));
}

std::uint64_t Link::total_dropped() const {
  return a_to_b_.stats().packets_dropped + b_to_a_.stats().packets_dropped;
}

}  // namespace rv::net
