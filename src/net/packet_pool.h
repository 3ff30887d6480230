// Per-Network packet recycling.
//
// A forwarded packet changes hands several times (source node, link queue,
// delivery event, destination node); constructing a fresh Packet at each
// injection and destroying it at delivery keeps the allocator on the hottest
// path. The pool hands out stable Packet slots on a free list: Network::send
// (or Network::inject) moves the caller's packet into a slot, the slot's
// handle then moves through the forwarding pipeline (link queues, delivery
// closures), and delivery moves the payload out and returns the slot (cross
// traffic its link discards returns it at transmission start). Steady-state
// forwarding therefore allocates nothing — with SmallVec-inline header
// fields, a recycled Packet touches no heap at all.
//
// The slot store is a shared core kept alive by outstanding handles, so a
// Network (and its pool) may be destroyed while undelivered packets still
// sit in simulator events — the core outlives the last handle. Handles move
// without touching the refcount; only acquire/final-release pay one atomic.
//
// Slot recycling order depends only on the (deterministic) event order, and
// no simulation result ever reads a Packet's address, so pooling cannot
// perturb study output.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.h"

namespace rv::net {

namespace internal {
struct PacketPoolCore {
  std::vector<std::unique_ptr<Packet>> storage;  // stable addresses
  std::vector<Packet*> free_list;

  void release(Packet* p) {
    *p = Packet{};  // drop payload-metadata refs promptly
    free_list.push_back(p);
  }
};
}  // namespace internal

// Move-only owning handle to a pool slot; returns the slot on destruction.
class PooledPacket {
 public:
  PooledPacket() noexcept = default;
  PooledPacket(PooledPacket&& other) noexcept
      : packet_(std::exchange(other.packet_, nullptr)),
        core_(std::move(other.core_)) {}
  PooledPacket& operator=(PooledPacket&& other) noexcept {
    if (this != &other) {
      release();
      packet_ = other.packet_;
      core_ = std::move(other.core_);
      other.packet_ = nullptr;
    }
    return *this;
  }
  PooledPacket(const PooledPacket&) = delete;
  PooledPacket& operator=(const PooledPacket&) = delete;
  ~PooledPacket() { release(); }

  Packet& operator*() const noexcept { return *packet_; }
  Packet* operator->() const noexcept { return packet_; }
  explicit operator bool() const noexcept { return packet_ != nullptr; }

 private:
  friend class PacketPool;
  PooledPacket(Packet* packet,
               std::shared_ptr<internal::PacketPoolCore> core) noexcept
      : packet_(packet), core_(std::move(core)) {}

  void release() noexcept {
    if (packet_ != nullptr) {
      core_->release(packet_);
      packet_ = nullptr;
      core_.reset();
    }
  }

  Packet* packet_ = nullptr;
  std::shared_ptr<internal::PacketPoolCore> core_;
};

class PacketPool {
 public:
  PacketPool() : core_(std::make_shared<internal::PacketPoolCore>()) {}
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // Moves `init` into a recycled (or newly allocated) slot.
  PooledPacket acquire(Packet&& init) {
    Packet* p;
    if (!core_->free_list.empty()) {
      p = core_->free_list.back();
      core_->free_list.pop_back();
    } else {
      core_->storage.push_back(std::make_unique<Packet>());
      p = core_->storage.back().get();
    }
    *p = std::move(init);
    return PooledPacket(p, core_);
  }

  // Pool growth is bounded by the peak number of in-flight packets.
  std::size_t allocated() const { return core_->storage.size(); }
  std::size_t available() const { return core_->free_list.size(); }

 private:
  std::shared_ptr<internal::PacketPoolCore> core_;
};

}  // namespace rv::net
