#pragma once

// Intrusive lock-free multi-producer/single-consumer queue (Vyukov's
// stub-node design). Used as the Time Warp remote-event inbox: any PE may
// push, only the owning PE pops.
//
// Properties the engine relies on:
//  * wait-free push: one atomic exchange + one release store, no CAS loop,
//    no allocation — a node is linked in O(1) regardless of contention;
//  * per-producer FIFO: two pushes by the same thread are consumed in push
//    order (the positive-before-its-anti invariant of the inbox protocol);
//  * chain push: a producer can link a locally built list of nodes and
//    publish the whole batch with the same two operations as a single node
//    (the rollback send-batching path);
//  * pop never blocks: it returns nullptr both when empty and when the only
//    remaining nodes belong to a producer that has exchanged the tail but
//    not yet linked its predecessor ("mid-push"). Such nodes become visible
//    once the producer's release store lands; the consumer simply retries
//    on its next drain. After a synchronization point that orders all
//    producers before the consumer (a checkpoint or migration barrier), the
//    list is fully linked and pop observes every pushed node.
//
// Memory ordering: push publishes with a release store of prev->next; pop
// reads next with acquire. Everything a producer wrote to the node (and to
// the interior of a chain) before push therefore happens-before the
// consumer's use of it.

#include <atomic>
#include <cstddef>

namespace hp::util {

struct MpscNode {
  std::atomic<MpscNode*> mpsc_next{nullptr};
};

template <typename T>
class MpscQueue {
  static_assert(std::is_base_of_v<MpscNode, T>,
                "T must derive from util::MpscNode");

 public:
  MpscQueue() noexcept : tail_(&stub_), head_(&stub_) {}
  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  // Producer side. Safe from any thread.
  void push(T* node) noexcept { push_chain(node, node); }

  // Publish an already-linked chain first -> ... -> last (interior links via
  // relaxed stores to mpsc_next are fine; the release below publishes them).
  void push_chain(T* first, T* last) noexcept {
    push_chain_nodes_(first, last);
  }

  // Consumer side. Single thread only.
  //
  // Returns the oldest fully-linked node, or nullptr when the queue is
  // empty / only mid-push nodes remain. A returned node is exclusively
  // owned by the caller; its mpsc_next is dead storage.
  T* pop() noexcept {
    MpscNode* head = head_;
    MpscNode* next = head->mpsc_next.load(std::memory_order_acquire);
    if (head == &stub_) {
      if (next == nullptr) return nullptr;  // empty (or producer mid-push)
      head_ = next;
      head = next;
      next = head->mpsc_next.load(std::memory_order_acquire);
    }
    if (next != nullptr) {
      head_ = next;
      return static_cast<T*>(head);
    }
    // head is the last linked node. If tail_ has moved past it, a producer
    // is mid-push right behind head: returning head now would lose the
    // pending suffix, so report "nothing yet" and let the consumer retry.
    if (tail_.load(std::memory_order_acquire) != head) return nullptr;
    push_chain_nodes_(&stub_, &stub_);  // recycle the stub behind head
    next = head->mpsc_next.load(std::memory_order_acquire);
    if (next != nullptr) {
      head_ = next;
      return static_cast<T*>(head);
    }
    return nullptr;  // raced with a push between the exchanges; retry later
  }

  // Consumer-side emptiness hint for the hot loop (single consumer thread
  // only — reads the consumer cursor head_). May transiently report "empty"
  // while a push is in flight, but must eventually report "non-empty" for
  // any queue holding fully-linked nodes once producers are quiescent.
  //
  // Checking tail_ alone is NOT enough: pop()'s stub-recycle can race with a
  // concurrent push (producer exchanges tail_ after the consumer's
  // tail_ == head check, link store delayed), after which the consumer's own
  // stub exchange leaves tail_ == &stub_ while head_ still points at
  // unconsumed nodes. In that state head_ != &stub_, so the head_ check
  // below keeps the hint "non-empty" and the drain retries until the
  // producer's link lands.
  bool empty_hint() const noexcept {
    return head_ == &stub_ && tail_.load(std::memory_order_acquire) == &stub_;
  }

 private:
  void push_chain_nodes_(MpscNode* first, MpscNode* last) noexcept {
    last->mpsc_next.store(nullptr, std::memory_order_relaxed);
    MpscNode* prev = tail_.exchange(last, std::memory_order_acq_rel);
    prev->mpsc_next.store(first, std::memory_order_release);
  }

  alignas(64) std::atomic<MpscNode*> tail_;  // producers exchange here
  alignas(64) MpscNode* head_;               // consumer cursor
  MpscNode stub_;
};

}  // namespace hp::util
