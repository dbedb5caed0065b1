// FIFO page lists used for promotion/demotion queues.
//
// Entries are PageRefs; consumers must revalidate against the current page
// generation when popping, since pages can be freed or split while queued.

#ifndef MEMTIS_SIM_SRC_MEM_PAGE_LIST_H_
#define MEMTIS_SIM_SRC_MEM_PAGE_LIST_H_

#include <deque>

#include "src/mem/types.h"
#include "src/snapshot/state_codec.h"

namespace memtis {

class PageList {
 public:
  void Push(PageRef ref) { queue_.push_back(ref); }

  bool empty() const { return queue_.empty(); }
  size_t size() const { return queue_.size(); }

  PageRef Pop() {
    PageRef front = queue_.front();
    queue_.pop_front();
    return front;
  }

  void Clear() { queue_.clear(); }

  // Checkpointing: queue order is consumption order, so the deque is
  // serialized front to back.
  void VisitState(StateCodec& c) { c.Array("queue", queue_); }

 private:
  std::deque<PageRef> queue_;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_MEM_PAGE_LIST_H_
