// Discrete-event core: a virtual clock plus a min-heap of task completions.
//
// Completions are the sim backend's only events, so they are plain records
// rather than callbacks: once the heap has grown to the peak number in
// flight, a push allocates nothing. Ties are broken by insertion order so
// that simulations are deterministic regardless of the heap's layout.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace versa::sim {

struct Completion {
  Time when = 0.0;
  std::uint64_t seq = 0;  ///< insertion order, assigned by push
  TaskId task = kInvalidTask;
  WorkerId worker = kInvalidWorker;
  Time start = 0.0;
  bool occupy = true;  ///< the attempt holds its worker busy
  bool fails = false;  ///< the attempt fails (failure injection)
};

class CompletionQueue {
 public:
  /// Schedule `c` at `c.when`, which must not precede the clock.
  void push(Completion c) {
    VERSA_CHECK_MSG(c.when >= now_, "completion scheduled in the past");
    c.seq = next_seq_++;
    heap_.push_back(c);
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  /// Move the earliest completion into `out` and advance the clock to it.
  /// False when the queue is empty.
  bool pop(Completion& out) {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    out = heap_.back();
    heap_.pop_back();
    now_ = out.when;
    return true;
  }

  Time now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

 private:
  static bool later(const Completion& a, const Completion& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }

  std::vector<Completion> heap_;
  std::uint64_t next_seq_ = 1;
  Time now_ = 0.0;
};

}  // namespace versa::sim
