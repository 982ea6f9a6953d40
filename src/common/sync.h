// Thread lifetimes for the simulator's one concurrency primitive.
//
// Every page table is single-writer: Insert*/Remove*/ProtectRange/UpsertWord
// run on one thread.  The only concurrency contract is the paper's Section
// 3.1 claim — concurrent Lookup/Peek plus atomic R/M-bit updates
// (UpdateAttrFlags) on a table whose structure is frozen — and it lives in
// AtomicMappingWord (common/pte.h), not in any lock.  Parallel experiment
// drivers give each worker its own Machine, so no table ever has two
// writers.  See DESIGN.md "Concurrency contract".
//
// tools/cpt_lint.py's `raw-sync-primitive` rule keeps bare std::mutex /
// std::thread / pthread out of the tree; this header is the one sanctioned
// home for std::thread.
#ifndef CPT_COMMON_SYNC_H_
#define CPT_COMMON_SYNC_H_

#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

namespace cpt {

// A join-on-destruction worker group, so thread lifetimes are scoped to an
// object and detached threads cannot exist.  Threads are joined in spawn
// order.
class ThreadGroup {
 public:
  ThreadGroup() = default;
  ~ThreadGroup() { JoinAll(); }
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;

  template <class Fn, class... Args>
  void Spawn(Fn&& fn, Args&&... args) {
    threads_.emplace_back(std::forward<Fn>(fn), std::forward<Args>(args)...);
  }

  std::size_t size() const { return threads_.size(); }

  void JoinAll() {
    for (std::thread& t : threads_) {
      if (t.joinable()) {
        t.join();
      }
    }
    threads_.clear();
  }

 private:
  std::vector<std::thread> threads_;
};

}  // namespace cpt

#endif  // CPT_COMMON_SYNC_H_
