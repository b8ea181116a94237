// Seeded service-discipline violations: every raw growth primitive the
// bounded-queue invariant bans inside src/service/.
#include <deque>
#include <queue>
#include <thread>
#include <vector>

namespace biosens::service {

void fixture_unbounded_growth(std::vector<int>& jobs,
                              std::deque<int>& queue,
                              std::queue<int>& fifo) {
  jobs.push_back(1);  // SEED service-discipline
  jobs.emplace_back(2);  // SEED service-discipline
  queue.push_front(3);  // SEED service-discipline
  queue.emplace_front(4);  // SEED service-discipline
  fifo.push(5);  // SEED service-discipline
}

void fixture_detached_worker() {
  std::thread worker([] {});
  worker.detach();  // SEED service-discipline
}

}  // namespace biosens::service
