#include "sched/team.h"

#include "obs/trace.h"

#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace sani::sched {

void run_workers(int n, const std::function<void(int worker)>& fn) {
  std::mutex error_mu;
  std::exception_ptr error;  // the first exception, guarded by error_mu
  auto record = [&](std::exception_ptr e) {
    std::lock_guard<std::mutex> lk(error_mu);
    if (!error) error = e;
  };
  auto run = [&](int worker) {
    // The trace tid of this OS thread maps to "worker <id>": the tracer
    // assigns tids per thread, the label ties them to worker ids.
    obs::Tracer::instance().label_thread("worker", worker);
    try {
      fn(worker);
    } catch (...) {
      record(std::current_exception());
    }
  };

  std::vector<std::thread> threads;
  try {
    for (int w = 1; w < n; ++w) threads.emplace_back(run, w);
  } catch (...) {
    // Cannot spawn: the workers already running still have to be joined.
    record(std::current_exception());
  }
  run(0);
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int default_jobs(int requested) {
  if (requested == 0) return hardware_threads();
  return requested < 1 ? 1 : requested;
}

}  // namespace sani::sched
