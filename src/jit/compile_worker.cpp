// The process-wide background compile worker behind jit::submit_compile
// (see jit/jit.h): one lazily started thread draining a FIFO of jobs, so
// at most one tier-up compile runs at any time, off every serving thread.

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "jit/jit.h"

namespace hmd::jit {

namespace {

class CompileWorker {
 public:
  CompileWorker() = default;
  CompileWorker(const CompileWorker&) = delete;
  CompileWorker& operator=(const CompileWorker&) = delete;

  ~CompileWorker() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    ready_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  void submit(std::function<void()> job) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!thread_.joinable()) thread_ = std::thread([this] { run(); });
      jobs_.push_back(std::move(job));
    }
    ready_.notify_one();
  }

 private:
  void run() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
        if (stop_) return;
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      job();
    }
  }

  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::function<void()>> jobs_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

void submit_compile(std::function<void()> job) {
  static CompileWorker worker;
  worker.submit(std::move(job));
}

}  // namespace hmd::jit
