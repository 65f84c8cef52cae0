#pragma once

// Timing decorator for des::Model, used by the benchmark's traced runs.
// Every call is forwarded unchanged to the wrapped model, so committed
// results are bit-identical to an undecorated run. forward, reverse and
// commit are counted into a per-thread tally: each PE thread claims its own
// cache-line-aligned slot on first use, so the hot path touches no shared
// atomic and the decorator does not serialise the PEs.
//
// A clock read costs ~40 ns and orders the pipeline around it, which on a
// cache-missing handler costs several times more. So every reverse call is
// timed (rollbacks are rare), but only every kForwardSampleEvery-th forward
// call, and the forward total is scaled up from those samples. commit is
// counted, not timed (hot-potato and PHOLD have no commit handler).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "des/model.hpp"

namespace repobench {

inline constexpr std::uint64_t kForwardSampleEvery = 8;

struct alignas(64) HandlerTally {
  std::uint64_t forward_calls = 0;
  std::uint64_t forward_samples = 0, forward_sampled_ns = 0;
  std::uint64_t reverse_calls = 0, reverse_ns = 0;
  std::uint64_t commit_calls = 0;

  double forward_ns_per_call() const noexcept {
    return forward_samples == 0 ? 0.0
                                : static_cast<double>(forward_sampled_ns) /
                                      static_cast<double>(forward_samples);
  }
  // Estimated handler time: sampled forward cost times every forward call,
  // plus the measured reverse time.
  double handler_ns() const noexcept {
    return forward_ns_per_call() * static_cast<double>(forward_calls) +
           static_cast<double>(reverse_ns);
  }
};

class TimedModel final : public hp::des::Model {
 public:
  explicit TimedModel(hp::des::Model& inner) : inner_(inner) {}
  TimedModel(const TimedModel&) = delete;
  TimedModel& operator=(const TimedModel&) = delete;

  std::unique_ptr<hp::des::LpState> make_state(std::uint32_t lp) override {
    return inner_.make_state(lp);
  }
  void init_lp(std::uint32_t lp, hp::des::InitContext& ctx) override {
    inner_.init_lp(lp, ctx);
  }
  void forward(hp::des::LpState& s, hp::des::Event& ev,
               hp::des::Context& ctx) override {
    HandlerTally& t = tally();
    if (t.forward_calls++ % kForwardSampleEvery != 0) {
      inner_.forward(s, ev, ctx);
      return;
    }
    const Clock::time_point t0 = Clock::now();
    inner_.forward(s, ev, ctx);
    t.forward_sampled_ns += ns_since(t0);
    ++t.forward_samples;
  }
  void reverse(hp::des::LpState& s, hp::des::Event& ev,
               hp::des::Context& ctx) override {
    HandlerTally& t = tally();
    const Clock::time_point t0 = Clock::now();
    inner_.reverse(s, ev, ctx);
    t.reverse_ns += ns_since(t0);
    ++t.reverse_calls;
  }
  void commit(hp::des::LpState& s, const hp::des::Event& ev) override {
    inner_.commit(s, ev);
    ++tally().commit_calls;
  }

  // Sum over every thread's slot. Call only after the engine's run()
  // returned, when no PE thread writes any more.
  HandlerTally totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    HandlerTally sum;
    for (const HandlerTally& t : slots_) {
      sum.forward_calls += t.forward_calls;
      sum.forward_samples += t.forward_samples;
      sum.forward_sampled_ns += t.forward_sampled_ns;
      sum.reverse_calls += t.reverse_calls;
      sum.reverse_ns += t.reverse_ns;
      sum.commit_calls += t.commit_calls;
    }
    return sum;
  }

 private:
  using Clock = std::chrono::steady_clock;

  static std::uint64_t ns_since(Clock::time_point t0) noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
  }

  // The calling thread's slot in this decorator. The thread-local cache is
  // keyed by a process-wide generation number rather than by `this`, so a
  // decorator built at a dead one's address never reuses a freed slot.
  HandlerTally& tally() {
    thread_local std::uint64_t cached_generation = 0;
    thread_local HandlerTally* cached_slot = nullptr;
    if (cached_generation != generation_) {
      std::lock_guard<std::mutex> lock(mu_);
      cached_slot = &slots_.emplace_back();
      cached_generation = generation_;
    }
    return *cached_slot;
  }

  static std::uint64_t next_generation() noexcept {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  hp::des::Model& inner_;
  const std::uint64_t generation_ = next_generation();
  mutable std::mutex mu_;
  std::deque<HandlerTally> slots_;  // guarded by mu_; addresses are stable
};

}  // namespace repobench
