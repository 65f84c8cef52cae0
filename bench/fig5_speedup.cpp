// Figure 5 — "Parallel Speed-Up": committed event rate versus network
// diameter for 1, 2 and 4 PEs. The report (on a quad-CPU PC server) shows
// the 4-PE run approaching 4x for ~1024 LPs and ~2x for the largest
// networks. On a host with fewer cores than PEs the parallel rows measure
// Time Warp overhead instead of speed-up; the harness reports the core
// count so the reader can judge. Every row of one N runs the same workload
// (steps_for(n)); the harness exits 1 if their committed counts differ.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  hp::util::Cli cli(argc, argv, hp::bench::common_flags());
  const bool full = cli.get_bool("full", false);
  const auto scale = full ? hp::bench::full_scale() : hp::bench::quick_scale();
  std::vector<std::int32_t> sizes;
  for (const std::int32_t n : scale.sizes) {
    if (n >= 16) sizes.push_back(n);  // report sweeps N = 16..256
  }

  hp::util::Table table(
      {"N", "LPs", "PEs", "events_per_s", "committed", "rolled_back"});
  std::vector<hp::obs::MetricsReport> metrics;
  bool same_workload = true;
  for (const std::int32_t n : sizes) {
    std::uint64_t seq_committed = 0;
    for (const std::uint32_t pes : scale.pe_counts) {
      hp::core::SimulationResult r;
      if (pes == 1) {
        hp::core::SimulationOptions o;
        o.model.n = n;
        o.model.injector_fraction = 0.5;
        o.model.steps = hp::bench::steps_for(n);
        r = hp::core::run_hotpotato(o);
        seq_committed = r.engine.committed_events();
      } else {
        auto o = hp::bench::tw_options(n, 0.5, pes, 64);
        hp::bench::apply_monitor_flags(cli, o.engine);
        r = hp::core::run_hotpotato(o);
      }
      table.add_row({static_cast<std::int64_t>(n),
                     static_cast<std::int64_t>(n) * n,
                     static_cast<std::int64_t>(pes), r.engine.event_rate(),
                     r.engine.committed_events(),
                     r.engine.rolled_back_events()});
      if (r.engine.committed_events() != seq_committed) {
        std::fprintf(stderr,
                     "fig5_speedup: N=%d %u PEs committed %llu events, the "
                     "1-PE row %llu — the rows ran different workloads\n",
                     n, pes,
                     static_cast<unsigned long long>(
                         r.engine.committed_events()),
                     static_cast<unsigned long long>(seq_committed));
        same_workload = false;
      }
      metrics.push_back(std::move(r.engine.metrics));
    }
  }
  hp::bench::finish(
      table, cli,
      "Figure 5: parallel speed-up (event rate vs N for 1/2/4 PEs) — host "
      "has " +
          std::to_string(std::thread::hardware_concurrency()) +
          " hardware thread(s); speed-up requires PEs <= cores",
      metrics);
  return same_workload ? 0 : 1;
}
