// Throughput floor on the epoch-GVT cliff row (docs/GVT.md "Lead bound").
//
// 2-PE PHOLD at 100% remote traffic and lookahead 0.05, the phold_sweep
// settings: before the lead bound this row committed at efficiency ~0.08
// (committed / processed), with ~10^5 secondary rollbacks cascading from a
// few hundred primaries. Efficiency depends on thread scheduling, so this
// check runs serially and stays out of the ThreadSanitizer gate; the
// deterministic half of the pin (per-close processed bound) lives in
// test_gvt_epoch.

#include <gtest/gtest.h>

#include <memory>

#include "des/engine.hpp"
#include "des/phold.hpp"

namespace hp::des {
namespace {

TEST(LeadBoundCliff, TwoPeFullRemoteRowKeepsEfficiency) {
  PholdConfig pc;
  pc.num_lps = 256;
  pc.remote_fraction = 1.0;
  pc.lookahead = 0.05;
  EngineConfig ec;
  ec.num_lps = pc.num_lps;
  ec.end_time = 100.0;
  ec.num_pes = 2;
  ec.num_kps = 32;
  ec.gvt_interval_events = 1024;
  ec.optimism_window = 10.0 * pc.mean_delay;

  PholdModel model(pc);
  std::unique_ptr<Engine> tw = make_engine(EngineKind::TimeWarp, model, ec);
  const RunStats s = tw->run();

  EXPECT_GE(s.efficiency(), 0.4)
      << "committed " << s.committed_events() << " of "
      << s.processed_events() << " processed; secondary rollbacks "
      << s.secondary_rollbacks();
}

}  // namespace
}  // namespace hp::des
