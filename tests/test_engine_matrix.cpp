// Broad configuration-matrix equivalence fuzz: every combination of engine
// knobs must produce results bit-identical to the sequential reference on a
// rollback-heavy PHOLD load. This is the repository's strongest single
// correctness statement about the Time Warp kernel.
//
// Both kernels are built and driven through the common des::Engine interface
// (make_engine / run / for_each_state) — no per-kernel code paths.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "des/engine.hpp"
#include "des/phold.hpp"

namespace hp::des {
namespace {

struct Knobs {
  std::uint32_t pes;
  std::uint32_t kps;
  double window;  // <= 0 means infinite
  EngineConfig::Cancellation cancellation;
  bool state_saving;
  std::uint32_t seed;
};

class EngineMatrix : public ::testing::TestWithParam<Knobs> {};

TEST_P(EngineMatrix, BitIdenticalToSequential) {
  const Knobs k = GetParam();
  PholdConfig pc;
  pc.num_lps = 48;
  pc.remote_fraction = 0.7;
  pc.lookahead = 0.05;  // straggler-heavy

  EngineConfig ec;
  ec.num_lps = pc.num_lps;
  ec.end_time = 80.0;
  ec.seed = k.seed;

  PholdModel m1(pc);
  std::unique_ptr<Engine> seq = make_engine(EngineKind::Sequential, m1, ec);
  const RunStats sstats = seq->run();

  ec.num_pes = k.pes;
  ec.num_kps = k.kps;
  ec.gvt_interval_events = 96;
  ec.optimism_window = k.window > 0 ? k.window : kTimeInf;
  ec.cancellation = k.cancellation;
  ec.state_saving = k.state_saving;
  PholdModel m2(pc);
  std::unique_ptr<Engine> tw = make_engine(EngineKind::TimeWarp, m2, ec);
  const RunStats tstats = tw->run();

  EXPECT_EQ(sstats.committed_events(), tstats.committed_events());
  EXPECT_EQ(PholdModel::digest(*seq), PholdModel::digest(*tw));
  EXPECT_EQ(tstats.committed_events(),
            tstats.processed_events() - tstats.rolled_back_events());

  // The reported totals must be exactly the declared reduction of the
  // per-PE breakdown (the engines no longer sum by hand).
  ASSERT_EQ(tstats.per_pe().size(), k.pes);
  EXPECT_EQ(obs::reduce(tstats.per_pe()), tstats.metrics.total);
}

constexpr auto kAgg = EngineConfig::Cancellation::Aggressive;
constexpr auto kLazy = EngineConfig::Cancellation::Lazy;

// Row IDs keep the queue segment (`splay`, `mset`, `ladder`) from when this
// matrix also swept the pending-set backend, so each ID still names the same
// row. Every row now runs the ladder queue, the only backend left; rows whose
// IDs differ only in that segment run their tuple under different seeds.
struct Row {
  const char* id;
  Knobs knobs;
};

constexpr Row kRows[] = {
    {"pe2_kp8_w0_splay_agg_rc", {2, 8, 0.0, kAgg, false, 24}},
    {"pe2_kp8_w0_splay_lazy_rc", {2, 8, 0.0, kLazy, false, 23}},
    {"pe2_kp8_w0_mset_agg_rc", {2, 8, 0.0, kAgg, false, 25}},
    {"pe2_kp8_w0_splay_agg_ss", {2, 8, 0.0, kAgg, true, 23}},
    {"pe4_kp16_w0_splay_lazy_rc", {4, 16, 0.0, kLazy, false, 24}},
    {"pe4_kp16_w0_mset_lazy_ss", {4, 16, 0.0, kLazy, true, 23}},
    {"pe4_kp16_w5_splay_agg_rc", {4, 16, 5.0, kAgg, false, 23}},
    {"pe4_kp16_w5_splay_lazy_rc", {4, 16, 5.0, kLazy, false, 23}},
    {"pe4_kp16_w5_mset_agg_ss", {4, 16, 5.0, kAgg, true, 25}},
    {"pe3_kp12_w2_splay_lazy_ss", {3, 12, 2.0, kLazy, true, 23}},
    {"pe8_kp24_w10_splay_agg_rc", {8, 24, 10.0, kAgg, false, 23}},
    {"pe8_kp24_w0_mset_lazy_rc", {8, 24, 0.0, kLazy, false, 23}},
    {"pe2_kp8_w0_ladder_agg_rc", {2, 8, 0.0, kAgg, false, 23}},
    {"pe4_kp16_w0_ladder_lazy_rc", {4, 16, 0.0, kLazy, false, 23}},
    {"pe4_kp16_w5_ladder_agg_ss", {4, 16, 5.0, kAgg, true, 23}},
    {"pe8_kp24_w10_ladder_lazy_rc", {8, 24, 10.0, kLazy, false, 23}},
};

std::vector<Knobs> row_knobs() {
  std::vector<Knobs> knobs;
  for (const Row& r : kRows) knobs.push_back(r.knobs);
  return knobs;
}

INSTANTIATE_TEST_SUITE_P(
    KnobSweep, EngineMatrix, ::testing::ValuesIn(row_knobs()),
    [](const auto& info) { return std::string(kRows[info.index].id); });

}  // namespace
}  // namespace hp::des
