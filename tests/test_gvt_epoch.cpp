// Asynchronous epoch-based GVT tests (docs/GVT.md).
//
// The invariant under test: GVT is pure bookkeeping, so Time Warp under
// Mattern-style epochs must never change committed state — every run
// commits bit-identical results to the sequential reference, across the
// chaos / migration / checkpoint / pool-budget matrix. The epoch-specific
// counters prove the asynchronous path actually ran (closes happened,
// transient messages were accounted), and the lead bound is pinned on the
// row where its absence let optimism run away.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>

#include "core/simulation.hpp"
#include "des/checkpoint.hpp"
#include "des/engine.hpp"
#include "des/fault.hpp"
#include "des/phold.hpp"
#include "des/watchdog.hpp"

namespace hp::des {
namespace {

using obs::Counter;

// ---------------------------------------------------------------- parsing

TEST(GvtSpecParse, AcceptsInterval) {
  EngineConfig cfg;
  std::string err;
  ASSERT_TRUE(parse_gvt_spec(" interval = 512 ", cfg, err)) << err;
  EXPECT_EQ(cfg.gvt_interval_events, 512u);
  ASSERT_TRUE(parse_gvt_spec("interval=4294967295", cfg, err)) << err;
  EXPECT_EQ(cfg.gvt_interval_events, 4294967295u);
}

// Epoch GVT is the only protocol: the retired mode= key is rejected in every
// spelling, so a stale script fails loudly instead of silently running a
// protocol it did not ask for.
TEST(GvtSpecParse, RejectsRetiredModeKey) {
  for (const char* spec : {"mode=epoch", "mode=barrier",
                           "mode=epoch,interval=512",
                           "interval=512,mode=barrier"}) {
    EngineConfig cfg;
    std::string err;
    EXPECT_FALSE(parse_gvt_spec(spec, cfg, err)) << "accepted: " << spec;
    EXPECT_NE(err.find("mode"), std::string::npos) << err;
  }
}

TEST(GvtSpecParse, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                     // interval= is required
      "interval=",            // empty value
      "interval=0",           // zero interval
      "interval=-4",          // negative
      "interval=+4",          // sign
      "interval=abc",         // non-numeric
      "interval=12x",         // trailing junk
      "interval=4294967296",  // overflows the 32-bit interval
      "cadence=4",            // unknown key
      "epoch",                // not key=value
  };
  for (const char* spec : bad) {
    EngineConfig cfg;
    std::string err;
    EXPECT_FALSE(parse_gvt_spec(spec, cfg, err)) << "accepted: " << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

// ------------------------------------------------------------ bit identity

PholdConfig phold_config() {
  PholdConfig pc;
  pc.num_lps = 48;
  pc.remote_fraction = 0.7;
  pc.lookahead = 0.05;  // straggler-heavy: plenty of rollbacks
  return pc;
}

EngineConfig engine_config(std::uint32_t pes) {
  EngineConfig ec;
  ec.num_lps = phold_config().num_lps;
  ec.end_time = 80.0;
  ec.seed = 23;
  ec.num_pes = pes;
  ec.num_kps = 16;
  ec.gvt_interval_events = 96;
  return ec;
}

// Run PHOLD under the given engine config and return the model digest.
std::uint64_t run_digest(EngineKind kind, const EngineConfig& ec,
                         RunStats* stats = nullptr) {
  PholdConfig pc = phold_config();
  PholdModel m(pc);
  std::unique_ptr<Engine> e = make_engine(kind, m, ec);
  const RunStats s = e->run();
  if (stats) *stats = s;
  return PholdModel::digest(*e);
}

std::uint64_t sequential_digest() {
  return run_digest(EngineKind::Sequential, engine_config(1));
}

class EpochIdentity : public ::testing::TestWithParam<std::uint32_t> {};

// Time Warp commits bit-identical state to the sequential kernel at every PE
// count, and actually closed epochs on the way.
TEST_P(EpochIdentity, MatchesSequential) {
  const std::uint32_t pes = GetParam();

  const std::uint64_t sd = sequential_digest();

  RunStats es;
  const std::uint64_t ed =
      run_digest(EngineKind::TimeWarp, engine_config(pes), &es);

  EXPECT_EQ(sd, ed);
  EXPECT_GT(es.metrics.total.at(Counter::GvtEpochCloses), 0u)
      << "no epoch ever closed, so this proved nothing";
  EXPECT_GT(es.gvt_rounds(), 0u);
}

INSTANTIATE_TEST_SUITE_P(PeCounts, EpochIdentity,
                         ::testing::Values(1u, 2u, 4u),
                         [](const auto& info) {
                           return std::to_string(info.param) + "pe";
                         });

// A Time Warp run is itself exactly repeatable (the closes are raced by
// all PEs, so this pins the winner-independence of the bookkeeping).
TEST(EpochIdentity, EpochRunIsRepeatable) {
  EngineConfig ec = engine_config(4);
  EXPECT_EQ(run_digest(EngineKind::TimeWarp, ec),
            run_digest(EngineKind::TimeWarp, ec));
}

// -------------------------------------------------------------- lead bound
//
// The row where unbounded epoch GVT fell off a cliff: 2-PE PHOLD at 100%
// remote traffic and lookahead 0.05 (the phold_sweep settings). Without the
// lead bound a PE that had already requested GVT kept executing while the
// close was pending, and a handful of primary rollbacks cascaded into
// ~10^5 secondary ones (efficiency ~0.08). The bound makes each PE stop one
// effective interval past the last close it applied, so no close can see
// more than num_pes * gvt_interval_events forward executions — a
// deterministic check (the timing-dependent efficiency floor for the same
// row lives in test_gvt_cliff).

TEST(LeadBound, NoCloseSeesMoreThanOneIntervalPerPe) {
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

  PholdModel seq_model(pc);
  std::unique_ptr<Engine> seq =
      make_engine(EngineKind::Sequential, seq_model, ec);
  seq->run();
  PholdModel tw_model(pc);
  std::unique_ptr<Engine> tw = make_engine(EngineKind::TimeWarp, tw_model, ec);
  const RunStats s = tw->run();

  EXPECT_EQ(PholdModel::digest(*seq), PholdModel::digest(*tw));
  ASSERT_FALSE(s.metrics.gvt_series.empty());
  std::uint64_t peak = 0;
  for (const obs::GvtRoundSample& r : s.metrics.gvt_series) {
    peak = std::max(peak, r.processed);
  }
  EXPECT_LE(peak, std::uint64_t{ec.num_pes} * ec.gvt_interval_events)
      << "a PE ran past its lead bound";
}

// ----------------------------------------------- transient-message stress
//
// Chaos delay + reorder hold envelopes across epoch cuts: an envelope
// tagged with epoch e is popped (and credited to e's receive count) while
// its PE is already cutting into e+1, and held envelopes straddle several
// closes. The send/receive accounting must still balance every epoch — a
// lost credit would wedge the close and the watchdog below would fire.

TEST(EpochTransient, DelayedAndReorderedTrafficStraddlingCutsIsExact) {
  const std::uint64_t sd = sequential_digest();

  EngineConfig ec = engine_config(4);
  // Tiny interval: many cuts per run, so held traffic necessarily
  // straddles them.
  ec.gvt_interval_events = 48;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse(
      "delay:p=0.3,k=3;reorder:p=0.5;straggler:p=0.3;dup-anti:p=0.3;seed=7",
      ec.fault, err))
      << err;
  RunStats es;
  const std::uint64_t ed = run_digest(EngineKind::TimeWarp, ec, &es);

  EXPECT_EQ(sd, ed);
  EXPECT_GT(es.metrics.total.at(Counter::GvtEpochCloses), 4u);
  EXPECT_GT(es.metrics.total.at(Counter::ChaosDelayedEvents), 0u)
      << "the chaos plan never fired, so no transient messages were made";
}

// Chaos composed with runtime KP migration: quiesce traffic and re-homed
// events ride the same epoch accounting.
TEST(EpochTransient, ChaosPlusMigrationStaysIdentical) {
  const std::uint64_t sd = sequential_digest();

  EngineConfig ec = engine_config(4);
  std::string err;
  ASSERT_TRUE(FaultPlan::parse("delay:p=0.2,k=2;reorder:p=0.4;seed=13",
                               ec.fault, err))
      << err;
  ASSERT_TRUE(MigrationConfig::parse("every=4,imbalance=1.1,max=2",
                                     ec.migration, err))
      << err;
  EXPECT_EQ(sd, run_digest(EngineKind::TimeWarp, ec));
}

// Checkpoint rounds anchor to epoch closes: the run must still be
// bit-identical and write images.
TEST(EpochTransient, CheckpointRoundsAnchorToCloses) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "hp_gvt_epoch_ck";
  std::filesystem::remove_all(dir);

  const std::uint64_t sd = sequential_digest();

  EngineConfig ec = engine_config(4);
  ec.checkpoint.every = 2000;
  ec.checkpoint.dir = dir.string();
  RunStats es;
  const std::uint64_t ed = run_digest(EngineKind::TimeWarp, ec, &es);

  EXPECT_EQ(sd, ed);
  EXPECT_GT(es.metrics.total.checkpoints_written(), 0u);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------- pool hard block
//
// A hard-blocked PE forces a GVT round by raising gvt_request_: the flag
// forces a cut, the other PEs (which keep pumping, never park) follow, and
// the close frees fossils so the blocked PE can resume. A lost wakeup here
// would deadlock.

TEST(EpochFlowControl, HardBlockForcesCloseAndStaysIdentical) {
  const std::uint64_t sd = sequential_digest();

  EngineConfig ec = engine_config(4);
  ec.pool_budget_envelopes = 128;  // a real squeeze on this workload
  RunStats es;
  const std::uint64_t ed = run_digest(EngineKind::TimeWarp, ec, &es);

  EXPECT_EQ(sd, ed);
  for (const obs::PeMetrics& pe : es.per_pe()) {
    EXPECT_LE(pe.pool_peak_live(), 128u);
  }
  EXPECT_GT(es.metrics.total.at(Counter::GvtEpochCloses), 0u);
}

// ------------------------------------------------------------- watchdog

// A chaos stall that resolves on its own holds GVT and the committed count
// flat for a few closes; the watchdog must let it complete without
// escalation.
TEST(EpochWatchdog, BenignStallCompletesUnderEpochMode) {
  const std::uint64_t sd = sequential_digest();

  EngineConfig ec = engine_config(4);
  std::string err;
  ASSERT_TRUE(FaultPlan::parse("stall:pe=1,rounds=6,at=2", ec.fault, err))
      << err;
  ASSERT_TRUE(WatchdogConfig::parse("timeout=60000,poll=20", ec.watchdog,
                                    err))
      << err;
  RunStats es;
  const std::uint64_t ed = run_digest(EngineKind::TimeWarp, ec, &es);

  EXPECT_EQ(sd, ed);
  EXPECT_GT(es.metrics.total.at(Counter::ChaosStallRounds), 0u)
      << "the stall never fired, so this proved nothing";
}

}  // namespace
}  // namespace hp::des
