// Observability layer tests: the JsonWriter primitive, the table-driven
// metrics reduction, the bounded GVT-series ring, Chrome-trace export,
// rollback forensics (causality attribution identities, flow events, the
// live monitor stream), the exhaustive kernel/phase name coverage, and —
// most importantly — the invariants the instrumented kernels must uphold:
// accounting identities, per-PE totals reducing to the aggregate, and
// committed results staying bit-identical with observability fully on,
// fully off, tracing, forensics off, and the monitor running.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "des/engine.hpp"
#include "des/phold.hpp"
#include "obs/forensics.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "util/json_writer.hpp"

namespace hp {
namespace {

// ---------------------------------------------------------------------------
// Compile-time exhaustiveness: if an enumerator is ever added without its
// name case, the constant evaluation below reaches __builtin_unreachable()
// and the translation unit fails to compile.

constexpr bool all_engine_kinds_named() {
  for (const des::EngineKind k : des::kAllEngineKinds) {
    if (des::kind_name(k) == nullptr) return false;
  }
  return true;
}
static_assert(all_engine_kinds_named());

constexpr bool all_phases_named() {
  for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
    if (obs::phase_name(static_cast<obs::Phase>(p)) == nullptr) return false;
  }
  return true;
}
static_assert(all_phases_named());

TEST(EngineKind, NamesAreDistinct) {
  EXPECT_STREQ(des::kind_name(des::EngineKind::Sequential), "sequential");
  EXPECT_STREQ(des::kind_name(des::EngineKind::TimeWarp), "timewarp");
  EXPECT_STREQ(des::kind_name(des::EngineKind::Conservative), "conservative");
}

// ---------------------------------------------------------------------------
// JsonWriter

TEST(JsonWriter, NestedContainersAndEscaping) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.kv("str", "a\"b\\c\nd");
  w.kv("int", std::uint64_t{42});
  w.kv("neg", std::int64_t{-7});
  w.kv("flag", true);
  w.key("arr").begin_array();
  w.value(1.5);
  w.value("x");
  w.begin_object().kv("k", std::uint32_t{3}).end_object();
  w.end_array();
  w.end_object();
  EXPECT_TRUE(w.done());
  EXPECT_EQ(os.str(),
            "{\"str\":\"a\\\"b\\\\c\\nd\",\"int\":42,\"neg\":-7,"
            "\"flag\":true,\"arr\":[1.5,\"x\",{\"k\":3}]}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null]");
}

TEST(JsonWriter, RoundTripsDoublesExactly) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_array();
  w.value(0.1);
  w.end_array();
  EXPECT_EQ(std::stod(os.str().substr(1)), 0.1);
}

// ---------------------------------------------------------------------------
// Metrics reduction

TEST(Metrics, ReduceSumsAndMaxesPerDeclaredPolicy) {
  obs::PeMetrics a, b;
  a.at(obs::Counter::Processed) = 10;
  b.at(obs::Counter::Processed) = 5;
  a.at(obs::Counter::MaxInboxBatch) = 3;
  b.at(obs::Counter::MaxInboxBatch) = 9;
  a.ns(obs::Phase::Forward) = 100;
  b.ns(obs::Phase::Forward) = 50;
  const obs::PeMetrics total = obs::reduce({a, b});
  EXPECT_EQ(total.processed_events(), 15u);
  EXPECT_EQ(total.max_inbox_batch(), 9u);  // Reduce::Max, not sum
  EXPECT_EQ(total.ns(obs::Phase::Forward), 150u);
}

TEST(Metrics, CounterTableCoversEveryEnumerator) {
  for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
    EXPECT_NE(obs::counter_name(static_cast<obs::Counter>(c)), nullptr);
    EXPECT_STRNE(obs::counter_name(static_cast<obs::Counter>(c)), "");
  }
}

// ---------------------------------------------------------------------------
// GVT series ring

TEST(GvtSeriesRing, RetainsMostRecentWindowOldestFirst) {
  obs::GvtSeriesRing ring(4);
  for (std::uint64_t r = 0; r < 10; ++r) {
    ring.push(obs::GvtRoundSample{r, r * 100, static_cast<double>(r),
                                  r, r, 0, 0});
  }
  EXPECT_EQ(ring.total_pushed(), 10u);
  EXPECT_EQ(ring.size(), 4u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].round, 6 + i);  // rounds 6..9, oldest first
  }
}

TEST(GvtSeriesRing, ZeroCapacityOnlyCounts) {
  obs::GvtSeriesRing ring(0);
  ring.push(obs::GvtRoundSample{});
  ring.push(obs::GvtRoundSample{});
  EXPECT_EQ(ring.total_pushed(), 2u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

// ---------------------------------------------------------------------------
// PhaseProbe

TEST(PhaseProbe, DisabledProbeChargesNothing) {
  obs::PeMetrics m;
  obs::PhaseProbe probe;
  probe.attach(&m, nullptr, /*timers_on=*/false);
  EXPECT_FALSE(probe.enabled());
  probe.begin(obs::Phase::Forward);
  probe.switch_to(obs::Phase::Rollback);
  probe.end();
  EXPECT_EQ(m.total_phase_ns(), 0u);
}

TEST(PhaseProbe, ScopeRestoresInterruptedPhase) {
  obs::PeMetrics m;
  obs::PhaseProbe probe;
  probe.attach(&m, nullptr, /*timers_on=*/true);
  probe.begin(obs::Phase::Forward);
  {
    obs::PhaseScope scope(probe, obs::Phase::Rollback);
    EXPECT_EQ(probe.current(), obs::Phase::Rollback);
  }
  EXPECT_EQ(probe.current(), obs::Phase::Forward);
  probe.end();
}

// ---------------------------------------------------------------------------
// Engine-matrix invariants. A rollback-heavy PHOLD load driven through the
// common interface on every kernel.

des::EngineConfig matrix_config(std::uint32_t pes) {
  des::EngineConfig ec;
  ec.num_lps = 36;
  ec.end_time = 60.0;
  ec.seed = 11;
  ec.num_pes = pes;
  ec.gvt_interval_events = 128;
  return ec;
}

des::PholdConfig matrix_phold() {
  des::PholdConfig pc;
  pc.num_lps = 36;
  pc.remote_fraction = 0.6;
  pc.lookahead = 0.05;
  return pc;
}

struct KernelRun {
  std::uint64_t digest = 0;
  des::RunStats stats;
};

KernelRun run_kernel(des::EngineKind kind, std::uint32_t pes,
                     const obs::ObsConfig& obs_cfg) {
  const des::PholdConfig pc = matrix_phold();
  des::EngineConfig ec = matrix_config(pes);
  ec.obs = obs_cfg;
  des::PholdModel model(pc);
  auto eng = des::make_engine(kind, model, ec, pc.lookahead);
  KernelRun out;
  out.stats = eng->run();
  out.digest = des::PholdModel::digest(*eng);
  return out;
}

TEST(MetricsInvariants, ProcessedEqualsCommittedPlusRolledBack) {
  for (const des::EngineKind kind : des::kAllEngineKinds) {
    const std::uint32_t pes = kind == des::EngineKind::Sequential ? 1 : 4;
    const KernelRun r = run_kernel(kind, pes, obs::ObsConfig{});
    EXPECT_EQ(r.stats.processed_events(),
              r.stats.committed_events() + r.stats.rolled_back_events())
        << des::kind_name(kind);
    EXPECT_GT(r.stats.committed_events(), 0u) << des::kind_name(kind);
  }
}

TEST(MetricsInvariants, PerPeReducesToAggregate) {
  for (const des::EngineKind kind :
       {des::EngineKind::TimeWarp, des::EngineKind::Conservative}) {
    const KernelRun r = run_kernel(kind, 4, obs::ObsConfig{});
    ASSERT_EQ(r.stats.per_pe().size(), 4u) << des::kind_name(kind);
    EXPECT_EQ(obs::reduce(r.stats.per_pe()), r.stats.metrics.total)
        << des::kind_name(kind);
  }
}

TEST(MetricsInvariants, PhaseTimersPopulatedWhenOnZeroWhenOff) {
  obs::ObsConfig on;
  on.phase_timers = true;
  obs::ObsConfig off;
  off.phase_timers = false;
  for (const des::EngineKind kind : des::kAllEngineKinds) {
    const std::uint32_t pes = kind == des::EngineKind::Sequential ? 1 : 2;
    const KernelRun with = run_kernel(kind, pes, on);
    EXPECT_GT(with.stats.metrics.total.total_phase_ns(), 0u)
        << des::kind_name(kind);
    const KernelRun without = run_kernel(kind, pes, off);
    EXPECT_EQ(without.stats.metrics.total.total_phase_ns(), 0u)
        << des::kind_name(kind);
  }
}

TEST(MetricsInvariants, GvtSeriesBoundedAndMonotone) {
  obs::ObsConfig cfg;
  cfg.gvt_series_capacity = 8;  // deliberately smaller than the round count
  const KernelRun r = run_kernel(des::EngineKind::TimeWarp, 4, cfg);
  const auto& series = r.stats.metrics.gvt_series;
  EXPECT_LE(series.size(), 8u);
  EXPECT_GE(r.stats.metrics.gvt_rounds, series.size());
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_EQ(series[i].round, series[i - 1].round + 1);
    EXPECT_GE(series[i].gvt, series[i - 1].gvt);  // GVT never retreats
    EXPECT_GE(series[i].t_ns, series[i - 1].t_ns);
  }
}

TEST(MetricsInvariants, ResultsBitIdenticalAcrossObsSettings) {
  obs::ObsConfig full_on;
  full_on.phase_timers = true;
  full_on.trace = true;
  full_on.trace_path = ::testing::TempDir() + "obs_equiv_trace.json";
  obs::ObsConfig all_off;
  all_off.phase_timers = false;
  all_off.gvt_series_capacity = 0;
  all_off.forensics = false;
  obs::ObsConfig forensics_off;
  forensics_off.forensics = false;
  obs::ObsConfig monitor_on;
  monitor_on.monitor = true;
  monitor_on.monitor_interval = 2;
  monitor_on.monitor_path = ::testing::TempDir() + "obs_equiv_monitor.jsonl";
  obs::ObsConfig telemetry_on;
  telemetry_on.telemetry = true;

  const KernelRun seq = run_kernel(des::EngineKind::Sequential, 1, all_off);
  for (const des::EngineKind kind : des::kAllEngineKinds) {
    const std::uint32_t pes = kind == des::EngineKind::Sequential ? 1 : 4;
    const KernelRun on = run_kernel(kind, pes, full_on);
    const KernelRun off = run_kernel(kind, pes, all_off);
    const KernelRun no_forensics = run_kernel(kind, pes, forensics_off);
    const KernelRun monitored = run_kernel(kind, pes, monitor_on);
    const KernelRun telemetered = run_kernel(kind, pes, telemetry_on);
    EXPECT_EQ(on.digest, seq.digest) << des::kind_name(kind) << " obs on";
    EXPECT_EQ(off.digest, seq.digest) << des::kind_name(kind) << " obs off";
    EXPECT_EQ(no_forensics.digest, seq.digest)
        << des::kind_name(kind) << " forensics off";
    EXPECT_EQ(monitored.digest, seq.digest)
        << des::kind_name(kind) << " monitor on";
    EXPECT_EQ(telemetered.digest, seq.digest)
        << des::kind_name(kind) << " telemetry on";
    EXPECT_EQ(on.stats.committed_events(), seq.stats.committed_events());
    EXPECT_EQ(off.stats.committed_events(), seq.stats.committed_events());
    EXPECT_EQ(no_forensics.stats.committed_events(),
              seq.stats.committed_events());
    EXPECT_EQ(monitored.stats.committed_events(),
              seq.stats.committed_events());
    EXPECT_EQ(telemetered.stats.committed_events(),
              seq.stats.committed_events());
    // The telemetry run really collected: every kernel commits, so the
    // commit-latency histogram must be populated and its report flagged.
    EXPECT_TRUE(telemetered.stats.metrics.telemetry) << des::kind_name(kind);
    EXPECT_GT(telemetered.stats.metrics
                  .latency_hist(obs::LatencyMetric::CommitLatency)
                  .count(),
              0u)
        << des::kind_name(kind);
    // ...while the other runs carry no latency block at all.
    EXPECT_FALSE(off.stats.metrics.telemetry) << des::kind_name(kind);
    // Forensics off leaves the heatmaps empty — nothing was allocated.
    EXPECT_TRUE(no_forensics.stats.metrics.forensics.empty())
        << des::kind_name(kind);
  }
  std::remove(full_on.trace_path.c_str());
  std::remove(monitor_on.monitor_path.c_str());
}

// ---------------------------------------------------------------------------
// Rollback forensics: causality attribution identities.

TEST(RollbackForensics, AttributionAccountsForEveryRolledBackEvent) {
  const KernelRun r =
      run_kernel(des::EngineKind::TimeWarp, 4, obs::ObsConfig{});
  const auto& total = r.stats.metrics.total;
  // Every undone event is attributed to exactly one episode kind.
  EXPECT_EQ(total.primary_rollback_events() + total.secondary_rollback_events(),
            total.rolled_back_events());
  const auto& f = r.stats.metrics.forensics;
  // The per-KP victim heatmap sums back to the total, and the cascade
  // histogram holds exactly one entry per episode.
  EXPECT_EQ(f.victim_events_total(), total.rolled_back_events());
  EXPECT_EQ(f.episodes_total(),
            total.primary_rollbacks() + total.secondary_rollbacks());
  std::uint64_t victim_episodes = 0;
  for (const std::uint64_t v : f.kp_victim_episodes()) victim_episodes += v;
  EXPECT_EQ(victim_episodes,
            total.primary_rollbacks() + total.secondary_rollbacks());
  // Offender events are the same events from the other side of the arrow.
  std::uint64_t offender_events = 0;
  for (const std::uint64_t v : f.kp_offender_events()) offender_events += v;
  EXPECT_EQ(offender_events, total.rolled_back_events());
  if (total.rolled_back_events() > 0) {
    EXPECT_GT(f.top_offender().second, 0u);
    EXPECT_GE(total.max_rollback_depth(), 1u);
    EXPECT_GE(total.max_cascade_depth(), 1u);
  }
}

TEST(RollbackForensics, RecordClassifiesAndMergeAdoptsShape) {
  obs::RollbackForensics a;
  a.reset(/*num_kps=*/4, /*enabled=*/true);
  a.record({obs::RollbackKind::Primary, /*offender_kp=*/2, /*offender_pe=*/1,
            /*cascade=*/1, 0},
           /*victim_kp=*/0, /*events_undone=*/3);
  a.record({obs::RollbackKind::Secondary, /*offender_kp=*/0, /*offender_pe=*/0,
            /*cascade=*/2, 0},
           /*victim_kp=*/2, /*events_undone=*/5);
  // Chain length 99 clamps into the overflow bin.
  a.record({obs::RollbackKind::Secondary, 1, 0, /*cascade=*/99, 0}, 1, 1);
  EXPECT_EQ(a.episodes_total(), 3u);
  EXPECT_EQ(a.victim_events_total(), 9u);
  EXPECT_EQ(a.cascade_hist()[0], 1u);  // chain 1
  EXPECT_EQ(a.cascade_hist()[1], 1u);  // chain 2
  EXPECT_EQ(a.cascade_hist()[obs::RollbackForensics::kCascadeBins - 1], 1u);
  // Offender events: KP 0 caused 5, KP 1 caused 1, KP 2 caused 3.
  EXPECT_EQ(a.top_offender().first, 0u);
  EXPECT_EQ(a.top_offender().second, 5u);

  obs::RollbackForensics b;  // default: disabled, shapeless
  b.merge(a);
  EXPECT_EQ(b.victim_events_total(), a.victim_events_total());
  EXPECT_EQ(b.kp_victim_events().size(), 4u);
  b.merge(a);  // same shape: adds
  EXPECT_EQ(b.victim_events_total(), 2 * a.victim_events_total());

  obs::RollbackForensics disabled;
  disabled.reset(4, /*enabled=*/false);
  disabled.record({obs::RollbackKind::Primary, 0, 0, 1, 0}, 0, 7);
  EXPECT_TRUE(disabled.empty());  // no-op when off
}

// ---------------------------------------------------------------------------
// Live run monitor

TEST(Monitor, EmitsParseableJsonLinesAtConfiguredInterval) {
  obs::ObsConfig cfg;
  cfg.monitor = true;
  cfg.monitor_interval = 2;
  cfg.monitor_path = ::testing::TempDir() + "obs_monitor_test.jsonl";
  std::remove(cfg.monitor_path.c_str());  // writer appends; start fresh
  const KernelRun r = run_kernel(des::EngineKind::TimeWarp, 4, cfg);

  std::ifstream f(cfg.monitor_path);
  ASSERT_TRUE(f.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(f, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  EXPECT_EQ(lines.size(), r.stats.metrics.monitor_lines);
  // Every other round at most (plus nothing on rounds without an emission).
  EXPECT_LE(lines.size(), r.stats.metrics.gvt_rounds / 2 + 1);
  EXPECT_GT(lines.size(), 0u);
  for (const std::string& line : lines) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(std::count(line.begin(), line.end(), '{'),
              std::count(line.begin(), line.end(), '}'));
    for (const char* key :
         {"\"round\":", "\"gvt\":", "\"processed\":", "\"rolled_back\":",
          "\"event_rate\":", "\"rollback_rate\":", "\"in_flight\":",
          "\"top_offender_kp\":"}) {
      EXPECT_NE(line.find(key), std::string::npos) << key << " in " << line;
    }
  }
  std::remove(cfg.monitor_path.c_str());
}

TEST(Monitor, OtherKernelsAcceptAndIgnoreTheFlag) {
  obs::ObsConfig cfg;
  cfg.monitor = true;
  cfg.monitor_path = ::testing::TempDir() + "obs_monitor_ignored.jsonl";
  std::remove(cfg.monitor_path.c_str());
  for (const des::EngineKind kind :
       {des::EngineKind::Sequential, des::EngineKind::Conservative}) {
    const std::uint32_t pes = kind == des::EngineKind::Sequential ? 1 : 2;
    const KernelRun r = run_kernel(kind, pes, cfg);
    EXPECT_EQ(r.stats.metrics.monitor_lines, 0u) << des::kind_name(kind);
    EXPECT_GT(r.stats.committed_events(), 0u) << des::kind_name(kind);
  }
  std::remove(cfg.monitor_path.c_str());
}

// Interval boundary: an interval beyond the run's round count means the
// heartbeat never fires — no lines, no file side effects, run unaffected.
TEST(Monitor, IntervalBeyondRunEmitsNothing) {
  obs::ObsConfig cfg;
  cfg.monitor = true;
  cfg.monitor_interval = 1000000;
  cfg.monitor_path = ::testing::TempDir() + "obs_monitor_never.jsonl";
  std::remove(cfg.monitor_path.c_str());
  const KernelRun r = run_kernel(des::EngineKind::TimeWarp, 4, cfg);
  EXPECT_LT(r.stats.metrics.gvt_rounds, 1000000u);  // premise of the test
  EXPECT_EQ(r.stats.metrics.monitor_lines, 0u);
  EXPECT_GT(r.stats.committed_events(), 0u);
  std::ifstream f(cfg.monitor_path);
  if (f.good()) {  // writer may create the (empty) file on open
    std::string rest;
    std::getline(f, rest);
    EXPECT_TRUE(rest.empty());
  }
  std::remove(cfg.monitor_path.c_str());
}

// Interval boundary: 0 is clamped to 1 (every round) rather than dividing
// by zero or never emitting.
TEST(Monitor, ZeroIntervalMeansEveryRound) {
  obs::ObsConfig cfg;
  cfg.monitor = true;
  cfg.monitor_interval = 0;
  cfg.monitor_path = ::testing::TempDir() + "obs_monitor_zero.jsonl";
  std::remove(cfg.monitor_path.c_str());
  const KernelRun r = run_kernel(des::EngineKind::TimeWarp, 4, cfg);
  EXPECT_EQ(r.stats.metrics.monitor_lines, r.stats.metrics.gvt_rounds);
  EXPECT_GT(r.stats.metrics.monitor_lines, 0u);
  std::remove(cfg.monitor_path.c_str());
}

// MonitorWriter opens in append mode on purpose: one stream accumulates a
// whole sweep, and every line in the combined file is still a whole,
// parseable record (each is a single write(2)).
TEST(Monitor, AppendModeAccumulatesWholeLinesAcrossRuns) {
  obs::ObsConfig cfg;
  cfg.monitor = true;
  cfg.monitor_interval = 2;
  cfg.monitor_path = ::testing::TempDir() + "obs_monitor_append.jsonl";
  std::remove(cfg.monitor_path.c_str());
  const KernelRun first = run_kernel(des::EngineKind::TimeWarp, 4, cfg);
  const KernelRun second = run_kernel(des::EngineKind::TimeWarp, 2, cfg);
  std::ifstream f(cfg.monitor_path);
  ASSERT_TRUE(f.good());
  std::size_t lines = 0;
  for (std::string line; std::getline(f, line);) {
    if (line.empty()) continue;
    ++lines;
    // Partial-stream validation: whatever prefix of the stream exists must
    // be whole records — balanced braces, object per line.
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(std::count(line.begin(), line.end(), '{'),
              std::count(line.begin(), line.end(), '}'));
  }
  EXPECT_EQ(lines, first.stats.metrics.monitor_lines +
                       second.stats.metrics.monitor_lines);
  std::remove(cfg.monitor_path.c_str());
}

// With telemetry armed the heartbeat carries the live commit-latency p99;
// without it the key is absent so pre-telemetry streams are unchanged.
TEST(Monitor, CommitLatencyKeyTracksTelemetry) {
  obs::ObsConfig cfg;
  cfg.monitor = true;
  cfg.monitor_path = ::testing::TempDir() + "obs_monitor_latency.jsonl";

  std::remove(cfg.monitor_path.c_str());
  cfg.telemetry = true;
  const KernelRun with = run_kernel(des::EngineKind::TimeWarp, 4, cfg);
  ASSERT_GT(with.stats.metrics.monitor_lines, 0u);
  {
    std::ifstream f(cfg.monitor_path);
    ASSERT_TRUE(f.good());
    std::size_t tagged = 0, lines = 0;
    for (std::string line; std::getline(f, line);) {
      if (line.empty()) continue;
      ++lines;
      if (line.find("\"commit_latency_p99_us\":") != std::string::npos) {
        ++tagged;
      }
    }
    EXPECT_EQ(tagged, lines) << "telemetry on: every record carries the p99";
  }

  std::remove(cfg.monitor_path.c_str());
  cfg.telemetry = false;
  const KernelRun without = run_kernel(des::EngineKind::TimeWarp, 4, cfg);
  ASSERT_GT(without.stats.metrics.monitor_lines, 0u);
  {
    std::ifstream f(cfg.monitor_path);
    ASSERT_TRUE(f.good());
    for (std::string line; std::getline(f, line);) {
      EXPECT_EQ(line.find("commit_latency_p99_us"), std::string::npos);
    }
  }
  std::remove(cfg.monitor_path.c_str());
}

// ---------------------------------------------------------------------------
// Rollback flow events in trace.json (4-PE skewed load: an LP count that
// does not divide evenly across PEs, high remote fraction, tiny lookahead —
// one PE owns more LPs than the rest and lags, so the others roll back).

TEST(ChromeTrace, RollbackFlowEventsWellFormedUnderSkewedLoad) {
  des::PholdConfig pc;
  pc.num_lps = 37;
  pc.remote_fraction = 0.7;
  pc.lookahead = 0.01;
  des::EngineConfig ec;
  ec.num_lps = pc.num_lps;
  ec.end_time = 40.0;
  ec.seed = 7;
  ec.num_pes = 4;
  ec.gvt_interval_events = 64;
  ec.obs.trace = true;
  ec.obs.trace_path = ::testing::TempDir() + "obs_flow_trace.json";
  // Deliberately tiny span budget: the run must respect it (dropping and
  // counting the excess) rather than growing without bound.
  ec.obs.max_trace_spans_per_pe = 64;

  des::PholdModel model(pc);
  auto eng = des::make_engine(des::EngineKind::TimeWarp, model, ec,
                              pc.lookahead);
  const des::RunStats stats = eng->run();
  const auto& m = stats.metrics;

  // Attribution identity holds on a rollback-heavy run.
  EXPECT_EQ(m.total.primary_rollback_events() +
                m.total.secondary_rollback_events(),
            m.total.rolled_back_events());
  EXPECT_EQ(m.forensics.victim_events_total(), m.total.rolled_back_events());

  // Span/flow budget respected per PE.
  EXPECT_LE(m.trace_spans, 4u * 64u);
  EXPECT_LE(m.trace_flows, 4u * 64u);

  std::ifstream f(ec.obs.trace_path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string trace = ss.str();
  // Well-formed JSON object at the top level, balanced braces throughout.
  EXPECT_EQ(trace.front(), '{');
  EXPECT_EQ(trace.back(), '}');
  EXPECT_EQ(std::count(trace.begin(), trace.end(), '{'),
            std::count(trace.begin(), trace.end(), '}'));
  EXPECT_EQ(std::count(trace.begin(), trace.end(), '['),
            std::count(trace.begin(), trace.end(), ']'));

  // Each recorded flow writes exactly one start ("ph":"s") and one finish
  // ("ph":"f") event, and every finish binds to its enclosing slice.
  const auto occurrences = [&trace](const char* needle) {
    std::size_t n = 0;
    for (std::size_t pos = trace.find(needle); pos != std::string::npos;
         pos = trace.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(occurrences("\"ph\":\"s\""), m.trace_flows);
  EXPECT_EQ(occurrences("\"ph\":\"f\""), m.trace_flows);
  EXPECT_EQ(occurrences("\"bp\":\"e\""), m.trace_flows);
  if (m.trace_flows > 0) {
    EXPECT_NE(trace.find("\"cat\":\"rollback\""), std::string::npos);
  }
  // Flow events only exist for rollbacks that had a stamped remote send.
  EXPECT_LE(m.trace_flows,
            m.total.primary_rollbacks() + m.total.secondary_rollbacks());
  std::remove(ec.obs.trace_path.c_str());
}

// ---------------------------------------------------------------------------
// Chrome trace export

TEST(ChromeTrace, WritesLoadableTraceJson) {
  obs::ObsConfig cfg;
  cfg.trace = true;
  cfg.trace_path = ::testing::TempDir() + "obs_test_trace.json";
  const KernelRun r = run_kernel(des::EngineKind::TimeWarp, 4, cfg);
  EXPECT_GT(r.stats.metrics.trace_spans, 0u);

  std::ifstream f(cfg.trace_path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string trace = ss.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(trace.find("\"PE 3\""), std::string::npos);  // all 4 PE tracks
  EXPECT_NE(trace.find("\"forward\""), std::string::npos);
  EXPECT_EQ(trace.front(), '{');
  EXPECT_EQ(trace.back(), '}');
  std::remove(cfg.trace_path.c_str());
}

TEST(ChromeTrace, SpanBudgetDropsInsteadOfGrowing) {
  obs::TraceBuffer buf;
  buf.reset(2);
  buf.add(obs::Phase::Forward, 0, 1);
  buf.add(obs::Phase::Forward, 1, 2);
  buf.add(obs::Phase::Forward, 2, 3);
  EXPECT_EQ(buf.spans().size(), 2u);
  EXPECT_EQ(buf.dropped(), 1u);
}

// ---------------------------------------------------------------------------
// MetricsReport JSON dump

TEST(MetricsReport, WriteJsonEmitsCountersPhasesAndSeries) {
  const KernelRun r =
      run_kernel(des::EngineKind::TimeWarp, 2, obs::ObsConfig{});
  std::ostringstream os;
  util::JsonWriter w(os);
  r.stats.metrics.write_json(w);
  EXPECT_TRUE(w.done());
  const std::string j = os.str();
  EXPECT_NE(j.find("\"processed_events\""), std::string::npos);
  EXPECT_NE(j.find("\"phase_seconds\""), std::string::npos);
  EXPECT_NE(j.find("\"gvt_barrier\""), std::string::npos);
  EXPECT_NE(j.find("\"per_pe\""), std::string::npos);
  EXPECT_NE(j.find("\"gvt_series\""), std::string::npos);
  EXPECT_NE(j.find("\"commit_yield\""), std::string::npos);
  // No telemetry in this run: the latency block must be absent so older
  // consumers of the dump see an unchanged shape.
  EXPECT_EQ(j.find("\"latency\""), std::string::npos);
}

TEST(MetricsReport, WriteJsonEmitsLatencyBlockWhenTelemetryRan) {
  obs::ObsConfig cfg;
  cfg.telemetry = true;
  const KernelRun r = run_kernel(des::EngineKind::TimeWarp, 2, cfg);
  std::ostringstream os;
  util::JsonWriter w(os);
  r.stats.metrics.write_json(w);
  EXPECT_TRUE(w.done());
  const std::string j = os.str();
  for (const char* key :
       {"\"latency\"", "\"queue_dwell_ns\"", "\"commit_latency_ns\"",
        "\"rollback_cost_ns\"", "\"inbox_dwell_ns\"", "\"count\"",
        "\"sum_ns\"", "\"max_ns\"", "\"p50\"", "\"p90\"", "\"p99\"",
        "\"p999\"", "\"telemetry_dropped\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace hp
