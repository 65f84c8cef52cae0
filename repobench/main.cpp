// The measuring half of the repository benchmark (run.py launches it and
// turns its records into metrics). Three fixed workloads, driven through the
// library's public API and timed from outside the library:
//
//   hotpotato_seq  64x64 BHW hot-potato torus on SequentialEngine
//   hotpotato_tw4  the same model, horizon and seed on Time Warp, 4 PEs
//                  (the Fig. 5 harness settings of bench::tw_options)
//   phold_remote4  PHOLD, 1024 LPs, 50% remote, lookahead 0.1, Time Warp
//                  4 PEs (the phold_sweep settings)
//
// Usage:
//   repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   repobench --workload <name> --seed <n> --reference
//
// Timed mode runs one discarded warm-up repetition, then whole repetitions
// (set-up, run, collection) until --seconds have passed. With --trace 1 the
// repetitions alternate between the plain model and the TimedModel
// decorator. Each repetition prints one {"rep": ...} line: its spans, the
// kernel's counters and phase times, the decorator's tallies and the
// fingerprint of what it committed. A final {"process": ...} line gives the
// peak RSS. Reference mode runs the workload once on each reference kernel
// and prints the fingerprints, which must agree: SequentialEngine and Time
// Warp at 1 PE for hot-potato, so no run is checked against its own kernel
// alone, and SequentialEngine for PHOLD. Both modes first print a
// {"provenance": ...} line.
//
// Exit codes: 0 done, 2 usage error, 3 refused (unoptimised or HP_PARANOID
// build: it measures a different program).

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "des/engine.hpp"
#include "des/phold.hpp"
#include "hotpotato/model.hpp"
#include "hotpotato/policy.hpp"
#include "hotpotato/stats.hpp"
#include "net/mapping.hpp"
#include "obs/metrics.hpp"
#include "obs/model_channel.hpp"
#include "timed_model.hpp"
#include "util/hash.hpp"
#include "util/json_writer.hpp"

namespace {

using hp::des::EngineKind;
using Clock = std::chrono::steady_clock;

// Workload sizes: one repetition takes about half a second on a 4-core
// 2 GHz Xeon host.
constexpr std::int32_t kTorusN = 64;  // 4096 routers
constexpr std::uint32_t kHpSteps = 32;
constexpr double kHpInjectors = 0.5;
constexpr std::uint32_t kHpKps = 64;  // bench::tw_options
constexpr std::uint32_t kHpGvtInterval = 1024;
constexpr double kHpWindow = 30.0;
constexpr std::uint32_t kPholdLps = 1024;
constexpr double kPholdEnd = 500.0;
constexpr std::uint32_t kPholdKps = 32;  // bench/phold_sweep
constexpr std::uint32_t kPholdGvtInterval = 1024;
constexpr std::uint32_t kParallelPes = 4;
constexpr int kWarmupReps = 1;

struct Kernel {
  EngineKind kind;
  std::uint32_t pes;
};

enum class ModelKind { HotPotato, Phold };

struct Workload {
  std::string_view name;
  ModelKind model;
  Kernel timed;
  std::span<const Kernel> references;
};

constexpr Kernel kSequential{EngineKind::Sequential, 1};
constexpr Kernel kParallel{EngineKind::TimeWarp, kParallelPes};
constexpr Kernel kHotPotatoReferences[] = {kSequential,
                                           {EngineKind::TimeWarp, 1}};
constexpr Kernel kPholdReferences[] = {kSequential};

// Both hot-potato workloads build the model through the same function from
// the same seed and are checked against the same two reference kernels, so
// they commit the same events and the same channel.
constexpr Workload kWorkloads[] = {
    {"hotpotato_seq", ModelKind::HotPotato, kSequential, kHotPotatoReferences},
    {"hotpotato_tw4", ModelKind::HotPotato, kParallel, kHotPotatoReferences},
    {"phold_remote4", ModelKind::Phold, kParallel, kPholdReferences},
};

// What a run committed: the committed event count, and the whole model
// channel (hot-potato) or the state digest (PHOLD).
struct Outcome {
  std::uint64_t committed = 0;
  hp::obs::ModelChannel channel;
  std::uint64_t digest = 0;

  // FNV-1a over the exact serialisation (doubles print with 17 significant
  // digits, which round-trips), for comparison across processes.
  std::string fingerprint() const {
    std::ostringstream os;
    hp::util::JsonWriter w(os);
    w.begin_object();
    w.kv("committed", committed);
    w.kv("digest", digest);
    w.key("channel");
    channel.write_json(w);
    w.end_object();
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : os.str()) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
  }
};

// One repetition's measurements. Host seconds.
struct Sample {
  double mapping_s = 0.0;  // net mapping construction (Time Warp only)
  double model_s = 0.0;    // hot-potato policy + model construction
  double engine_s = 0.0;   // des::make_engine (LP states, pools)
  double setup_s = 0.0;    // everything before run()
  double run_s = 0.0;      // Engine::run()
  double collect_s = 0.0;  // hotpotato::collect_channel
  double wall_s = 0.0;     // model construction to collected result
  std::uint32_t pes = 1;
  std::uint64_t gvt_rounds = 0;
  hp::obs::PeMetrics total;      // counters and phase ns, summed over PEs
  repobench::HandlerTally handlers;  // traced repetitions only
};

class Lap {
 public:
  double next() {
    const Clock::time_point now = Clock::now();
    const double s = std::chrono::duration<double>(now - last_).count();
    last_ = now;
    return s;
  }
  double total() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  Clock::time_point start_ = Clock::now();
  Clock::time_point last_ = start_;
};

// Builds the engine and runs it, filling the kernel-side fields of `s`. The
// caller collects the outcome from the returned engine.
std::unique_ptr<hp::des::Engine> build_and_run(
    EngineKind kind, hp::des::Model& model, const hp::des::EngineConfig& ec,
    Lap& lap, Sample& s, Outcome& out) {
  std::unique_ptr<hp::des::Engine> eng = hp::des::make_engine(kind, model, ec);
  s.engine_s = lap.next();
  s.setup_s = lap.total();
  const hp::des::RunStats stats = eng->run();
  s.run_s = lap.next();
  out.committed = stats.committed_events();
  s.pes = ec.num_pes;
  s.gvt_rounds = stats.gvt_rounds();
  s.total = stats.metrics.total;
  return eng;
}

Outcome run_hotpotato(std::uint64_t seed, const Kernel& k, bool traced,
                      Sample& s) {
  Lap lap;
  hp::hotpotato::HotPotatoConfig mc;
  mc.n = kTorusN;
  mc.injector_fraction = kHpInjectors;
  mc.steps = kHpSteps;
  mc.selection_seed = hp::util::hash_combine(0x5eedU, seed);
  hp::hotpotato::BhwPolicy policy(mc.n);
  mc.policy = &policy;
  hp::hotpotato::HotPotatoModel model(mc);
  s.model_s = lap.next();

  hp::des::EngineConfig ec;
  ec.seed = seed;
  ec.num_lps = mc.num_lps();
  ec.end_time = mc.end_time();
  std::unique_ptr<hp::net::BlockMapping> mapping;
  if (k.kind == EngineKind::TimeWarp) {
    ec.num_pes = k.pes;
    ec.num_kps = kHpKps;
    ec.gvt_interval_events = kHpGvtInterval;
    ec.optimism_window = kHpWindow;
    mapping = std::make_unique<hp::net::BlockMapping>(mc.n, kHpKps, k.pes);
    ec.mapping = mapping.get();
    s.mapping_s = lap.next();
  }

  std::optional<repobench::TimedModel> timed;
  hp::des::Model* driven = &model;
  if (traced) driven = &timed.emplace(model);
  Outcome out;
  const std::unique_ptr<hp::des::Engine> eng =
      build_and_run(k.kind, *driven, ec, lap, s, out);
  out.channel = hp::hotpotato::collect_channel(*eng, mc.steps);
  s.collect_s = lap.next();
  s.wall_s = lap.total();
  if (timed) s.handlers = timed->totals();
  return out;
}

Outcome run_phold(std::uint64_t seed, const Kernel& k, bool traced,
                  Sample& s) {
  Lap lap;
  hp::des::PholdConfig pc;
  pc.num_lps = kPholdLps;
  pc.population_per_lp = 4;
  pc.remote_fraction = 0.5;
  pc.lookahead = 0.1;
  hp::des::PholdModel model(pc);
  lap.next();  // not a hot-potato layer: counted in setup_s only

  hp::des::EngineConfig ec;
  ec.seed = seed;
  ec.num_lps = pc.num_lps;
  ec.end_time = kPholdEnd;
  std::unique_ptr<hp::net::LinearMapping> mapping;
  if (k.kind == EngineKind::TimeWarp) {
    ec.num_pes = k.pes;
    ec.num_kps = kPholdKps;
    ec.gvt_interval_events = kPholdGvtInterval;
    ec.optimism_window = 10.0 * pc.mean_delay;
    mapping = std::make_unique<hp::net::LinearMapping>(pc.num_lps, kPholdKps,
                                                       k.pes);
    ec.mapping = mapping.get();
    s.mapping_s = lap.next();
  }

  std::optional<repobench::TimedModel> timed;
  hp::des::Model* driven = &model;
  if (traced) driven = &timed.emplace(model);
  Outcome out;
  const std::unique_ptr<hp::des::Engine> eng =
      build_and_run(k.kind, *driven, ec, lap, s, out);
  out.digest = hp::des::PholdModel::digest(*eng);
  s.wall_s = lap.total();
  if (timed) s.handlers = timed->totals();
  return out;
}

Outcome run_once(const Workload& w, const Kernel& k, std::uint64_t seed,
                 bool traced, Sample& s) {
  return w.model == ModelKind::HotPotato ? run_hotpotato(seed, k, traced, s)
                                         : run_phold(seed, k, traced, s);
}

void print_rep(const Sample& s, bool traced, const Outcome& o) {
  hp::util::JsonWriter j(std::cout);
  j.begin_object().key("rep").begin_object();
  j.kv("traced", traced);
  j.kv("outcome", o.fingerprint());
  j.kv("mapping_s", s.mapping_s);
  j.kv("model_s", s.model_s);
  j.kv("engine_s", s.engine_s);
  j.kv("setup_s", s.setup_s);
  j.kv("run_s", s.run_s);
  j.kv("collect_s", s.collect_s);
  j.kv("wall_s", s.wall_s);
  j.kv("pes", s.pes);
  j.kv("gvt_rounds", s.gvt_rounds);
  j.key("counters").begin_object();
  for (std::size_t c = 0; c < hp::obs::kNumCounters; ++c) {
    j.kv(hp::obs::kCounterDefs[c].name, s.total.counters[c]);
  }
  j.end_object();
  j.key("phase_s").begin_object();
  for (std::size_t p = 0; p < hp::obs::kNumPhases; ++p) {
    j.kv(hp::obs::phase_name(static_cast<hp::obs::Phase>(p)),
         static_cast<double>(s.total.phase_ns[p]) * 1e-9);
  }
  j.end_object();
  const repobench::HandlerTally& h = s.handlers;
  j.key("handlers").begin_object();
  j.kv("forward_calls", h.forward_calls);
  j.kv("forward_ns_per_call", h.forward_ns_per_call());
  j.kv("reverse_calls", h.reverse_calls);
  j.kv("reverse_ns", h.reverse_ns);
  j.kv("commit_calls", h.commit_calls);
  j.kv("handler_ns", h.handler_ns());
  j.end_object();
  j.end_object().end_object();
  std::cout << std::endl;  // a later abort must not lose this repetition
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const char* build_refusal() {
#if defined(HP_TW_PARANOID)
  return "built with HP_PARANOID: every reverse handler is re-verified "
         "against a state snapshot";
#elif !defined(__OPTIMIZE__)
  return "built without optimisation";
#else
  return nullptr;
#endif
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    unsigned int regs[12] = {};
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    const std::string s(brand);
    const std::size_t b = s.find_first_not_of(' ');
    if (b != std::string::npos) {
      return s.substr(b, s.find_last_not_of(' ') - b + 1);
    }
  }
#endif
  return "unknown";
}

void print_provenance(const Workload& w) {
  hp::util::JsonWriter j(std::cout);
  j.begin_object().key("provenance").begin_object();
  j.kv("hardware_concurrency",
       static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.kv("cpu_model", cpu_model());
#if defined(__clang__)
  j.kv("compiler", "clang " __clang_version__);
#else
  j.kv("compiler", "gcc " __VERSION__);
#endif
  j.kv("build_type", REPOBENCH_BUILD_TYPE);
  j.kv("timed_kernel", hp::des::kind_name(w.timed.kind));
  j.kv("timed_pes", w.timed.pes);
  j.key("reference_kernels").begin_array();
  for (const Kernel& k : w.references) {
    j.value(std::string(hp::des::kind_name(k.kind)) + "/" +
            std::to_string(k.pes) + "pe");
  }
  j.end_array();
  j.kv("warmup_reps_per_process", static_cast<std::int64_t>(kWarmupReps));
  j.end_object().end_object();
  std::cout << "\n";
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool reference = false;
};

bool parse_number(const char* v, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(v, &end, 10);
  return end != v && *end == '\0';
}

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--reference") {
      a.reference = true;
      continue;
    }
    if (i + 1 == argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == v) a.workload = &w;
      }
      if (a.workload == nullptr) return false;
    } else if (flag == "--seed") {
      have_seed = parse_number(v, a.seed);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      a.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && a.seconds > 0.0;
    } else if (flag == "--trace") {
      a.trace = std::string_view(v) == "1";
      have_trace = a.trace || std::string_view(v) == "0";
    } else {
      return false;
    }
  }
  return a.workload != nullptr && have_seed &&
         (a.reference || (have_seconds && have_trace));
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: repobench --workload <name> --seed <n> "
                 "(--seconds <s> --trace <0|1> | --reference)\n");
    return 2;
  }
  if (const char* why = build_refusal()) {
    std::fprintf(stderr, "repobench: refusing to run: %s\n", why);
    return 3;
  }
  const Workload& w = *args.workload;
  print_provenance(w);

  if (args.reference) {
    hp::util::JsonWriter j(std::cout);
    j.begin_object().key("reference").begin_array();
    for (const Kernel& k : w.references) {
      Sample s;
      const Outcome o = run_once(w, k, args.seed, false, s);
      j.begin_object();
      j.kv("kernel", hp::des::kind_name(k.kind));
      j.kv("pes", k.pes);
      j.kv("outcome", o.fingerprint());
      j.kv("committed", o.committed);
      j.end_object();
    }
    j.end_array().end_object();
    std::cout << std::endl;
    return 0;
  }

  for (int i = 0; i < kWarmupReps; ++i) {
    Sample discard;
    run_once(w, w.timed, args.seed, false, discard);
  }
  const Lap loop;
  do {
    for (const bool traced : {false, true}) {
      if (traced && !args.trace) continue;
      Sample s;
      const Outcome o = run_once(w, w.timed, args.seed, traced, s);
      print_rep(s, traced, o);
    }
  } while (loop.total() < args.seconds);

  hp::util::JsonWriter j(std::cout);
  j.begin_object().key("process").begin_object();
  j.kv("peak_rss_mb", peak_rss_mb());
  j.end_object().end_object();
  std::cout << std::endl;
  return 0;
}
