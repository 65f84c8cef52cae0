#include "des/engine.hpp"

#include "des/conservative.hpp"
#include "des/sequential.hpp"
#include "des/timewarp.hpp"
#include "util/cli.hpp"

namespace hp::des {

bool parse_gvt_spec(std::string_view spec, EngineConfig& cfg,
                    std::string& err) {
  bool saw_interval = false;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view clause = util::trim(rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (clause.empty()) continue;
    const std::size_t eq = clause.find('=');
    if (eq == std::string_view::npos) {
      err = "--gvt clause '" + std::string(clause) + "' is not key=value";
      return false;
    }
    const std::string_view key = util::trim(clause.substr(0, eq));
    const std::string_view val = util::trim(clause.substr(eq + 1));
    if (key != "interval") {
      err = "--gvt unknown key '" + std::string(key) + "' (expected interval)";
      return false;
    }
    std::uint32_t n = 0;
    if (!util::parse_u32(val, n) || n == 0) {
      err = "--gvt interval expects an integer in [1, 4294967295], got '" +
            std::string(val) + "'";
      return false;
    }
    cfg.gvt_interval_events = n;
    saw_interval = true;
  }
  if (!saw_interval) {
    err = "--gvt requires interval=N";
    return false;
  }
  return true;
}

std::unique_ptr<Engine> make_engine(EngineKind kind, Model& model,
                                    const EngineConfig& cfg,
                                    Time conservative_lookahead) {
  switch (kind) {
    case EngineKind::Sequential:
      return std::make_unique<SequentialEngine>(model, cfg);
    case EngineKind::TimeWarp:
      return std::make_unique<TimeWarpEngine>(model, cfg);
    case EngineKind::Conservative:
      return std::make_unique<ConservativeEngine>(model, cfg,
                                                  conservative_lookahead);
  }
  __builtin_unreachable();
}

}  // namespace hp::des
