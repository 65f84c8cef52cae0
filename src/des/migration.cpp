#include "des/migration.hpp"

#include <algorithm>
#include <cstdio>

#include "util/cli.hpp"

namespace hp::des {

bool MigrationConfig::parse(std::string_view spec, MigrationConfig& out,
                            std::string& err) {
  MigrationConfig cfg;
  cfg.enabled = true;  // the flag's presence arms the balancer
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view clause = util::trim(rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (clause.empty()) continue;

    if (clause == "forced") {
      cfg.forced = true;
      continue;
    }
    const std::size_t eq = clause.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq == clause.size() - 1) {
      err = "migrate: expected key=value or 'forced', got '" +
            std::string(clause) + "'";
      return false;
    }
    const std::string_view key = util::trim(clause.substr(0, eq));
    const std::string_view val = util::trim(clause.substr(eq + 1));
    if (key == "every") {
      std::uint32_t v = 0;
      if (!util::parse_u32(val, v) || v == 0) {
        err = "migrate every: must be a round count in [1, 4294967295], "
              "got '" + std::string(val) + "'";
        return false;
      }
      cfg.interval_rounds = v;
    } else if (key == "imbalance") {
      double v = 0.0;
      if (!util::parse_double(val, v) || v < 1.0) {
        err = "migrate imbalance: must be a number >= 1, got '" +
              std::string(val) + "'";
        return false;
      }
      cfg.imbalance_threshold = v;
    } else if (key == "max") {
      std::uint32_t v = 0;
      if (!util::parse_u32(val, v) || v == 0) {
        err = "migrate max: must be a move count in [1, 4294967295], got '" +
              std::string(val) + "'";
        return false;
      }
      cfg.max_moves = v;
    } else {
      err = "migrate: unknown key '" + std::string(key) +
            "' (expected every, imbalance, max, forced)";
      return false;
    }
  }
  out = cfg;
  return true;
}

std::string MigrationConfig::to_string() const {
  if (!enabled) return "off";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "every=%u,imbalance=%g,max=%u%s",
                interval_rounds, imbalance_threshold, max_moves,
                forced ? ",forced" : "");
  return buf;
}

std::vector<KpMove> plan_migrations(const MigrationConfig& cfg,
                                    const std::vector<PeLoad>& loads,
                                    const std::vector<std::uint32_t>& kp_owner,
                                    std::uint64_t decision_index) {
  std::vector<KpMove> moves;
  const auto num_pes = static_cast<std::uint32_t>(loads.size());
  const auto num_kps = static_cast<std::uint32_t>(kp_owner.size());
  if (num_pes < 2 || num_kps == 0) return moves;

  if (cfg.forced) {
    // Stress rotation: deterministic in the decision index alone, so every
    // due round moves exactly max_moves distinct KPs (or fewer when num_kps
    // is small) one PE to the right. PEs may end up owning zero KPs — the
    // kernel must tolerate that.
    for (std::uint32_t m = 0; m < cfg.max_moves && m < num_kps; ++m) {
      const std::uint32_t kp = static_cast<std::uint32_t>(
          (decision_index * cfg.max_moves + m) % num_kps);
      bool dup = false;
      for (const KpMove& mv : moves) dup = dup || mv.kp == kp;
      if (dup) continue;
      const std::uint32_t src = kp_owner[kp];
      moves.push_back(KpMove{kp, src, (src + 1) % num_pes});
    }
    return moves;
  }

  // Scored mode. One source PE is relieved of one KP per move; a source is
  // never picked twice in a round (its published candidate is gone).
  std::vector<bool> used_src(num_pes, false);
  std::uint64_t total = 0;
  for (const PeLoad& l : loads) total += l.score();
  const double mean =
      static_cast<double>(total) / static_cast<double>(num_pes);
  if (total == 0) return moves;

  for (std::uint32_t m = 0; m < cfg.max_moves; ++m) {
    // Hottest eligible source: must keep at least one KP, must have
    // published a candidate it still owns, and must exceed the imbalance
    // threshold over the mean. Ties break toward the lower PE id.
    std::uint32_t src = num_pes;
    for (std::uint32_t pe = 0; pe < num_pes; ++pe) {
      const PeLoad& l = loads[pe];
      if (used_src[pe] || !l.has_candidate || l.owned_kps < 2) continue;
      if (l.candidate_kp >= num_kps || kp_owner[l.candidate_kp] != pe) continue;
      if (src == num_pes || l.score() > loads[src].score()) src = pe;
    }
    if (src == num_pes) break;
    if (static_cast<double>(loads[src].score()) <
        cfg.imbalance_threshold * mean) {
      break;
    }
    // Coldest destination: lowest score, then least pool pressure, then
    // lowest id. Moving between equally loaded PEs is churn, not balance.
    std::uint32_t dst = num_pes;
    for (std::uint32_t pe = 0; pe < num_pes; ++pe) {
      if (pe == src) continue;
      if (dst == num_pes) {
        dst = pe;
        continue;
      }
      const PeLoad& a = loads[pe];
      const PeLoad& b = loads[dst];
      if (a.score() != b.score() ? a.score() < b.score()
                                 : a.pool_live < b.pool_live) {
        dst = pe;
      }
    }
    if (dst == num_pes || loads[dst].score() >= loads[src].score()) break;
    moves.push_back(KpMove{loads[src].candidate_kp, src, dst});
    used_src[src] = true;
  }
  return moves;
}

}  // namespace hp::des
