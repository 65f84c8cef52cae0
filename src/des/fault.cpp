#include "des/fault.hpp"

#include <cstdio>
#include <vector>

#include "util/cli.hpp"

namespace hp::des {

namespace {

// One key=value pair inside a clause.
struct KeyVal {
  std::string_view key;
  std::string_view val;
};

bool parse_prob(std::string_view s, double& out, std::string& err,
                std::string_view clause) {
  double v = 0.0;
  if (!util::parse_double(s, v) || v < 0.0 || v > 1.0) {
    err = "chaos clause '" + std::string(clause) +
          "': probability must be a number in [0,1], got '" + std::string(s) +
          "'";
    return false;
  }
  out = v;
  return true;
}

// Splits "key=val,key=val" after the clause name; false on malformed pairs.
bool split_kvs(std::string_view body, std::vector<KeyVal>& out,
               std::string& err, std::string_view clause) {
  while (!body.empty()) {
    const std::size_t comma = body.find(',');
    std::string_view pair = util::trim(body.substr(0, comma));
    body = comma == std::string_view::npos ? std::string_view{}
                                           : body.substr(comma + 1);
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq == pair.size() - 1) {
      err = "chaos clause '" + std::string(clause) +
            "': expected key=value, got '" + std::string(pair) + "'";
      return false;
    }
    out.push_back(
        {util::trim(pair.substr(0, eq)), util::trim(pair.substr(eq + 1))});
  }
  return true;
}

}  // namespace

bool FaultPlan::parse(std::string_view spec, FaultPlan& out, std::string& err) {
  FaultPlan plan;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    std::string_view clause = util::trim(rest.substr(0, semi));
    rest = semi == std::string_view::npos ? std::string_view{}
                                          : rest.substr(semi + 1);
    if (clause.empty()) continue;

    const std::size_t colon = clause.find(':');
    std::string_view name = util::trim(clause.substr(0, colon));
    std::string_view body =
        colon == std::string_view::npos ? std::string_view{}
                                        : clause.substr(colon + 1);

    // Bare `seed=N` clause (no colon form).
    if (name.substr(0, 5) == "seed=" && colon == std::string_view::npos) {
      if (!util::parse_u64(util::trim(name.substr(5)), plan.seed)) {
        err = "chaos seed: expected unsigned integer, got '" +
              std::string(name.substr(5)) + "'";
        return false;
      }
      continue;
    }

    // `seed:42` tolerated alongside the documented `seed=42` (the body is a
    // bare value, not key=value pairs, so it must dodge split_kvs).
    if (name == "seed") {
      if (!util::parse_u64(util::trim(body), plan.seed)) {
        err = "chaos seed: expected seed=<unsigned integer>";
        return false;
      }
      continue;
    }

    std::vector<KeyVal> kvs;
    if (!split_kvs(body, kvs, err, clause)) return false;

    // A probability-kind clause without p= is a silent no-op the user surely
    // did not intend; require it.
    bool have_p = false;
    if (name == "delay") {
      for (const KeyVal& kv : kvs) {
        if (kv.key == "p") {
          if (!parse_prob(kv.val, plan.delay_prob, err, clause)) return false;
          have_p = true;
        } else if (kv.key == "k") {
          std::uint32_t k = 0;
          if (!util::parse_u32(kv.val, k) || k == 0) {
            err = "chaos delay: k must be an integer in [1, 4294967295], "
                  "got '" + std::string(kv.val) + "'";
            return false;
          }
          plan.delay_rounds = k;
        } else {
          err = "chaos delay: unknown key '" + std::string(kv.key) + "'";
          return false;
        }
      }
    } else if (name == "reorder") {
      for (const KeyVal& kv : kvs) {
        if (kv.key == "p") {
          if (!parse_prob(kv.val, plan.reorder_prob, err, clause)) return false;
          have_p = true;
        } else {
          err = "chaos reorder: unknown key '" + std::string(kv.key) + "'";
          return false;
        }
      }
    } else if (name == "straggler") {
      for (const KeyVal& kv : kvs) {
        if (kv.key == "p") {
          if (!parse_prob(kv.val, plan.straggler_prob, err, clause)) {
            return false;
          }
          have_p = true;
        } else if (kv.key == "margin" || kv.key == "m") {
          double m = 0.0;
          if (!util::parse_double(kv.val, m) || m <= 0.0) {
            err = "chaos straggler: margin must be > 0, got '" +
                  std::string(kv.val) + "'";
            return false;
          }
          plan.straggler_margin = m;
        } else {
          err = "chaos straggler: unknown key '" + std::string(kv.key) + "'";
          return false;
        }
      }
    } else if (name == "dup-anti") {
      for (const KeyVal& kv : kvs) {
        if (kv.key == "p") {
          if (!parse_prob(kv.val, plan.dup_anti_prob, err, clause)) {
            return false;
          }
          have_p = true;
        } else {
          err = "chaos dup-anti: unknown key '" + std::string(kv.key) + "'";
          return false;
        }
      }
    } else if (name == "stall") {
      bool have_pe = false;
      for (const KeyVal& kv : kvs) {
        if (kv.key == "pe") {
          std::uint64_t pe = 0;
          if (!util::parse_u64(kv.val, pe) || pe >= kNoStallPe) {
            err = "chaos stall: pe must be an unsigned PE index, got '" +
                  std::string(kv.val) + "'";
            return false;
          }
          plan.stall_pe = static_cast<std::uint32_t>(pe);
          have_pe = true;
        } else if (kv.key == "rounds") {
          if (!util::parse_u64(kv.val, plan.stall_rounds) ||
              plan.stall_rounds == 0) {
            err = "chaos stall: rounds must be a positive integer, got '" +
                  std::string(kv.val) + "'";
            return false;
          }
        } else if (kv.key == "at") {
          if (!util::parse_u64(kv.val, plan.stall_at)) {
            err = "chaos stall: at must be an unsigned round index, got '" +
                  std::string(kv.val) + "'";
            return false;
          }
        } else {
          err = "chaos stall: unknown key '" + std::string(kv.key) + "'";
          return false;
        }
      }
      if (!have_pe || plan.stall_rounds == 0) {
        err = "chaos stall: requires pe=<index> and rounds=<n>";
        return false;
      }
    } else {
      err = "chaos: unknown fault kind '" + std::string(name) +
            "' (expected delay, reorder, straggler, dup-anti, stall, seed)";
      return false;
    }
    if (name != "stall" && !have_p) {
      err = "chaos " + std::string(name) + ": requires p=<probability>";
      return false;
    }
  }
  out = plan;
  return true;
}

std::string FaultPlan::to_string() const {
  if (!any()) return "off";
  std::string s;
  char buf[96];
  const auto add = [&s](const char* piece) {
    if (!s.empty()) s += ";";
    s += piece;
  };
  if (delay_prob > 0.0) {
    std::snprintf(buf, sizeof(buf), "delay:p=%g,k=%u", delay_prob,
                  delay_rounds);
    add(buf);
  }
  if (reorder_prob > 0.0) {
    std::snprintf(buf, sizeof(buf), "reorder:p=%g", reorder_prob);
    add(buf);
  }
  if (straggler_prob > 0.0) {
    std::snprintf(buf, sizeof(buf), "straggler:p=%g,margin=%g", straggler_prob,
                  straggler_margin);
    add(buf);
  }
  if (dup_anti_prob > 0.0) {
    std::snprintf(buf, sizeof(buf), "dup-anti:p=%g", dup_anti_prob);
    add(buf);
  }
  if (stall_pe != kNoStallPe && stall_rounds > 0) {
    std::snprintf(buf, sizeof(buf), "stall:pe=%u,rounds=%llu,at=%llu",
                  stall_pe, static_cast<unsigned long long>(stall_rounds),
                  static_cast<unsigned long long>(stall_at));
    add(buf);
  }
  std::snprintf(buf, sizeof(buf), "seed=%llu",
                static_cast<unsigned long long>(seed));
  add(buf);
  return s;
}

}  // namespace hp::des
