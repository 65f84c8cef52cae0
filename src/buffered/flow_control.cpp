#include "buffered/flow_control.hpp"

#include <algorithm>
#include <cstdio>

#include "util/cli.hpp"
#include "util/hash.hpp"
#include "util/macros.hpp"

namespace hp::fc {

namespace {

// Registered metric ids for the fc model channel; names shared with the
// hot-potato channel where the semantics match, so the bench's per-row model
// dumps read uniformly.
struct FcChannel {
  obs::ModelChannel::Id injected, delivered, flits_injected, flits_absorbed,
      flit_moves, stalls, credits_returned, pending_waiting;
  obs::ModelChannel::Id pending_wait_steps, delivery_steps_sum,
      delivery_distance_sum, inject_wait_sum;
  obs::ModelChannel::Id max_inject_wait, max_queue_depth;
  obs::ModelChannel::Id delivery_hist;

  explicit FcChannel(obs::ModelChannel& ch) {
    injected = ch.counter("injected");
    delivered = ch.counter("delivered");
    flits_injected = ch.counter("flits_injected");
    flits_absorbed = ch.counter("flits_absorbed");
    flit_moves = ch.counter("flit_moves");
    stalls = ch.counter("stalls");
    credits_returned = ch.counter("credits_returned");
    pending_waiting = ch.counter("pending_waiting");
    pending_wait_steps = ch.real("pending_wait_steps");
    delivery_steps_sum = ch.real("delivery_steps_sum");
    delivery_distance_sum = ch.real("delivery_distance_sum");
    inject_wait_sum = ch.real("inject_wait_sum");
    max_inject_wait = ch.real_max("max_inject_wait");
    max_queue_depth = ch.real_max("max_queue_depth");
    delivery_hist = ch.hist("delivery_hist");
  }
};

}  // namespace

bool parse_kind(std::string_view name, Kind& out) {
  for (const Kind k : kAllKinds) {
    if (name == kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

bool FlowControlConfig::parse(std::string_view spec, FlowControlConfig& out,
                              std::string& err) {
  FlowControlConfig cfg = out;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view clause = util::trim(rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (clause.empty()) continue;

    const std::size_t eq = clause.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq == clause.size() - 1) {
      err = "fc: expected key=value, got '" + std::string(clause) + "'";
      return false;
    }
    const std::string_view key = util::trim(clause.substr(0, eq));
    const std::string_view val = util::trim(clause.substr(eq + 1));
    if (key == "scheme") {
      if (!parse_kind(val, cfg.scheme)) {
        err = "fc scheme: expected saf, vct or wormhole, got '" +
              std::string(val) + "'";
        return false;
      }
    } else if (key == "qcap") {
      std::uint32_t v = 0;
      if (!util::parse_u32(val, v) || v == 0) {
        err = "fc qcap: must be a positive flit count, got '" +
              std::string(val) + "'";
        return false;
      }
      cfg.queue_capacity = v;
    } else if (key == "flit") {
      std::uint32_t v = 0;
      if (!util::parse_u32(val, v) || v == 0) {
        err = "fc flit: must be a positive flits-per-packet count, got '" +
              std::string(val) + "'";
        return false;
      }
      cfg.flits_per_packet = v;
    } else if (key == "credit_delay") {
      std::uint32_t v = 0;
      if (!util::parse_u32(val, v) || v == 0) {
        err = "fc credit_delay: must be a positive step count, got '" +
              std::string(val) + "'";
        return false;
      }
      cfg.credit_delay = v;
    } else {
      err = "fc: unknown key '" + std::string(key) +
            "' (expected scheme, qcap, flit, credit_delay)";
      return false;
    }
  }
  if (cfg.scheme != Kind::Wormhole &&
      cfg.queue_capacity < cfg.flits_per_packet) {
    err = std::string("fc: ") + kind_name(cfg.scheme) +
          " buffers whole packets, so qcap (" +
          std::to_string(cfg.queue_capacity) + ") must be >= flit (" +
          std::to_string(cfg.flits_per_packet) + ")";
    return false;
  }
  out = cfg;
  return true;
}

std::string FlowControlConfig::to_string() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "scheme=%s,qcap=%u,flit=%u,credit_delay=%u",
                kind_name(scheme), queue_capacity, flits_per_packet,
                credit_delay);
  return buf;
}

FlowControlScheme::FlowControlScheme(const FlowControlConfig& cfg)
    : cfg_(cfg), grid_(cfg.n, cfg.topology), rng_(cfg.seed) {
  HP_ASSERT(cfg_.queue_capacity >= 1, "need at least one buffer slot");
  HP_ASSERT(cfg_.flits_per_packet >= 1, "need at least one flit per packet");
  HP_ASSERT(cfg_.credit_delay >= 1,
            "credit return takes at least one step (got %u)",
            cfg_.credit_delay);
  HP_ASSERT(cfg_.injector_fraction >= 0.0 && cfg_.injector_fraction <= 1.0,
            "injector_fraction out of [0,1]: %f", cfg_.injector_fraction);
  HP_ASSERT(cfg_.steps >= 1, "need at least one step");
  nodes_.resize(grid_.num_nodes());
  for (std::uint32_t r = 0; r < grid_.num_nodes(); ++r) {
    Node& node = nodes_[r];
    for (const net::Dir d : net::kAllDirs) {
      node.in[net::dir_index(d)] = BufferModel(cfg_.queue_capacity);
      OutputPort& op = node.out[net::dir_index(d)];
      op.exists = grid_.has_link(r, d);
      op.credits = op.exists ? cfg_.queue_capacity : 0;
    }
    // One-step delivery bins out to the horizon; same layout on every
    // router so the per-router histograms merge.
    node.stats.delivery_hist = util::Histogram(0.0, 1.0, cfg_.steps + 2);
    // The same deterministic per-router coin the hot-potato model uses, so
    // matched configurations inject from the same router set.
    if (cfg_.injector_fraction >= 1.0) {
      node.is_injector = true;
    } else if (cfg_.injector_fraction > 0.0) {
      const std::uint64_t h =
          util::splitmix64(util::hash_combine(cfg_.selection_seed, r));
      const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
      node.is_injector = u < cfg_.injector_fraction;
    }
  }
}

void FlowControlScheme::mature_credits() {
  while (!credit_msgs_.empty() && credit_msgs_.front().due_step <= step_) {
    const CreditMsg m = credit_msgs_.front();
    credit_msgs_.pop_front();
    OutputPort& op = nodes_[m.router].out[m.out_dir];
    ++op.credits;
    HP_ASSERT(op.credits <= cfg_.queue_capacity,
              "credit overflow on router %u dir %u: %u > %u", m.router,
              m.out_dir, op.credits, cfg_.queue_capacity);
    ++nodes_[m.router].stats.credits_returned;
  }
}

void FlowControlScheme::step() {
  ++step_;
  mature_credits();
  for (Node& node : nodes_) {
    for (OutputPort& op : node.out) op.used_this_step = false;
  }
  // Decisions read only the deciding router's own state (credits stand in
  // for downstream occupancy); arrivals apply after every router has moved,
  // so a flit advances at most one hop per step and iteration order cannot
  // leak across routers.
  std::vector<Arrival> arrivals;
  arrivals.reserve(nodes_.size());
  for (std::uint32_t r = 0; r < grid_.num_nodes(); ++r) {
    for (const net::Dir d : net::kAllDirs) process_input_port(r, d, arrivals);
    process_source_port(r, arrivals);
  }
  for (const Arrival& a : arrivals) {
    Node& node = nodes_[a.router];
    node.in[a.in_dir].push(a.flit);
    node.stats.max_queue_depth = std::max<std::uint64_t>(
        node.stats.max_queue_depth, node.in[a.in_dir].occupancy());
  }
}

void FlowControlScheme::process_input_port(std::uint32_t r, net::Dir port,
                                           std::vector<Arrival>& arrivals) {
  if (!grid_.has_link(r, port)) return;
  Node& node = nodes_[r];
  BufferModel& buf = node.in[net::dir_index(port)];
  if (buf.empty()) return;
  const Flit f = buf.front();
  net::Dir out;
  bool packet_complete = true;
  if (is_head(f.type)) {
    // Buffered flits are never at their destination (flits absorb on
    // arrival), so the dimension-order next hop is well-defined.
    out = grid_.home_run_dir(r, f.dst);
    packet_complete = buf.head_packet_complete(cfg_.flits_per_packet);
  } else {
    out = buf.route();
  }
  if (!try_send(r, static_cast<std::uint8_t>(net::dir_index(port)), out, f,
                packet_complete, arrivals)) {
    ++node.stats.stalls;
    return;
  }
  buf.pop();
  if (is_head(f.type)) buf.set_route(out);
  if (is_tail(f.type)) buf.clear_route();
  // The freed slot flows back to the upstream sender as a credit event.
  const std::uint32_t up = grid_.neighbor(r, port);
  credit_msgs_.push_back(CreditMsg{
      step_ + cfg_.credit_delay, up,
      static_cast<std::uint8_t>(net::dir_index(net::opposite(port)))});
}

void FlowControlScheme::process_source_port(std::uint32_t r,
                                            std::vector<Arrival>& arrivals) {
  Node& node = nodes_[r];
  SourcePort& sp = node.src;
  if (!sp.has_pending) {
    if (!node.is_injector) return;
    // One pending packet per source, regenerated on completion. Draw order
    // is ascending router id, so the stream is deterministic.
    const hotpotato::TrafficDraw draw =
        hotpotato::draw_traffic_destination(grid_, cfg_.traffic, r, rng_);
    sp.has_pending = true;
    sp.launched = false;
    sp.flits_sent = 0;
    sp.dst = draw.dst;
    sp.distance = static_cast<std::uint16_t>(grid_.distance(r, draw.dst));
    sp.pending_since = step_;
  }
  const Flit f{flit_type_at(sp.flits_sent, cfg_.flits_per_packet), sp.dst,
               sp.launched ? sp.birth_step : step_, sp.distance};
  // The whole packet sits in the source NIC, so it always counts as fully
  // buffered; admission is gated purely by downstream credits — that gate
  // IS the flow control the paper's title refers to.
  const net::Dir out = sp.launched ? sp.route : grid_.home_run_dir(r, sp.dst);
  if (!try_send(r, kSourcePort, out, f, /*packet_complete=*/true, arrivals)) {
    // Pre-launch blocking is measured as injection wait; mid-packet
    // blocking holds the link and counts as a stall like any other.
    if (sp.launched) ++node.stats.stalls;
    return;
  }
  ++node.stats.flits_injected;
  if (!sp.launched) {
    sp.launched = true;
    sp.route = out;
    sp.birth_step = step_;
    ++node.stats.injected;
    node.stats.any_injected = true;
    const double wait = static_cast<double>(step_ - sp.pending_since);
    node.stats.inject_wait_sum += wait;
    node.stats.max_inject_wait = std::max(node.stats.max_inject_wait, wait);
  }
  ++sp.flits_sent;
  if (sp.flits_sent == cfg_.flits_per_packet) {
    sp.has_pending = false;
    sp.launched = false;
    sp.flits_sent = 0;
  }
}

bool FlowControlScheme::try_send(std::uint32_t r, std::uint8_t from_port,
                                 net::Dir out, const Flit& f,
                                 bool packet_complete,
                                 std::vector<Arrival>& arrivals) {
  Node& node = nodes_[r];
  HP_ASSERT(grid_.has_link(r, out), "router %u routing across missing %s link",
            r, net::dir_name(out));
  OutputPort& op = node.out[net::dir_index(out)];
  if (op.used_this_step) return false;
  if (op.owner != kNoOwner && op.owner != from_port) return false;
  const std::uint32_t dst_router = grid_.neighbor(r, out);
  const bool absorbing = dst_router == f.dst;
  if (is_head(f.type)) {
    if (requires_full_packet_buffering() && !packet_complete) return false;
    // Absorption consumes the flit at the destination NIC — no downstream
    // buffer slot, hence no credit, is needed.
    if (!absorbing && op.credits < min_credits_for_head()) return false;
  } else if (!absorbing && op.credits < 1) {
    return false;
  }
  op.used_this_step = true;
  op.owner = is_tail(f.type) ? kNoOwner : from_port;
  if (!absorbing) --op.credits;
  ++node.stats.flit_moves;
  if (absorbing) {
    absorb(dst_router, f);
  } else {
    arrivals.push_back(Arrival{
        dst_router,
        static_cast<std::uint8_t>(net::dir_index(net::opposite(out))), f});
  }
  return true;
}

void FlowControlScheme::absorb(std::uint32_t dst_router, const Flit& f) {
  RouterStats& st = nodes_[dst_router].stats;
  ++st.flits_absorbed;
  if (is_tail(f.type)) {
    ++st.delivered;
    const double steps = static_cast<double>(step_ - f.birth_step + 1);
    st.delivery_steps_sum += steps;
    st.delivery_distance_sum += static_cast<double>(f.initial_distance);
    st.delivery_hist.add(steps);
  }
}

void FlowControlScheme::seed_packet(std::uint32_t src, std::uint32_t dst) {
  HP_ASSERT(src < grid_.num_nodes() && dst < grid_.num_nodes() && src != dst,
            "seed_packet(%u, %u) on a %u-router network", src, dst,
            grid_.num_nodes());
  SourcePort& sp = nodes_[src].src;
  HP_ASSERT(!sp.has_pending, "router %u already holds a pending packet", src);
  sp.has_pending = true;
  sp.launched = false;
  sp.flits_sent = 0;
  sp.dst = dst;
  sp.distance = static_cast<std::uint16_t>(grid_.distance(src, dst));
  sp.pending_since = step_;
}

std::uint64_t FlowControlScheme::flits_in_network() const noexcept {
  std::uint64_t total = 0;
  for (const Node& node : nodes_) {
    for (const BufferModel& buf : node.in) total += buf.occupancy();
  }
  return total;
}

bool FlowControlScheme::quiescent() const noexcept {
  if (!credit_msgs_.empty()) return false;
  for (const Node& node : nodes_) {
    if (node.src.has_pending) return false;
    for (const BufferModel& buf : node.in) {
      if (!buf.empty()) return false;
    }
    for (const OutputPort& op : node.out) {
      if (op.exists && op.credits != cfg_.queue_capacity) return false;
    }
  }
  return true;
}

obs::ModelChannel FlowControlScheme::collect_channel() const {
  obs::ModelChannel ch;
  FcChannel c(ch);
  for (std::uint32_t r = 0; r < grid_.num_nodes(); ++r) {
    const Node& node = nodes_[r];
    const RouterStats& st = node.stats;
    ch.add(c.injected, st.injected);
    ch.add(c.delivered, st.delivered);
    ch.add(c.flits_injected, st.flits_injected);
    ch.add(c.flits_absorbed, st.flits_absorbed);
    ch.add(c.flit_moves, st.flit_moves);
    ch.add(c.stalls, st.stalls);
    ch.add(c.credits_returned, st.credits_returned);
    // Mid-wait accounting mirrors the hot-potato channel: a packet that
    // never launched counts against the collection horizon.
    if (node.src.has_pending && !node.src.launched) {
      ch.add(c.pending_waiting, 1);
      ch.add_real(c.pending_wait_steps,
                  static_cast<double>(step_ - node.src.pending_since));
    }
    ch.add_real(c.delivery_steps_sum, st.delivery_steps_sum);
    ch.add_real(c.delivery_distance_sum, st.delivery_distance_sum);
    ch.add_real(c.inject_wait_sum, st.inject_wait_sum);
    if (st.any_injected) ch.push_max(c.max_inject_wait, st.max_inject_wait);
    if (st.max_queue_depth > 0) {
      ch.push_max(c.max_queue_depth,
                  static_cast<double>(st.max_queue_depth));
    }
    ch.merge_hist(c.delivery_hist, st.delivery_hist);
  }
  return ch;
}

FcReport FlowControlScheme::run() {
  for (std::uint32_t s = 0; s < cfg_.steps; ++s) step();
  return report();
}

FcReport report_from_channel(const obs::ModelChannel& ch) {
  FcReport r;
  r.injected = ch.counter_value("injected");
  r.delivered = ch.counter_value("delivered");
  r.flits_injected = ch.counter_value("flits_injected");
  r.flits_absorbed = ch.counter_value("flits_absorbed");
  r.flit_moves = ch.counter_value("flit_moves");
  r.stalls = ch.counter_value("stalls");
  r.credits_returned = ch.counter_value("credits_returned");
  r.pending_waiting = ch.counter_value("pending_waiting");
  r.pending_wait_steps = ch.real_value("pending_wait_steps");
  r.delivery_steps_sum = ch.real_value("delivery_steps_sum");
  r.delivery_distance_sum = ch.real_value("delivery_distance_sum");
  r.inject_wait_sum = ch.real_value("inject_wait_sum");
  r.max_inject_wait = ch.real_value("max_inject_wait");
  r.max_queue_depth = ch.real_value("max_queue_depth");
  if (const util::Histogram* h = ch.hist_value("delivery_hist")) {
    r.delivery_hist = *h;
  }
  return r;
}

std::string FcReport::summary_line() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "delivered=%llu injected=%llu avg_delivery=%.3f "
                "per_hop=%.3f avg_wait=%.3f max_wait=%.0f stalls=%llu",
                static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(injected),
                avg_delivery_steps(), per_hop_latency(), avg_inject_wait(),
                max_inject_wait, static_cast<unsigned long long>(stalls));
  return buf;
}

}  // namespace hp::fc
