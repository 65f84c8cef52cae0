#include "des/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "des/lp_state.hpp"
#include "util/cli.hpp"
#include "util/macros.hpp"
#include "util/rng.hpp"

namespace hp::des {

namespace {

constexpr std::uint32_t kMagic = 0x4850434bu;  // "HPCK" little-endian
constexpr std::uint32_t kVersion = 1;
// Smallest encoded records: an LP's RNG state, draw count and state length,
// and an event's key, send time and payload length. A count field that
// claims more records than the remaining payload could hold is corrupt, and
// is rejected before it sizes an allocation.
constexpr std::size_t kMinLpRecordBytes = 8 + 8 + 8;
constexpr std::size_t kMinEventRecordBytes = 8 + 8 + 4 + 4 + 4 + 8 + 4;

// FNV-1a over the payload; cheap, order-sensitive, and good enough to catch
// the failure modes that matter here (truncation, torn writes, bit rot).
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

bool CheckpointConfig::parse(std::string_view spec, CheckpointConfig& out,
                             std::string& err) {
  CheckpointConfig cfg;
  bool saw_every = false;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view pair = util::trim(rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq == pair.size() - 1) {
      err = "checkpoint: expected key=value, got '" + std::string(pair) + "'";
      return false;
    }
    const std::string_view key = util::trim(pair.substr(0, eq));
    const std::string_view val = util::trim(pair.substr(eq + 1));
    if (key == "every") {
      if (!util::parse_u64(val, cfg.every) || cfg.every == 0) {
        err = "checkpoint: every expects a positive integer, got '" +
              std::string(val) + "'";
        return false;
      }
      saw_every = true;
    } else if (key == "dir") {
      cfg.dir = std::string(val);
    } else {
      err = "checkpoint: unknown key '" + std::string(key) +
            "' (expected every, dir)";
      return false;
    }
  }
  if (!saw_every) {
    err = "checkpoint: missing required every=N";
    return false;
  }
  out = cfg;
  return true;
}

std::string CheckpointConfig::to_string() const {
  if (!enabled()) return "off";
  return "every=" + std::to_string(every) + ",dir=" + dir;
}

void CheckpointImage::encode(util::ByteSink& sink) const {
  sink.u64(seed);
  sink.u32(num_lps);
  sink.f64(fence);
  sink.f64(end_time);
  sink.u64(committed);
  sink.u64(lps.size());
  for (const CheckpointLpRecord& lp : lps) {
    sink.u64(lp.rng_state);
    sink.u64(lp.rng_draws);
    sink.u64(lp.state.size());
    sink.bytes(lp.state.data(), lp.state.size());
  }
  sink.u64(events.size());
  for (const CheckpointEventRecord& ev : events) {
    sink.f64(ev.key.ts);
    sink.u64(ev.key.tie);
    sink.u32(ev.key.src_lp);
    sink.u32(ev.key.dst_lp);
    sink.u32(ev.key.send_index);
    sink.f64(ev.send_ts);
    sink.u32(static_cast<std::uint32_t>(ev.payload.size()));
    sink.bytes(ev.payload.data(), ev.payload.size());
  }
}

bool CheckpointImage::decode(util::ByteSource& src, std::string& err) {
  seed = src.u64();
  num_lps = src.u32();
  fence = src.f64();
  end_time = src.f64();
  committed = src.u64();
  const std::uint64_t num_lp_records = src.u64();
  if (!src.ok() || num_lp_records != num_lps ||
      num_lp_records > src.remaining() / kMinLpRecordBytes) {
    err = "checkpoint image: malformed LP table";
    return false;
  }
  lps.clear();
  lps.reserve(num_lp_records);
  for (std::uint64_t i = 0; i < num_lp_records; ++i) {
    CheckpointLpRecord lp;
    lp.rng_state = src.u64();
    lp.rng_draws = src.u64();
    const std::uint64_t state_size = src.u64();
    if (!src.ok() || state_size > src.remaining()) {
      err = "checkpoint image: truncated LP record " + std::to_string(i);
      return false;
    }
    lp.state.resize(state_size);
    src.bytes(lp.state.data(), state_size);
    lps.push_back(std::move(lp));
  }
  const std::uint64_t num_events = src.u64();
  if (!src.ok() || num_events > src.remaining() / kMinEventRecordBytes) {
    err = "checkpoint image: truncated event table";
    return false;
  }
  events.clear();
  events.reserve(static_cast<std::size_t>(num_events));
  for (std::uint64_t i = 0; i < num_events; ++i) {
    CheckpointEventRecord ev;
    ev.key.ts = src.f64();
    ev.key.tie = src.u64();
    ev.key.src_lp = src.u32();
    ev.key.dst_lp = src.u32();
    ev.key.send_index = src.u32();
    ev.send_ts = src.f64();
    const std::uint32_t payload_size = src.u32();
    if (!src.ok() || payload_size > src.remaining()) {
      err = "checkpoint image: truncated event record " + std::to_string(i);
      return false;
    }
    ev.payload.resize(payload_size);
    src.bytes(ev.payload.data(), payload_size);
    events.push_back(std::move(ev));
  }
  if (!src.exhausted()) {
    err = "checkpoint image: trailing bytes after event table";
    return false;
  }
  return true;
}

bool write_checkpoint(const CheckpointImage& image, const std::string& dir,
                      std::uint64_t seq, std::string& path_out,
                      std::string& err) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec && !fs::is_directory(dir)) {
    err = "checkpoint: cannot create directory '" + dir +
          "': " + ec.message();
    return false;
  }

  util::ByteSink payload;
  image.encode(payload);

  util::ByteSink header;
  header.u32(kMagic);
  header.u32(kVersion);
  header.u64(payload.size());
  header.u64(fnv1a(payload.data().data(), payload.size()));

  char name[64];
  std::snprintf(name, sizeof(name), "ckpt-%06llu.hpck",
                static_cast<unsigned long long>(seq));
  const fs::path final_path = fs::path(dir) / name;
  const fs::path tmp_path = fs::path(dir) / (std::string(name) + ".tmp");

  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      err = "checkpoint: cannot open '" + tmp_path.string() + "' for write";
      return false;
    }
    out.write(reinterpret_cast<const char*>(header.data().data()),
              static_cast<std::streamsize>(header.size()));
    out.write(reinterpret_cast<const char*>(payload.data().data()),
              static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) {
      err = "checkpoint: short write to '" + tmp_path.string() + "'";
      return false;
    }
  }
  // Atomic publish: readers either see the complete previous image or the
  // complete new one, never a half-written file.
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    err = "checkpoint: rename to '" + final_path.string() +
          "' failed: " + ec.message();
    return false;
  }
  path_out = final_path.string();
  return true;
}

bool read_checkpoint(const std::string& path, CheckpointImage& image,
                     std::string& err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    err = "checkpoint: cannot open '" + path + "'";
    return false;
  }
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  util::ByteSource header(bytes.data(), bytes.size());
  const std::uint32_t magic = header.u32();
  const std::uint32_t version = header.u32();
  const std::uint64_t payload_size = header.u64();
  const std::uint64_t checksum = header.u64();
  if (!header.ok() || magic != kMagic) {
    err = "checkpoint: '" + path + "' is not a checkpoint image (bad magic)";
    return false;
  }
  if (version != kVersion) {
    err = "checkpoint: '" + path + "' has unsupported version " +
          std::to_string(version);
    return false;
  }
  if (payload_size != header.remaining()) {
    err = "checkpoint: '" + path + "' is truncated (header claims " +
          std::to_string(payload_size) + " payload bytes, file has " +
          std::to_string(header.remaining()) + ")";
    return false;
  }
  const std::uint8_t* payload = bytes.data() + (bytes.size() - payload_size);
  if (fnv1a(payload, payload_size) != checksum) {
    err = "checkpoint: '" + path + "' failed checksum verification";
    return false;
  }
  util::ByteSource src(payload, payload_size);
  std::string decode_err;
  if (!image.decode(src, decode_err)) {
    err = "checkpoint: '" + path + "': " + decode_err;
    return false;
  }
  return true;
}

std::string find_latest_checkpoint(const std::string& path_or_dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_regular_file(path_or_dir, ec)) return path_or_dir;
  if (!fs::is_directory(path_or_dir, ec)) return "";
  std::string best;
  std::uint64_t best_seq = 0;
  for (const auto& entry : fs::directory_iterator(path_or_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    unsigned long long seq = 0;
    int consumed = 0;
    if (std::sscanf(name.c_str(), "ckpt-%llu.hpck%n", &seq, &consumed) == 1 &&
        consumed == static_cast<int>(name.size())) {
      if (best.empty() || seq >= best_seq) {
        best_seq = seq;
        best = entry.path().string();
      }
    }
  }
  return best;
}

bool load_checkpoint_for_restore(const std::string& path_or_dir,
                                 std::uint64_t seed, std::uint32_t num_lps,
                                 Time end_time, CheckpointImage& image,
                                 std::string& err) {
  const std::string path = find_latest_checkpoint(path_or_dir);
  if (path.empty()) {
    err = "restore: no checkpoint image found at '" + path_or_dir + "'";
    return false;
  }
  if (!read_checkpoint(path, image, err)) return false;
  if (image.seed != seed) {
    err = "restore: '" + path + "' was written by a run with seed " +
          std::to_string(image.seed) + ", this run uses seed " +
          std::to_string(seed);
    return false;
  }
  if (image.num_lps != num_lps) {
    err = "restore: '" + path + "' holds " + std::to_string(image.num_lps) +
          " LPs, this run configures " + std::to_string(num_lps);
    return false;
  }
  if (image.end_time != end_time) {
    err = "restore: '" + path + "' was written for horizon " +
          std::to_string(image.end_time) + ", this run ends at " +
          std::to_string(end_time);
    return false;
  }
  return true;
}

CheckpointLpRecord make_lp_record(const LpState& state,
                                  const util::ReversibleRng& rng) {
  CheckpointLpRecord rec;
  rec.rng_state = rng.raw_state();
  rec.rng_draws = rng.draw_count();
  util::ByteSink sink;
  state.serialize(sink);
  rec.state = sink.data();
  return rec;
}

void apply_lp_record(const CheckpointLpRecord& rec, std::uint32_t lp,
                     LpState& state, util::ReversibleRng& rng) {
  util::ByteSource src(rec.state);
  state.deserialize(src);
  HP_ASSERT(src.exhausted(),
            "restore: LP %u state record rejected by the model's deserialize "
            "(%zu of %zu bytes consumed%s)",
            lp, rec.state.size() - src.remaining(), rec.state.size(),
            src.ok() ? "" : ", read past the end");
  rng.restore(rec.rng_state, rec.rng_draws);
}

}  // namespace hp::des
