#include "sim/workload.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdlib>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace pf::sim {

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
constexpr std::int64_t kMaxParam = 1 << 20;

struct SpecParam {
  std::string key;
  std::string value;
  bool used = false;
};

[[noreturn]] void spec_fail(const std::string& spec, const std::string& what) {
  throw std::invalid_argument("workload \"" + spec + "\": " + what);
}

void split_spec(const std::string& spec, std::string& base,
                std::vector<SpecParam>& params) {
  const auto colon = spec.find(':');
  base = spec.substr(0, colon);
  if (base.empty()) spec_fail(spec, "empty workload name");
  if (colon == std::string::npos) return;
  const std::string rest = spec.substr(colon + 1);
  std::size_t pos = 0;
  while (true) {
    const auto comma = rest.find(',', pos);
    const std::string item = rest.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const auto eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
      spec_fail(spec, "malformed parameter \"" + item +
                          "\" (expected key=value)");
    }
    const std::string key = item.substr(0, eq);
    for (const SpecParam& p : params) {
      if (p.key == key) {
        spec_fail(spec, "duplicate parameter \"" + key + "\"");
      }
    }
    params.push_back({key, item.substr(eq + 1), false});
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
}

/// Linear key=value lookup with use tracking; done() rejects leftovers.
class ParamReader {
 public:
  ParamReader(const std::string& spec, std::vector<SpecParam>& params)
      : spec_(spec), params_(params) {}

  std::int64_t get_int(const char* key, std::int64_t def, std::int64_t lo,
                       std::int64_t hi) {
    SpecParam* p = claim(key);
    if (p == nullptr) return def;
    char* end = nullptr;
    const long long v = std::strtoll(p->value.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || end == p->value.c_str()) {
      spec_fail(spec_, "parameter \"" + std::string(key) +
                           "\" is not an integer: \"" + p->value + "\"");
    }
    if (v < lo || v > hi) {
      spec_fail(spec_, "parameter \"" + std::string(key) + "\" = " +
                           p->value + " out of range [" + std::to_string(lo) +
                           ", " + std::to_string(hi) + "]");
    }
    return v;
  }

  std::string get_string(const char* key) {
    SpecParam* p = claim(key);
    if (p == nullptr) {
      spec_fail(spec_, "missing parameter \"" + std::string(key) + "\"");
    }
    return p->value;
  }

  void done() const {
    for (const SpecParam& p : params_) {
      if (!p.used) spec_fail(spec_, "unknown parameter \"" + p.key + "\"");
    }
  }

 private:
  SpecParam* claim(const char* key) {
    for (SpecParam& p : params_) {
      if (p.key == key) {
        if (p.used) {
          spec_fail(spec_, "duplicate parameter \"" + p.key + "\"");
        }
        p.used = true;
        return &p;
      }
    }
    return nullptr;
  }

  const std::string& spec_;
  std::vector<SpecParam>& params_;
};

/// Canonical spec: base plus every non-default parameter, fixed order.
std::string canon(
    const char* base,
    std::initializer_list<std::tuple<const char*, std::int64_t, std::int64_t>>
        kv) {
  std::string out = base;
  char sep = ':';
  for (const auto& [key, value, def] : kv) {
    if (value == def) continue;
    out += sep;
    out += key;
    out += '=';
    out += std::to_string(value);
    sep = ',';
  }
  return out;
}

/// Balanced 2-factor nx <= ny of n (nx = largest divisor <= sqrt(n)).
std::array<int, 2> grid2(int n) {
  int nx = 1;
  for (int d = 1; d * d <= n; ++d) {
    if (n % d == 0) nx = d;
  }
  return {nx, n / nx};
}

/// Balanced 3-factor: largest divisor <= cbrt(n), then grid2 the rest.
std::array<int, 3> grid3(int n) {
  int nx = 1;
  for (int d = 1; d * d * d <= n; ++d) {
    if (n % d == 0) nx = d;
  }
  const std::array<int, 2> yz = grid2(n / nx);
  return {nx, yz[0], yz[1]};
}

/// Distinct periodic +-1 neighbors of `rank` on the given grid, self
/// excluded (collapsed dimensions vanish, width-2 dimensions dedup).
std::vector<int> stencil_neighbors(int rank, const std::vector<int>& dims) {
  std::vector<int> coord(dims.size());
  int rem = rank;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    coord[i] = rem % dims[i];
    rem /= dims[i];
  }
  std::set<int> out;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    for (const int delta : {1, dims[i] - 1}) {
      std::vector<int> c = coord;
      c[i] = (coord[i] + delta) % dims[i];
      int id = 0;
      for (std::size_t j = dims.size(); j-- > 0;) {
        id = id * dims[j] + c[j];
      }
      out.insert(id);
    }
  }
  out.erase(rank);
  return {out.begin(), out.end()};
}

[[noreturn]] void trace_fail(const std::string& context, int line,
                             const std::string& what) {
  throw std::invalid_argument(context + " line " + std::to_string(line) +
                              ": " + what);
}

std::int64_t trace_int(const util::JsonValue& v, const char* key,
                       const std::string& context, int line) {
  const util::JsonValue* field = v.find(key);
  if (field == nullptr) {
    trace_fail(context, line, "missing key \"" + std::string(key) + "\"");
  }
  if (!field->is_number()) {
    trace_fail(context, line,
               "key \"" + std::string(key) + "\" must be an integer");
  }
  try {
    return field->as_int();
  } catch (const util::JsonError&) {
    trace_fail(context, line,
               "key \"" + std::string(key) + "\" must be an integer");
  }
}

/// A message line's five fields, in the order to_trace() writes them.
using MessageFields = std::array<std::int64_t, 5>;
constexpr std::array<const char*, 5> kMessageNames = {
    "rank", "phase", "dst", "packets", "release"};
/// What to_trace() writes before each field's value.
constexpr std::array<std::string_view, 5> kMessageKeys = {
    "{\"rank\":", ",\"phase\":", ",\"dst\":", ",\"packets\":",
    ",\"release\":"};
/// A PF q=13 all-to-all line's length, rounded up: to_trace()'s reserve.
constexpr std::size_t kTypicalLine = 64;

/// Reads `line` when its bytes are exactly a line to_trace() writes:
/// fixed key order, no whitespace, every value -?(0|[1-9][0-9]{0,17})
/// (18 digits cannot overflow; a 19th fails the next key's match).
/// Returns false on anything else, which the caller hands to the JSON
/// reader, so the accepted language and every error message stay the
/// JSON path's.
bool scan_message(std::string_view line, MessageFields& out) {
  const auto is_digit = [line](std::size_t i) {
    return i < line.size() && line[i] >= '0' && line[i] <= '9';
  };
  std::size_t pos = 0;
  for (std::size_t k = 0; k < kMessageKeys.size(); ++k) {
    if (!line.substr(pos).starts_with(kMessageKeys[k])) return false;
    pos += kMessageKeys[k].size();
    const bool negative = pos < line.size() && line[pos] == '-';
    if (negative) ++pos;
    const std::size_t first = pos;
    std::int64_t value = 0;
    while (pos - first < 18 && is_digit(pos)) {
      value = value * 10 + (line[pos++] - '0');
    }
    if (pos == first || (line[first] == '0' && pos - first > 1)) {
      return false;
    }
    out[k] = negative ? -value : value;
  }
  return line.substr(pos) == "}";
}

}  // namespace

void Workload::init(int ranks, int phases) {
  ranks_ = ranks;
  phases_ = phases;
  const std::size_t slots =
      static_cast<std::size_t>(ranks) * static_cast<std::size_t>(phases);
  offsets_.assign(slots + 1, 0);
  expect_.assign(slots, 0);
}

void Workload::add(int rank, int phase, int dst, int packets,
                   std::int64_t release) {
  slots_.push_back(slot(rank, phase));
  append(rank, phase, dst, packets, release);
}

void Workload::append(int rank, int phase, int dst, int packets,
                      std::int64_t release) {
  msgs_.push_back({dst, packets, release});
  ++offsets_[slot(rank, phase) + 1];
  expect_[slot(dst, phase)] += packets;
  total_packets_ += packets;
}

void Workload::finish() {
  for (std::size_t s = 1; s < offsets_.size(); ++s) {
    offsets_[s] += offsets_[s - 1];
  }
  if (!std::is_sorted(slots_.begin(), slots_.end())) {
    // Stable counting sort: each slot's messages keep their add() order.
    std::vector<std::size_t> next(offsets_.begin(), offsets_.end() - 1);
    std::vector<WorkloadMessage> grouped(msgs_.size());
    for (std::size_t i = 0; i < msgs_.size(); ++i) {
      grouped[next[slots_[i]]++] = msgs_[i];
    }
    msgs_ = std::move(grouped);
  }
  slots_ = {};
}

std::shared_ptr<const Workload> Workload::make(const std::string& spec,
                                               int ranks,
                                               std::uint64_t seed) {
  std::string base;
  std::vector<SpecParam> raw;
  split_spec(spec, base, raw);
  ParamReader params(spec, raw);

  if (base == "trace") {
    const std::string path = params.get_string("file");
    params.done();
    std::string text;
    if (!util::read_text_file(path, text)) {
      spec_fail(spec, "cannot read trace file " + path);
    }
    auto w = from_trace(text, path);
    if (w->num_ranks() != ranks) {
      spec_fail(spec, "trace has " + std::to_string(w->num_ranks()) +
                          " ranks but the topology provides " +
                          std::to_string(ranks) + " terminals");
    }
    return w;
  }

  if (ranks < 2) {
    spec_fail(spec,
              "needs >= 2 ranks, got " + std::to_string(ranks));
  }
  auto w = std::shared_ptr<Workload>(new Workload());

  if (base == "alltoall") {
    const int packets = static_cast<int>(params.get_int("packets", 1, 1, kMaxParam));
    w->init(ranks, ranks - 1);
    for (int p = 0; p < ranks - 1; ++p) {
      for (int r = 0; r < ranks; ++r) {
        w->add(r, p, (r + p + 1) % ranks, packets, 0);
      }
    }
    w->name_ = canon("alltoall", {{"packets", packets, 1}});
  } else if (base == "ring_allreduce") {
    // Reduce-scatter then allgather: 2(R-1) ring steps, every rank
    // forwarding one chunk to its successor each step.
    const int packets = static_cast<int>(params.get_int("packets", 1, 1, kMaxParam));
    const int phases = 2 * (ranks - 1);
    w->init(ranks, phases);
    for (int p = 0; p < phases; ++p) {
      for (int r = 0; r < ranks; ++r) {
        w->add(r, p, (r + 1) % ranks, packets, 0);
      }
    }
    w->name_ = canon("ring_allreduce", {{"packets", packets, 1}});
  } else if (base == "rd_allreduce") {
    // Recursive doubling with the standard non-power-of-two pre/post
    // folding: the rem = R - 2^k surplus ranks fold into their partner
    // before the log2 exchange rounds and receive the result after.
    const int packets = static_cast<int>(params.get_int("packets", 1, 1, kMaxParam));
    int pow = 1;
    while (pow * 2 <= ranks) pow *= 2;
    const int rem = ranks - pow;
    int k = 0;
    while ((1 << k) < pow) ++k;
    w->init(ranks, k + (rem != 0 ? 2 : 0));
    int phase = 0;
    if (rem != 0) {
      for (int r = pow; r < ranks; ++r) w->add(r, phase, r - pow, packets, 0);
      ++phase;
    }
    for (int i = 0; i < k; ++i, ++phase) {
      for (int r = 0; r < pow; ++r) {
        w->add(r, phase, r ^ (1 << i), packets, 0);
      }
    }
    if (rem != 0) {
      for (int r = 0; r < rem; ++r) w->add(r, phase, r + pow, packets, 0);
    }
    w->name_ = canon("rd_allreduce", {{"packets", packets, 1}});
  } else if (base == "stencil2d" || base == "stencil3d") {
    const int iters = static_cast<int>(params.get_int("iters", 4, 1, kMaxParam));
    const int packets = static_cast<int>(params.get_int("packets", 1, 1, kMaxParam));
    std::vector<int> dims;
    if (base == "stencil2d") {
      const std::array<int, 2> d = grid2(ranks);
      dims.assign(d.begin(), d.end());
    } else {
      const std::array<int, 3> d = grid3(ranks);
      dims.assign(d.begin(), d.end());
    }
    w->init(ranks, iters);
    for (int r = 0; r < ranks; ++r) {
      const std::vector<int> nbrs = stencil_neighbors(r, dims);
      for (int p = 0; p < iters; ++p) {
        for (const int nb : nbrs) w->add(r, p, nb, packets, 0);
      }
    }
    w->name_ = canon(base.c_str(),
                     {{"iters", iters, 4}, {"packets", packets, 1}});
  } else if (base == "bursty") {
    // ON/OFF source: `bursts` trains per rank, `gap` cycles apart, each
    // aimed at an independently drawn non-self destination.
    const int bursts = static_cast<int>(params.get_int("bursts", 4, 1, kMaxParam));
    const std::int64_t gap = params.get_int("gap", 256, 0, std::int64_t{1} << 40);
    const int packets = static_cast<int>(params.get_int("packets", 4, 1, kMaxParam));
    w->init(ranks, 1);
    for (int r = 0; r < ranks; ++r) {
      util::Rng rng(seed + kGolden * (static_cast<std::uint64_t>(r) + 1));
      for (int b = 0; b < bursts; ++b) {
        int dst = r;
        while (dst == r) {
          dst = static_cast<int>(
              rng.below(static_cast<std::uint64_t>(ranks)));
        }
        w->add(r, 0, dst, packets, static_cast<std::int64_t>(b) * gap);
      }
    }
    w->name_ = canon("bursty", {{"bursts", bursts, 4},
                                {"gap", gap, 256},
                                {"packets", packets, 4}});
  } else if (base == "hotspot") {
    // Each message lands on one of the first `hotspots` ranks with
    // probability bias%, else uniformly; self-hits redraw uniformly.
    const int packets = static_cast<int>(params.get_int("packets", 8, 1, kMaxParam));
    const int hotspots = static_cast<int>(
        params.get_int("hotspots", 1, 1, static_cast<std::int64_t>(ranks) - 1));
    const int bias = static_cast<int>(params.get_int("bias", 50, 0, 100));
    w->init(ranks, 1);
    for (int r = 0; r < ranks; ++r) {
      util::Rng rng(seed + kGolden * (static_cast<std::uint64_t>(r) + 1));
      for (int m = 0; m < packets; ++m) {
        int dst;
        if (static_cast<int>(rng.below(100)) < bias) {
          dst = static_cast<int>(
              rng.below(static_cast<std::uint64_t>(hotspots)));
        } else {
          dst = static_cast<int>(
              rng.below(static_cast<std::uint64_t>(ranks)));
        }
        while (dst == r) {
          dst = static_cast<int>(
              rng.below(static_cast<std::uint64_t>(ranks)));
        }
        w->add(r, 0, dst, 1, 0);
      }
    }
    w->name_ = canon("hotspot", {{"packets", packets, 8},
                                 {"hotspots", hotspots, 1},
                                 {"bias", bias, 50}});
  } else if (base == "incast") {
    // Every rank fans `packets` into each of the first `targets` ranks.
    const int packets = static_cast<int>(params.get_int("packets", 8, 1, kMaxParam));
    const int targets = static_cast<int>(
        params.get_int("targets", 1, 1, static_cast<std::int64_t>(ranks) - 1));
    w->init(ranks, 1);
    for (int r = 0; r < ranks; ++r) {
      for (int t = 0; t < targets; ++t) {
        if (t != r) w->add(r, 0, t, packets, 0);
      }
    }
    w->name_ = canon("incast", {{"packets", packets, 8},
                                {"targets", targets, 1}});
  } else {
    spec_fail(spec, "unknown workload \"" + base + "\"");
  }
  params.done();
  w->finish();
  return w;
}

bool workload_uses_seed(const std::string& spec) {
  const std::string base = spec.substr(0, spec.find(':'));
  return base == "bursty" || base == "hotspot";
}

std::string Workload::to_trace() const {
  std::string out =
      "{\"schema\":\"polarfly-trace/1\",\"workload\":\"" +
      util::JsonWriter::escape(name_) +
      "\",\"ranks\":" + std::to_string(ranks_) +
      ",\"phases\":" + std::to_string(phases_) + "}\n";
  out.reserve(out.size() + msgs_.size() * kTypicalLine);
  char buf[160];  // keys, five 20-character values, "}\n"
  for (int r = 0; r < ranks_; ++r) {
    for (int p = 0; p < phases_; ++p) {
      for (const WorkloadMessage& m : sends(r, p)) {
        const MessageFields fields = {r, p, m.dst, m.packets, m.release};
        char* at = buf;
        for (std::size_t k = 0; k < fields.size(); ++k) {
          at = std::copy(kMessageKeys[k].begin(), kMessageKeys[k].end(), at);
          at = std::to_chars(at, std::end(buf), fields[k]).ptr;
        }
        *at++ = '}';
        *at++ = '\n';
        out.append(buf, at);
      }
    }
  }
  return out;
}

std::shared_ptr<const Workload> Workload::from_trace(
    const std::string& text, const std::string& context) {
  auto w = std::shared_ptr<Workload>(new Workload());
  bool have_header = false;
  std::string workload_name;
  int ranks = 0;
  int phases = 0;
  int last_rank = -1;
  int last_phase = 0;
  std::int64_t last_release = 0;
  const std::string_view doc(text);
  std::size_t pos = 0;
  int lineno = 0;
  MessageFields fields;
  while (pos < doc.size()) {
    const std::size_t nl = std::min(doc.find('\n', pos), doc.size());
    const std::string_view line = doc.substr(pos, nl - pos);
    pos = nl + 1;
    ++lineno;
    if (line.empty()) trace_fail(context, lineno, "empty line");
    // Canonical message lines are scanned in place; the header and every
    // other line take the JSON reader.
    if (!have_header || !scan_message(line, fields)) {
      util::JsonValue v;
      try {
        v = util::json_parse(std::string(line));
      } catch (const util::JsonError& e) {
        trace_fail(context, lineno, e.what());
      }
      if (!v.is_object()) {
        trace_fail(context, lineno, "expected a JSON object");
      }
      if (!have_header) {
        for (const auto& [key, value] : v.members()) {
          (void)value;
          if (key != "schema" && key != "workload" && key != "ranks" &&
              key != "phases") {
            trace_fail(context, lineno,
                       "unknown header key \"" + key + "\"");
          }
        }
        const util::JsonValue* schema = v.find("schema");
        if (schema == nullptr || !schema->is_string() ||
            schema->as_string() != "polarfly-trace/1") {
          trace_fail(context, lineno,
                     "expected schema \"polarfly-trace/1\" in the header");
        }
        const util::JsonValue* name = v.find("workload");
        if (name == nullptr || !name->is_string() ||
            name->as_string().empty()) {
          trace_fail(context, lineno,
                     "header key \"workload\" must be a non-empty string");
        }
        workload_name = name->as_string();
        const std::int64_t r64 = trace_int(v, "ranks", context, lineno);
        const std::int64_t p64 = trace_int(v, "phases", context, lineno);
        if (r64 < 2 || r64 > kMaxParam) {
          trace_fail(context, lineno,
                     "ranks = " + std::to_string(r64) + " out of range [2, " +
                         std::to_string(kMaxParam) + "]");
        }
        if (p64 < 1 || p64 > kMaxParam) {
          trace_fail(context, lineno,
                     "phases = " + std::to_string(p64) +
                         " out of range [1, " + std::to_string(kMaxParam) +
                         "]");
        }
        if (r64 * p64 > (std::int64_t{1} << 26)) {
          trace_fail(context, lineno, "ranks * phases exceeds 2^26");
        }
        ranks = static_cast<int>(r64);
        phases = static_cast<int>(p64);
        w->init(ranks, phases);
        have_header = true;
        continue;
      }
      for (const auto& [key, value] : v.members()) {
        (void)value;
        if (std::find(kMessageNames.begin(), kMessageNames.end(), key) ==
            kMessageNames.end()) {
          trace_fail(context, lineno, "unknown key \"" + key + "\"");
        }
      }
      for (std::size_t k = 0; k < fields.size(); ++k) {
        fields[k] = trace_int(v, kMessageNames[k], context, lineno);
      }
    }
    const auto [rank, phase, dst, packets, release] = fields;
    if (rank < 0 || rank >= ranks) {
      trace_fail(context, lineno,
                 "rank " + std::to_string(rank) + " out of range [0, " +
                     std::to_string(ranks) + ")");
    }
    if (phase < 0 || phase >= phases) {
      trace_fail(context, lineno,
                 "phase " + std::to_string(phase) + " out of range [0, " +
                     std::to_string(phases) + ")");
    }
    if (dst < 0 || dst >= ranks) {
      trace_fail(context, lineno,
                 "dst " + std::to_string(dst) + " out of range [0, " +
                     std::to_string(ranks) + ")");
    }
    if (dst == rank) {
      trace_fail(context, lineno,
                 "rank " + std::to_string(rank) + " sends to itself");
    }
    if (packets < 1 || packets > kMaxParam) {
      trace_fail(context, lineno,
                 "packets = " + std::to_string(packets) +
                     " out of range [1, " + std::to_string(kMaxParam) + "]");
    }
    if (release < 0) {
      trace_fail(context, lineno,
                 "release = " + std::to_string(release) + " is negative");
    }
    if (rank < last_rank) {
      trace_fail(context, lineno,
                 "rank " + std::to_string(rank) + " after rank " +
                     std::to_string(last_rank) +
                     " (trace must be rank-major)");
    }
    if (rank > last_rank) {
      last_rank = static_cast<int>(rank);
      last_phase = static_cast<int>(phase);
      last_release = release;
    } else if (phase < last_phase) {
      trace_fail(context, lineno,
                 "phase " + std::to_string(phase) + " after phase " +
                     std::to_string(last_phase) + " for rank " +
                     std::to_string(rank));
    } else if (phase > last_phase) {
      last_phase = static_cast<int>(phase);
      last_release = release;
    } else if (release < last_release) {
      trace_fail(context, lineno,
                 "release " + std::to_string(release) +
                     " travels back in time (previous release " +
                     std::to_string(last_release) + ")");
    } else {
      last_release = release;
    }
    w->append(static_cast<int>(rank), static_cast<int>(phase),
              static_cast<int>(dst), static_cast<int>(packets), release);
  }
  if (!have_header) {
    trace_fail(context, 1, "missing polarfly-trace/1 header");
  }
  w->name_ = workload_name;
  w->finish();
  return w;
}

}  // namespace pf::sim
