#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"

namespace prtbench {

// --- tracing ---------------------------------------------------------

namespace {
thread_local int t_open_span = -1;
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t job)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  const std::lock_guard<std::mutex> lock(tracer_->mutex_);
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back({name, now_ns(), 0, t_open_span, job});
  saved_parent_ = t_open_span;
  t_open_span = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = end;
  t_open_span = saved_parent_;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = spans_[i].name;
    by_layer[name.substr(0, name.find('.'))] +=
        static_cast<double>(self[i]) * 1e-9;
  }
  return by_layer;
}

void Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  for (const Span& s : spans_) {
    Json j;
    j.begin_object()
        .field("name", s.name)
        .field("start_ns", static_cast<std::uint64_t>(s.start_ns))
        .field("end_ns", static_cast<std::uint64_t>(s.end_ns))
        .key("parent")
        .value(static_cast<double>(s.parent))
        .field("job", s.job)
        .end_object();
    f << j.str() << '\n';
  }
}

// --- workloads -------------------------------------------------------

std::string Combo::key() const {
  static const char* const kKinds[] = {"prt_ext", "prt_std", "prt_wom",
                                       "march_c-"};
  static const char* const kUniverses[] = {"classical", "vdg",
                                           "single_cell_m4"};
  return std::string(kKinds[static_cast<int>(kind)]) + "/" +
         kUniverses[static_cast<int>(universe)] + "/n" + std::to_string(n) +
         (early_abort ? "/abort" : "/full");
}

std::vector<mem::Fault> build_universe(Universe u, mem::Addr n) {
  switch (u) {
    case Universe::kClassical:
      return mem::classical_universe(n);
    case Universe::kVanDeGoor:
      return mem::van_de_goor_universe(n);
    case Universe::kSingleCellM4:
      return mem::single_cell_universe(n, 4, /*read_logic=*/true);
  }
  throw std::logic_error("unknown universe");
}

core::PrtScheme scheme_for(const Combo& c) {
  switch (c.kind) {
    case Kind::kPrtExt:
      return core::extended_scheme_bom(c.n);
    case Kind::kPrtStd:
      return core::standard_scheme_bom(c.n);
    case Kind::kWom:
      return core::extended_scheme_wom(c.n, 4);
    case Kind::kMarch:
      break;
  }
  throw std::logic_error("March combo has no PRT scheme");
}

march::MarchTest march_test() { return march::march_c_minus(); }

std::vector<Combo> service_combos() {
  std::vector<Combo> out;
  for (const mem::Addr n : {128U, 256U, 512U, 1024U}) {
    for (const Kind k : {Kind::kPrtExt, Kind::kPrtStd, Kind::kWom,
                         Kind::kMarch}) {
      for (const bool abort : {false, true}) {
        if (k == Kind::kWom) {
          out.push_back({k, n, Universe::kSingleCellM4, abort});
          continue;
        }
        for (const Universe u : {Universe::kClassical, Universe::kVanDeGoor}) {
          out.push_back({k, n, u, abort});
        }
      }
    }
  }
  return out;
}

Combo prt_classical_combo() {
  return {Kind::kPrtExt, 8192, Universe::kClassical, false};
}

Combo march_vdg_combo() {
  return {Kind::kMarch, 8192, Universe::kVanDeGoor, true};
}

std::string signature(const analysis::CampaignResult& r, std::size_t offset,
                      std::size_t size) {
  std::ostringstream s;
  s << "all=" << r.overall.detected << '/' << r.overall.total;
  for (const auto& [cls, cov] : r.by_class) {
    s << ';' << mem::to_string(cls) << '=' << cov.detected << '/'
      << cov.total;
  }
  std::vector<std::uint64_t> escapes;
  escapes.reserve(r.escapes.size());
  for (const std::size_t e : r.escapes) escapes.push_back((e + offset) % size);
  std::sort(escapes.begin(), escapes.end());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t e : escapes) {
    for (int b = 0; b < 8; ++b) {
      h ^= (e >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(h));
  s << ";ops=" << r.ops << ";esc=" << escapes.size() << ':' << digest;
  return s.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// --- JSON ------------------------------------------------------------

void Json::separate() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

Json& Json::begin_object() {
  separate();
  out_ += '{';
  need_comma_ = false;
  return *this;
}

Json& Json::end_object() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

Json& Json::begin_array() {
  separate();
  out_ += '[';
  need_comma_ = false;
  return *this;
}

Json& Json::end_array() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

Json& Json::key(const std::string& k) {
  value(k);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

Json& Json::value(double v) {
  separate();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ += buf;
  return *this;
}

Json& Json::value(std::uint64_t v) {
  separate();
  out_ += std::to_string(v);
  return *this;
}

Json& Json::value(bool v) {
  separate();
  out_ += v ? "true" : "false";
  return *this;
}

Json& Json::value(const std::string& v) {
  separate();
  out_ += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

Json& Json::values(std::span<const double> v) {
  begin_array();
  for (const double x : v) value(x);
  return end_array();
}

}  // namespace prtbench
