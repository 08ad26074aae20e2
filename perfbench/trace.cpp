#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/json.hpp"

namespace perfbench {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Times one forwarded call into a layer and books it on `tally`.
template <class F>
double timed(SpanRecorder& rec, const char* name, LayerTally& tally, F&& call) {
  const auto t0 = std::chrono::steady_clock::now();
  double sim_s = 0.0;
  {
    ScopedSpan span(&rec, name);
    sim_s = call();
  }
  tally.host_s += seconds_between(t0, std::chrono::steady_clock::now());
  tally.sim_s += sim_s;
  ++tally.calls;
  return sim_s;
}

}  // namespace

double tail_percentile(std::size_t n, double want) {
  if (n < 2 * kTailSamples) return 50.0;
  const double cap = 100.0 * static_cast<double>(n - kTailSamples) /
                     static_cast<double>(n);
  return std::min(want, cap);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const auto k = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[k - 1];
}

int SpanRecorder::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.start = seconds_between(t0_, std::chrono::steady_clock::now());
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.group = group_;
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].end =
      seconds_between(t0_, std::chrono::steady_clock::now());
  // Spans close innermost first (ScopedSpan); tolerate a skipped close by
  // unwinding to the closed span.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

void SpanRecorder::write_json(std::ostream& os) const {
  os << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":\""
       << swgmx::obs::json_escape(s.name)
       << "\",\"start\":" << swgmx::obs::json_number(s.start)
       << ",\"end\":" << swgmx::obs::json_number(s.end)
       << ",\"parent\":" << s.parent << ",\"group\":" << s.group << "}";
  }
  os << "\n]\n";
}

double self_seconds(const std::vector<Span>& spans, int i) {
  const Span& p = spans[static_cast<std::size_t>(i)];
  std::vector<std::pair<double, double>> covered;
  for (const Span& c : spans) {
    if (c.parent != i) continue;
    const double lo = std::max(c.start, p.start);
    const double hi = std::min(c.end, p.end);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  double union_s = 0.0;
  double reach = p.start;
  for (const auto& [lo, hi] : covered) {
    const double from = std::max(lo, reach);
    if (hi > from) {
      union_s += hi - from;
      reach = hi;
    }
  }
  return (p.end - p.start) - union_s;
}

std::map<std::string, double> self_seconds_by_name(
    const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name] += self_seconds(spans, static_cast<int>(i));
  }
  return out;
}

double TracedShortRange::compute(const swgmx::md::ClusterSystem& cs,
                                 const swgmx::md::Box& box,
                                 const swgmx::md::ClusterPairList& list,
                                 const swgmx::md::NbParams& p,
                                 std::span<swgmx::Vec3f> f_slots,
                                 swgmx::md::NbEnergies& e) {
  return timed(*rec_, "core.sr", tally,
               [&] { return inner_->compute(cs, box, list, p, f_slots, e); });
}

double TracedPairList::build(const swgmx::md::ClusterSystem& cs,
                             const swgmx::md::Box& box, float rlist, bool half,
                             swgmx::md::ClusterPairList& out, int nranks) {
  const double s = timed(*rec_, "core.pairlist", tally, [&] {
    return inner_->build(cs, box, rlist, half, out, nranks);
  });
  tally.items += out.cluster_pairs();
  return s;
}

double TracedLongRange::compute(swgmx::md::System& sys, double& e_recip) {
  return timed(*rec_, "pme", tally,
               [&] { return inner_->compute(sys, e_recip); });
}

double TracedTrajSink::write_frame(const swgmx::md::System& sys,
                                   double time_ps) {
  return timed(*rec_, "io.traj", tally,
               [&] { return inner_->write_frame(sys, time_ps); });
}

}  // namespace perfbench
