// Benchmark-side tracing: a span recorder, the statistics rules the
// benchmark reports by, and transparent wrappers that time every call the MD
// drivers make into the short-range, pair-list, long-range and trajectory
// layers. The wrappers live here, outside the program, so the program runs
// unchanged and the end-to-end numbers come from runs that pass the real
// backends directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "md/backends.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Statistics rules
// ---------------------------------------------------------------------------

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kTailSamples = 10;

/// The percentile to report when `want` is asked of `n` samples: `want`
/// itself when at least kTailSamples samples lie beyond it, otherwise the
/// highest percentile that still has kTailSamples beyond it. Returns 50 (the
/// median) when even that has fewer, i.e. for n < 2 * kTailSamples.
[[nodiscard]] double tail_percentile(std::size_t n, double want);

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0.0;  ///< host seconds since the recorder started
  double end = 0.0;
  int parent = -1;            ///< index of the enclosing span, -1 at the root
  std::int64_t group = -1;    ///< MD step number; job seq for svc.submit
};

/// Records nested host-clock spans in memory. Single-threaded: the MD
/// drivers call every backend from their own thread.
class SpanRecorder {
 public:
  SpanRecorder() : t0_(std::chrono::steady_clock::now()) {}

  /// Opens a span as a child of the innermost open span; returns its index.
  int open(std::string name);
  void close(int index);
  void set_group(std::int64_t group) { group_ = group; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Writes the spans as a JSON array (one object per span).
  void write_json(std::ostream& os) const;

 private:
  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::int64_t group_ = -1;
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), index_(rec != nullptr ? rec->open(name) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

/// Self time of span `i`: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
[[nodiscard]] double self_seconds(const std::vector<Span>& spans, int i);

/// Self seconds summed per span name.
[[nodiscard]] std::map<std::string, double> self_seconds_by_name(
    const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Layer wrappers
// ---------------------------------------------------------------------------

/// What one wrapped layer did: calls, host time inside the call, and the
/// simulated seconds the call returned.
struct LayerTally {
  std::uint64_t calls = 0;
  double host_s = 0.0;
  double sim_s = 0.0;
  std::uint64_t items = 0;  ///< work the calls produced (pair list: cluster pairs)
};

class TracedShortRange final : public swgmx::md::ShortRangeBackend {
 public:
  TracedShortRange(swgmx::md::ShortRangeBackend& inner, SpanRecorder& rec)
      : inner_(&inner), rec_(&rec) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool wants_half_list() const override {
    return inner_->wants_half_list();
  }
  [[nodiscard]] swgmx::md::PackageLayout wants_layout() const override {
    return inner_->wants_layout();
  }
  double compute(const swgmx::md::ClusterSystem& cs, const swgmx::md::Box& box,
                 const swgmx::md::ClusterPairList& list,
                 const swgmx::md::NbParams& p, std::span<swgmx::Vec3f> f_slots,
                 swgmx::md::NbEnergies& e) override;
  [[nodiscard]] bool uses_cpes() const override { return inner_->uses_cpes(); }
  void set_cpe_partition(const swgmx::sw::CpePartition& part) override {
    inner_->set_cpe_partition(part);
  }
  LayerTally tally;

 private:
  swgmx::md::ShortRangeBackend* inner_;
  SpanRecorder* rec_;
};

class TracedPairList final : public swgmx::md::PairListBackend {
 public:
  TracedPairList(swgmx::md::PairListBackend& inner, SpanRecorder& rec)
      : inner_(&inner), rec_(&rec) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  double build(const swgmx::md::ClusterSystem& cs, const swgmx::md::Box& box,
               float rlist, bool half, swgmx::md::ClusterPairList& out,
               int nranks) override;
  [[nodiscard]] bool uses_cpes() const override { return inner_->uses_cpes(); }
  LayerTally tally;

 private:
  swgmx::md::PairListBackend* inner_;
  SpanRecorder* rec_;
};

class TracedLongRange final : public swgmx::md::LongRangeBackend {
 public:
  TracedLongRange(swgmx::md::LongRangeBackend& inner, SpanRecorder& rec)
      : inner_(&inner), rec_(&rec) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  double compute(swgmx::md::System& sys, double& e_recip) override;
  [[nodiscard]] bool uses_cpes() const override { return inner_->uses_cpes(); }
  void set_cpe_partition(const swgmx::sw::CpePartition& part) override {
    inner_->set_cpe_partition(part);
  }
  LayerTally tally;

 private:
  swgmx::md::LongRangeBackend* inner_;
  SpanRecorder* rec_;
};

class TracedTrajSink final : public swgmx::md::TrajSink {
 public:
  TracedTrajSink(swgmx::md::TrajSink& inner, SpanRecorder& rec)
      : inner_(&inner), rec_(&rec) {}
  double write_frame(const swgmx::md::System& sys, double time_ps) override;
  LayerTally tally;

 private:
  swgmx::md::TrajSink* inner_;
  SpanRecorder* rec_;
};

}  // namespace perfbench
