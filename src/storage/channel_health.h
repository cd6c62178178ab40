// Per-channel gray-failure health tracking for the striped storage stack.
//
// The robustness layers so far (fault injection, integrity, crash recovery)
// all key on *fail-stop* outcomes: a read errors, a checksum mismatches, a
// process dies. Production storage mostly degrades the other way — a channel
// goes 10-20x slow without ever returning an error — and nothing keyed on
// error outcomes will notice. This tracker is the first latency-distribution
// failure detector: every device-read completion on a channel feeds
//
//  - an EWMA of that channel's service time (the fast-moving "how slow is
//    it right now" score), and
//  - a windowed log2 histogram (the kLog2Buckets layout of
//    util/metrics_registry.h) whose bucket-interpolated p99 is published
//    each time the window fills — the slow-moving "what does this channel's
//    tail normally look like" baseline.
//
// Two consumers sit on top:
//
//  - *Hedged reads* (OsPageCache): a foreground read whose channel exceeds
//    its adaptive deadline issues one hedge to the healthiest OTHER channel
//    and the first completion wins. The deadline is hedge_deadline_mult x
//    the *cross-channel* reference p99 — the minimum completed-window p99
//    over the other channels — never the channel's own tail. Deriving the
//    deadline from the victim's own window would let a sustained brownout
//    inflate its own deadline after one window turnover and quietly disable
//    hedging exactly when it matters. A global hedge budget caps hedges at
//    `hedge_budget_fraction` of observed reads (granted strictly, so the
//    invariant `issued <= fraction * reads` holds at every instant), and a
//    suppression flag lets the overload governor shed hedging entirely at
//    the bottom of its ladder — hedges are extra device work and must never
//    amplify an overload.
//  - *Brownout breakers* (core/channel_breaker.h): quarantine speculative
//    traffic off a channel whose EWMA score degrades past threshold.
//
// Determinism: the tracker is pure arithmetic over the completion sequence —
// no wall clock, no randomness — so single-threaded replays are
// bit-identical across reruns. Thread-safety: per-channel window state is
// guarded by a per-channel mutex (taken only by RecordRead); every
// cross-channel read (score, deadline, healthiest-other) goes through
// published atomics, so the hot foreground path never takes more than one
// lock and lock order is trivially acyclic.
#ifndef PYTHIA_STORAGE_CHANNEL_HEALTH_H_
#define PYTHIA_STORAGE_CHANNEL_HEALTH_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/sim_clock.h"
#include "util/metrics_registry.h"

namespace pythia {

struct ChannelHealthOptions {
  // Gates tracker construction in SimEnvironment; the tracker itself does
  // not consult it.
  bool enabled = false;
  // EWMA smoothing for the per-channel service-time score. 0.125 tracks a
  // 10x brownout within ~20 reads and decays back within ~40.
  double ewma_alpha = 0.125;
  // Device reads per channel before its quantile window rotates and the
  // window p99 is published. A channel with no completed window yet is not
  // "warm" and never serves as a hedge reference.
  uint64_t window_samples = 64;
  // --- Hedging policy (consumed by OsPageCache) --------------------------
  bool hedging_enabled = false;
  // Deadline = mult x the cross-channel reference p99 (min completed-window
  // p99 over the OTHER channels).
  double hedge_deadline_mult = 1.5;
  // Hard cap on hedges as a fraction of all observed device reads.
  double hedge_budget_fraction = 0.05;
};

// Point-in-time hedge accounting.
struct ChannelHealthCounters {
  uint64_t reads_observed = 0;
  uint64_t hedges_issued = 0;
  uint64_t hedges_won = 0;     // hedge completed before the primary
  uint64_t hedges_wasted = 0;  // primary beat the hedge: budget spent for nothing
  uint64_t hedges_denied_budget = 0;
};

class ChannelHealthTracker {
 public:
  ChannelHealthTracker(size_t num_channels, const ChannelHealthOptions& options)
      : options_(options),
        channels_(num_channels == 0 ? 1 : num_channels) {
    for (auto& ch : channels_) ch = std::make_unique<ChannelState>();
  }

  // Feeds one device-read completion on `channel`. Takes only that
  // channel's mutex; publishes the EWMA/p99 summaries through atomics.
  void RecordRead(size_t channel, SimTime latency_us) {
    ChannelState& ch = *channels_[channel % channels_.size()];
    std::lock_guard<std::mutex> lock(ch.mu);
    const uint64_t n = ch.samples.load(std::memory_order_relaxed);
    const double x = static_cast<double>(latency_us);
    const double ewma =
        n == 0 ? x : options_.ewma_alpha * x +
                         (1.0 - options_.ewma_alpha) * ch.LoadEwma();
    ch.StoreEwma(ewma);
    ch.samples.store(n + 1, std::memory_order_relaxed);
    // Windowed log2 histogram in the kLog2Buckets layout (bucket b holds
    // samples of bit width b), so the p99 is Log2BucketQuantile's estimate.
    const size_t b = static_cast<size_t>(std::bit_width(latency_us));
    ++ch.window_buckets[b];
    if (++ch.window_count >= options_.window_samples &&
        options_.window_samples > 0) {
      for (size_t i = 0; i < kLog2Buckets; ++i) {
        ch.completed_buckets[i] = ch.window_buckets[i];
        ch.window_buckets[i] = 0;
      }
      ch.completed_count = ch.window_count;
      ch.window_count = 0;
      const double p99 =
          Log2BucketQuantile(ch.completed_buckets, ch.completed_count, 0.99,
                             /*fallback=*/0.0);
      ch.completed_p99_us.store(static_cast<uint64_t>(p99),
                                std::memory_order_relaxed);
      ch.warm.store(true, std::memory_order_release);
    }
    reads_observed_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- Published summaries (lock-free reads) ------------------------------

  double Ewma(size_t channel) const {
    return channels_[channel % channels_.size()]->LoadEwma();
  }
  uint64_t SampleCount(size_t channel) const {
    return channels_[channel % channels_.size()]->samples.load(
        std::memory_order_relaxed);
  }
  // p99 of the most recently completed window; 0 until the first window
  // fills ("not warm yet").
  uint64_t CompletedP99Us(size_t channel) const {
    const ChannelState& ch = *channels_[channel % channels_.size()];
    if (!ch.warm.load(std::memory_order_acquire)) return 0;
    return ch.completed_p99_us.load(std::memory_order_relaxed);
  }
  bool Warm(size_t channel) const {
    return channels_[channel % channels_.size()]->warm.load(
        std::memory_order_acquire);
  }
  // True once any channel has a completed window to reference against.
  bool HasReference() const {
    for (const auto& ch : channels_) {
      if (ch->warm.load(std::memory_order_acquire)) return true;
    }
    return false;
  }

  // Slowdown of `channel` relative to the healthiest warm channel's EWMA:
  // 1.0 = fleet-typical, 10.0 = an order of magnitude slow. 1.0 when
  // nothing is warm yet (no basis to judge). The brownout breakers key on
  // this.
  double Score(size_t channel) const {
    double ref = 0.0;
    for (const auto& ch : channels_) {
      if (!ch->warm.load(std::memory_order_acquire)) continue;
      const double e = ch->LoadEwma();
      if (e > 0.0 && (ref == 0.0 || e < ref)) ref = e;
    }
    if (ref == 0.0) return 1.0;
    const double own = Ewma(channel);
    return own <= 0.0 ? 1.0 : own / ref;
  }

  // Adaptive hedge deadline for a read on `channel`: hedge_deadline_mult x
  // the minimum completed-window p99 over the OTHER channels (see file
  // comment for why never the channel's own tail). 0 = do not hedge: policy
  // off, governor suppression, or no other warm channel to reference.
  SimTime HedgeDeadlineUs(size_t channel) const {
    if (!options_.hedging_enabled ||
        hedging_suppressed_.load(std::memory_order_relaxed)) {
      return 0;
    }
    uint64_t ref = 0;
    for (size_t i = 0; i < channels_.size(); ++i) {
      if (i == channel) continue;
      const ChannelState& ch = *channels_[i];
      if (!ch.warm.load(std::memory_order_acquire)) continue;
      const uint64_t p99 = ch.completed_p99_us.load(std::memory_order_relaxed);
      if (p99 > 0 && (ref == 0 || p99 < ref)) ref = p99;
    }
    if (ref == 0) return 0;
    return static_cast<SimTime>(options_.hedge_deadline_mult *
                                static_cast<double>(ref));
  }

  // Warm channel (other than `channel`) with the lowest EWMA — where a
  // hedge should go. Ties break to the lowest index; returns `channel`
  // itself when there is no warm alternative (caller must not hedge).
  size_t HealthiestOther(size_t channel) const {
    size_t best = channel;
    double best_ewma = 0.0;
    for (size_t i = 0; i < channels_.size(); ++i) {
      if (i == channel) continue;
      const ChannelState& ch = *channels_[i];
      if (!ch.warm.load(std::memory_order_acquire)) continue;
      const double e = ch.LoadEwma();
      if (e <= 0.0) continue;
      if (best == channel || e < best_ewma) {
        best = i;
        best_ewma = e;
      }
    }
    return best;
  }

  // --- Hedge budget -------------------------------------------------------

  // Requests one hedge token. Granted only while issued + 1 stays within
  // hedge_budget_fraction of the reads observed so far, so the conservation
  // invariant `issued <= fraction * reads` holds at every instant (reads
  // only grow after the check, never shrink).
  bool TryAcquireHedge() {
    std::lock_guard<std::mutex> lock(budget_mu_);
    const double budget =
        options_.hedge_budget_fraction *
        static_cast<double>(reads_observed_.load(std::memory_order_relaxed));
    const uint64_t issued = hedges_issued_.load(std::memory_order_relaxed);
    if (static_cast<double>(issued + 1) > budget) {
      hedges_denied_budget_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    hedges_issued_.store(issued + 1, std::memory_order_relaxed);
    return true;
  }

  // Settles one acquired hedge: did it beat the primary?
  void RecordHedgeOutcome(bool won) {
    if (won) {
      hedges_won_.fetch_add(1, std::memory_order_relaxed);
    } else {
      hedges_wasted_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Governor hook (kNoPrefetch rung): while suppressed HedgeDeadlineUs
  // returns 0, so no new hedges are considered — a saturated system must
  // not add speculative device work.
  void set_hedging_suppressed(bool suppressed) {
    hedging_suppressed_.store(suppressed, std::memory_order_relaxed);
  }
  bool hedging_suppressed() const {
    return hedging_suppressed_.load(std::memory_order_relaxed);
  }

  ChannelHealthCounters counters() const {
    ChannelHealthCounters c;
    c.reads_observed = reads_observed_.load(std::memory_order_relaxed);
    c.hedges_issued = hedges_issued_.load(std::memory_order_relaxed);
    c.hedges_won = hedges_won_.load(std::memory_order_relaxed);
    c.hedges_wasted = hedges_wasted_.load(std::memory_order_relaxed);
    c.hedges_denied_budget =
        hedges_denied_budget_.load(std::memory_order_relaxed);
    return c;
  }

  size_t num_channels() const { return channels_.size(); }
  const ChannelHealthOptions& options() const { return options_; }

  // Back to freshly-constructed state (windows, EWMAs, budget, counters),
  // for paired experiment arms. Suppression is policy, not history — it is
  // cleared too.
  void Reset() {
    for (auto& chp : channels_) {
      ChannelState& ch = *chp;
      std::lock_guard<std::mutex> lock(ch.mu);
      for (size_t i = 0; i < kLog2Buckets; ++i) {
        ch.window_buckets[i] = 0;
        ch.completed_buckets[i] = 0;
      }
      ch.window_count = 0;
      ch.completed_count = 0;
      ch.StoreEwma(0.0);
      ch.samples.store(0, std::memory_order_relaxed);
      ch.completed_p99_us.store(0, std::memory_order_relaxed);
      ch.warm.store(false, std::memory_order_release);
    }
    reads_observed_.store(0, std::memory_order_relaxed);
    hedges_issued_.store(0, std::memory_order_relaxed);
    hedges_won_.store(0, std::memory_order_relaxed);
    hedges_wasted_.store(0, std::memory_order_relaxed);
    hedges_denied_budget_.store(0, std::memory_order_relaxed);
    hedging_suppressed_.store(false, std::memory_order_relaxed);
  }

 private:
  struct ChannelState {
    std::mutex mu;  // guards the window buckets; summaries are atomics
    uint64_t window_buckets[kLog2Buckets] = {};
    uint64_t window_count = 0;
    uint64_t completed_buckets[kLog2Buckets] = {};
    uint64_t completed_count = 0;
    std::atomic<uint64_t> ewma_bits{0};  // double bit pattern
    std::atomic<uint64_t> samples{0};
    std::atomic<uint64_t> completed_p99_us{0};
    std::atomic<bool> warm{false};

    double LoadEwma() const {
      const uint64_t bits = ewma_bits.load(std::memory_order_relaxed);
      double v;
      static_assert(sizeof(v) == sizeof(bits), "double/uint64 size mismatch");
      __builtin_memcpy(&v, &bits, sizeof(v));
      return v;
    }
    void StoreEwma(double v) {
      uint64_t bits;
      __builtin_memcpy(&bits, &v, sizeof(bits));
      ewma_bits.store(bits, std::memory_order_relaxed);
    }
  };

  ChannelHealthOptions options_;
  std::vector<std::unique_ptr<ChannelState>> channels_;

  std::mutex budget_mu_;  // serializes hedge grant decisions
  std::atomic<uint64_t> reads_observed_{0};
  std::atomic<uint64_t> hedges_issued_{0};
  std::atomic<uint64_t> hedges_won_{0};
  std::atomic<uint64_t> hedges_wasted_{0};
  std::atomic<uint64_t> hedges_denied_budget_{0};
  std::atomic<bool> hedging_suppressed_{false};
};

}  // namespace pythia

#endif  // PYTHIA_STORAGE_CHANNEL_HEALTH_H_
