// Deterministic, seeded fault injection for the simulated storage stack.
//
// Production prefetching is only a win while every async read succeeds and
// the device behaves; this injector lets the replay harness probe the other
// regime. It models three fault classes on the *device* path (buffer-pool
// and OS-cache hits are memory operations and never fault):
//  - transient I/O errors: a disk read fails outright and the caller decides
//    whether to retry (foreground fetch) or drop (speculative prefetch);
//  - tail-latency spikes: a disk read succeeds but takes a configurable
//    multiple (default 10-50x) of its modeled latency;
//  - stalled AIO channels: an async I/O worker freezes for a fixed virtual
//    duration before servicing its request;
//  - silent corruption: the read "succeeds" but the bytes are wrong — a
//    bit-flip somewhere in the page image, a torn write (the image mixes two
//    page versions), or a stale read (a fully valid but outdated version).
//    The SimulatedDisk materializes the corrupted image; checksum/header
//    verification on the read path decides whether it is caught;
//  - brownouts (the gray-failure mode): for a window of device reads the
//    channel is simply slow — every read's latency is multiplied, no error
//    is ever raised — which is invisible to every error-keyed defense and
//    exactly what the channel-health layer (storage/channel_health.h) is
//    built to catch.
//
// Every decision is drawn from an explicitly seeded Pcg32 consumed in call
// order, so two runs with identical seeds and identical call sequences
// produce bit-identical fault patterns (and therefore identical metrics).
// Retry-backoff jitter, corruption, AIO stalls and brownout jitter each use
// a separate stream so the retry policy cannot perturb the fault sequence
// itself, enabling corruption does not shift the transient-error/spike
// sequence, and stall draws (consumed under the IoScheduler's bookkeeping
// mutex) never race or interleave with read draws (consumed under a cache
// channel mutex) on a shared stream.
#ifndef PYTHIA_STORAGE_FAULT_INJECTOR_H_
#define PYTHIA_STORAGE_FAULT_INJECTOR_H_

#include <cstdint>

#include "storage/sim_clock.h"
#include "util/rng.h"

namespace pythia {

struct FaultConfig {
  // Probability that a disk read (sequential or random) fails transiently.
  double transient_error_prob = 0.0;
  // Probability that a successful disk read hits a tail-latency spike.
  double tail_latency_prob = 0.0;
  // Spike magnitude: latency is multiplied by a uniform draw in
  // [tail_latency_min_mult, tail_latency_max_mult].
  double tail_latency_min_mult = 10.0;
  double tail_latency_max_mult = 50.0;
  // Probability that an AIO channel stalls before servicing a request, and
  // for how long (virtual microseconds).
  double aio_stall_prob = 0.0;
  SimTime aio_stall_us = 20000;
  // Silent-corruption probabilities, drawn once per device page read (and
  // per kernel readahead page). bit_flip_prob is per *read*, not per bit:
  // one read in 1/p returns an image with a single flipped bit.
  double bit_flip_prob = 0.0;
  double torn_write_prob = 0.0;
  double stale_read_prob = 0.0;
  // Durable-write faults on the *host filesystem* path (model .pywm files,
  // .lkg sidecars, checkpoint manifests — storage/durable.h). Page images
  // above are simulated-device reads; these model the write side lying:
  //  - durable_torn_write_prob: the payload is silently truncated mid-write
  //    but the atomic publish completes — only the CRC framing catches it
  //    on the next load;
  //  - durable_rename_fail_prob: the rename(tmp, path) publish step fails.
  double durable_torn_write_prob = 0.0;
  double durable_rename_fail_prob = 0.0;
  // Sustained-slowness brownout (the gray-failure mode): device reads with
  // 0-based ordinal in [brownout_start_read, brownout_start_read +
  // brownout_duration_reads) have their latency multiplied by
  // brownout_latency_mult — no error is ever raised. brownout_jitter
  // spreads each read's multiplier uniformly over ±jitter of the nominal
  // value, drawn from a dedicated stream so enabling a brownout never
  // perturbs the error/spike/stall sequences.
  double brownout_latency_mult = 1.0;
  uint64_t brownout_start_read = 0;
  uint64_t brownout_duration_reads = 0;  // 0 = no brownout
  double brownout_jitter = 0.0;
  uint64_t seed = 0;

  bool brownout_enabled() const {
    return brownout_latency_mult > 1.0 && brownout_duration_reads > 0;
  }
  bool corruption_enabled() const {
    return bit_flip_prob > 0.0 || torn_write_prob > 0.0 ||
           stale_read_prob > 0.0;
  }
  bool durable_faults_enabled() const {
    return durable_torn_write_prob > 0.0 || durable_rename_fail_prob > 0.0;
  }
  bool enabled() const {
    return transient_error_prob > 0.0 || tail_latency_prob > 0.0 ||
           aio_stall_prob > 0.0 || corruption_enabled() ||
           durable_faults_enabled() || brownout_enabled();
  }
};

struct FaultStats {
  uint64_t disk_reads_probed = 0;
  uint64_t injected_errors = 0;
  uint64_t injected_spikes = 0;
  uint64_t injected_stalls = 0;
  uint64_t injected_bit_flips = 0;
  uint64_t injected_torn_writes = 0;
  uint64_t injected_stale_reads = 0;
  uint64_t injected_durable_torn_writes = 0;
  uint64_t injected_rename_failures = 0;
  uint64_t injected_brownout_reads = 0;  // reads slowed inside the window
  SimTime injected_brownout_us = 0;  // total extra latency from the brownout
};

// What the device silently did to one page image it returned.
enum class CorruptionKind {
  kNone,
  kBitFlip,    // one bit of the image flipped
  kTornWrite,  // image mixes the current and the previous version
  kStaleRead,  // fully valid image of the previous version
};

// Outcome of consulting the injector for one disk read.
struct DiskReadFault {
  bool transient_error = false;
  SimTime extra_latency_us = 0;  // tail spike on top of the modeled latency
};

// What the device silently did to one durable host-filesystem write
// (consulted by storage/durable.h's WriteFileAtomic).
struct DurableWriteFault {
  bool torn_write = false;
  // Fraction of the payload's second half that actually reached the disk
  // when torn (the first half always lands — mirrors the page-image torn
  // write, which keeps the leading half of the new version).
  double torn_fraction = 0.5;
  bool rename_failure = false;
};

// How a *foreground* (synchronous) read retries after a transient error.
// Prefetch reads never retry: a failed speculative read is simply dropped.
struct RetryPolicy {
  uint32_t max_attempts = 8;  // first try + up to 7 retries
  SimTime initial_backoff_us = 50;
  double backoff_multiplier = 2.0;
  SimTime max_backoff_us = 5000;
};

class FaultInjector {
 public:
  // The one place the streams' seeds are spelled: each stream mixes the
  // config seed with its own constant on its own PCG sequence. The resets
  // below restore streams by building a fresh injector.
  explicit FaultInjector(const FaultConfig& config)
      : config_(config),
        rng_(config.seed, 0x705eca7a1ULL),
        backoff_rng_(config.seed ^ 0x9e3779b97f4a7c15ULL, 0xbac0ffULL),
        corruption_rng_(config.seed ^ 0xc0de2badc0de2badULL, 0xc42c42ULL),
        durable_rng_(config.seed ^ 0xd0d0beefcafef00dULL, 0xd00dULL),
        stall_rng_(config.seed ^ 0x57a1157a1157a115ULL, 0x57a11ULL),
        brownout_rng_(config.seed ^ 0xb70b70b70b70b70bULL, 0xb707ULL) {}

  // Consulted once per disk read, with the latency the device would charge.
  DiskReadFault OnDiskRead(SimTime base_latency_us) {
    DiskReadFault fault;
    if (!config_.enabled()) return fault;
    ++stats_.disk_reads_probed;
    if (config_.transient_error_prob > 0.0 &&
        rng_.UniformDouble() < config_.transient_error_prob) {
      fault.transient_error = true;
      ++stats_.injected_errors;
      return fault;
    }
    if (config_.tail_latency_prob > 0.0 &&
        rng_.UniformDouble() < config_.tail_latency_prob) {
      const double mult = rng_.UniformRange(config_.tail_latency_min_mult,
                                            config_.tail_latency_max_mult);
      fault.extra_latency_us =
          static_cast<SimTime>(static_cast<double>(base_latency_us) * mult);
      ++stats_.injected_spikes;
    }
    // Brownout window: keyed on the device-read ordinal (0-based, counted by
    // disk_reads_probed above), so the window is a deterministic function of
    // the read sequence alone. Errors above win — a failed read has no
    // latency to slow down — and the extra time stacks on top of any spike,
    // like a slow channel under a slow device would.
    if (config_.brownout_enabled()) {
      const uint64_t ordinal = stats_.disk_reads_probed - 1;
      if (ordinal >= config_.brownout_start_read &&
          ordinal - config_.brownout_start_read <
              config_.brownout_duration_reads) {
        double mult = config_.brownout_latency_mult - 1.0;
        if (config_.brownout_jitter > 0.0) {
          const double j = config_.brownout_jitter;
          mult *= 1.0 - j + 2.0 * j * brownout_rng_.UniformDouble();
        }
        const SimTime extra = static_cast<SimTime>(
            static_cast<double>(base_latency_us) * mult);
        fault.extra_latency_us += extra;
        ++stats_.injected_brownout_reads;
        stats_.injected_brownout_us += extra;
      }
    }
    return fault;
  }

  // Extra channel-occupancy time for one async request; 0 when no stall.
  // Dedicated stream: stall draws happen under the IoScheduler's
  // bookkeeping mutex while read draws happen under a cache channel mutex,
  // so sharing a stream with OnDiskRead was both a data race (when one
  // injector served both paths) and a reset hazard (IoScheduler::Reset
  // could not rewind stalls without rewinding the read faults too).
  SimTime OnAioSchedule() {
    if (config_.aio_stall_prob <= 0.0) return 0;
    if (stall_rng_.UniformDouble() >= config_.aio_stall_prob) return 0;
    ++stats_.injected_stalls;
    return config_.aio_stall_us;
  }

  // Rewinds ONLY the AIO stall stream to its seeded state — the reset
  // contract IoScheduler::Reset needs: a reset scheduler replaying the same
  // request sequence must observe the same stalls as a fresh one, while the
  // read-fault streams (a property of the device, not of the scheduler)
  // keep their history. Stall stats are cumulative device history and are
  // deliberately not cleared.
  void ResetStallStream() { stall_rng_ = FaultInjector(config_).stall_rng_; }

  // Consulted once per page image the device returns (including each page a
  // kernel readahead pulls in): did the device silently corrupt it, and how?
  // Draws from a dedicated stream so enabling corruption never perturbs the
  // transient-error/spike/stall sequences.
  CorruptionKind OnPageImage() {
    if (!config_.corruption_enabled()) return CorruptionKind::kNone;
    if (config_.bit_flip_prob > 0.0 &&
        corruption_rng_.UniformDouble() < config_.bit_flip_prob) {
      ++stats_.injected_bit_flips;
      return CorruptionKind::kBitFlip;
    }
    if (config_.torn_write_prob > 0.0 &&
        corruption_rng_.UniformDouble() < config_.torn_write_prob) {
      ++stats_.injected_torn_writes;
      return CorruptionKind::kTornWrite;
    }
    if (config_.stale_read_prob > 0.0 &&
        corruption_rng_.UniformDouble() < config_.stale_read_prob) {
      ++stats_.injected_stale_reads;
      return CorruptionKind::kStaleRead;
    }
    return CorruptionKind::kNone;
  }

  // Bit position for a kBitFlip image of `image_bits` bits.
  uint32_t CorruptBitIndex(uint32_t image_bits) {
    return corruption_rng_.UniformU32(image_bits);
  }

  // Consulted once per durable host-filesystem publish (model files and
  // checkpoint manifests via storage/durable.h). Dedicated stream: enabling
  // durable faults never perturbs the read-path fault sequences, and vice
  // versa.
  DurableWriteFault OnDurableWrite() {
    DurableWriteFault fault;
    if (!config_.durable_faults_enabled()) return fault;
    if (config_.durable_torn_write_prob > 0.0 &&
        durable_rng_.UniformDouble() < config_.durable_torn_write_prob) {
      fault.torn_write = true;
      fault.torn_fraction = 0.25 + 0.5 * durable_rng_.UniformDouble();
      ++stats_.injected_durable_torn_writes;
    }
    if (config_.durable_rename_fail_prob > 0.0 &&
        durable_rng_.UniformDouble() < config_.durable_rename_fail_prob) {
      fault.rename_failure = true;
      ++stats_.injected_rename_failures;
    }
    return fault;
  }

  // Backoff for the `attempt`-th retry (attempt >= 1) under `policy`:
  // capped exponential with +/-50% deterministic jitter.
  SimTime RetryBackoff(const RetryPolicy& policy, uint32_t attempt) {
    double backoff = static_cast<double>(policy.initial_backoff_us);
    for (uint32_t i = 1; i < attempt; ++i) {
      backoff *= policy.backoff_multiplier;
      if (backoff >= static_cast<double>(policy.max_backoff_us)) break;
    }
    if (backoff > static_cast<double>(policy.max_backoff_us)) {
      backoff = static_cast<double>(policy.max_backoff_us);
    }
    const double jitter = 0.5 + backoff_rng_.UniformDouble();  // [0.5, 1.5)
    return static_cast<SimTime>(backoff * jitter);
  }

  // Restores the RNG streams to their seeded state and clears the counters,
  // so paired experiment arms (e.g. DFLT vs PYTHIA over the same queries)
  // observe the identical fault sequence.
  void Reset() { *this = FaultInjector(config_); }

  const FaultConfig& config() const { return config_; }
  const FaultStats& stats() const { return stats_; }

 private:
  FaultConfig config_;
  Pcg32 rng_;
  Pcg32 backoff_rng_;
  Pcg32 corruption_rng_;
  Pcg32 durable_rng_;
  Pcg32 stall_rng_;
  Pcg32 brownout_rng_;
  FaultStats stats_;
};

}  // namespace pythia

#endif  // PYTHIA_STORAGE_FAULT_INJECTOR_H_
