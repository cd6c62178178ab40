// Workload generation: samples N query instances of one template, executes
// each against the database to collect its page-access trace (the paper's
// "query trace" construction, Section 2), serializes its plan, and splits
// the result 95/5 into train/test ("We randomly sample 5% of the queries
// from each workload for testing", Section 5.1).
#ifndef PYTHIA_WORKLOAD_GENERATOR_H_
#define PYTHIA_WORKLOAD_GENERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/serializer.h"
#include "exec/trace.h"
#include "util/rng.h"
#include "workload/database.h"
#include "workload/templates.h"

namespace pythia {

struct WorkloadQuery {
  QueryInstance instance;
  QueryTrace trace;
  std::vector<std::string> tokens;  // serialized plan (model input)
  std::string structure_key;        // plan structure (distinct-plan counting)
};

struct Workload {
  TemplateId template_id = TemplateId::kDsb18;
  std::vector<WorkloadQuery> queries;
  std::vector<size_t> train_indices;
  std::vector<size_t> test_indices;

  size_t DistinctPlans() const;
};

struct WorkloadOptions {
  int num_queries = 300;
  double test_fraction = 0.05;
  uint64_t seed = 7;
};

// Generates and executes the workload. Traces are collected once here and
// reused by both training and the timing simulator.
Result<Workload> GenerateWorkload(const Database& db, TemplateId id,
                                  const WorkloadOptions& options);

// --- Fleet simulation (bench_fleet, core/batch_predictor.h) --------------

// Zipfian sampler over ranks {0, .., n-1} with exponent theta in (0, 1),
// after YCSB's ZipfianGenerator (closed-form inverse-CDF approximation):
// rank 0 is the most popular, frequencies fall off as ~1/(r+1)^theta.
// Unlike util/rng.h's ZipfSampler this needs no O(n) CDF table — setup is
// one zeta(n) sum and sampling is constant-time, so fleet harnesses can
// afford one picker per workload at any catalog size.
class ZipfianPicker {
 public:
  ZipfianPicker(size_t n, double theta);

  // Rank in [0, n). Draws exactly one double from *rng.
  size_t Sample(Pcg32* rng) const;

  size_t n() const { return n_; }

 private:
  size_t n_;
  double theta_;
  double zetan_;      // generalized harmonic number H_{n,theta}
  double alpha_;      // 1 / (1 - theta)
  double eta_;
  double threshold1_; // 1 + 0.5^theta, the uz cutoff for rank 1
};

// How fleet sessions arrive in virtual time.
enum class ArrivalProcess {
  kPoisson,  // exponential inter-arrival gaps around mean_gap_us
  kBursty,   // bursts of burst_size back-to-back sessions, widely spaced
};

// One simulated session: which query it runs and when it shows up.
struct FleetSessionSpec {
  uint64_t arrival_us = 0;    // virtual microseconds (SimTime)
  size_t workload_index = 0;  // into the caller's workload list
  size_t query_index = 0;     // into that workload's queries
  uint32_t tenant = 0;
  int priority = 0;           // tenant % 3 -> PrefetcherOptions::priority
};

struct FleetOptions {
  size_t num_sessions = 200;
  ArrivalProcess arrivals = ArrivalProcess::kPoisson;
  double mean_gap_us = 500.0;        // Poisson mean inter-arrival gap
  size_t burst_size = 64;            // bursty: sessions per burst
  uint64_t burst_gap_us = 50000;     // bursty: gap between burst starts
  uint64_t intra_burst_gap_us = 10;  // bursty: spacing inside one burst
  double query_theta = 0.9;          // popularity skew within a workload
  uint32_t num_tenants = 8;
  uint64_t seed = 1234;
};

// Samples `num_sessions` session specs with nondecreasing arrival times.
// Template (theta 0.8) and query (query_theta) popularity are Zipf-skewed
// (rank == index: lower indices are hotter), so a fleet revisits hot plans
// often — which is what both the prediction cache and the batch dedupe
// window feed on. Arrival
// timing and popularity draw from two independent seeded Pcg32 streams, so
// switching the arrival process never perturbs which queries are sampled.
std::vector<FleetSessionSpec> GenerateFleetArrivals(
    const std::vector<size_t>& queries_per_workload,
    const FleetOptions& options);

}  // namespace pythia

#endif  // PYTHIA_WORKLOAD_GENERATOR_H_
