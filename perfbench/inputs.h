// Seeded inputs of the serving benchmark. One --seed drives every generated
// input: the t91 training and serving query streams, the fleet's catalog,
// arrivals and popularity, and the fault streams. The database itself is the
// canonical DSB build (scale factor 100, seed 42) on every seed.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/database.h"
#include "workload/generator.h"

namespace perfbench {

enum class WorkloadKind { kT91Cold, kZipfFleet, kT91Faulty };

inline const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kT91Cold: return "t91_cold";
    case WorkloadKind::kZipfFleet: return "zipf_fleet";
    case WorkloadKind::kT91Faulty: return "t91_faulty";
  }
  return "unknown";
}

inline bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  for (WorkloadKind k : {WorkloadKind::kT91Cold, WorkloadKind::kZipfFleet,
                         WorkloadKind::kT91Faulty}) {
    if (name == WorkloadName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

// Training stream: t91 instances, the paper's 95/5 split.
inline constexpr int kTrainQueries = 300;
// Fresh t91 queries served by t91_cold and t91_faulty, one round; 1000 so
// that a p99 has ten queries beyond it.
inline constexpr int kServeQueries = 1000;
// Fleet catalog (index 0 is the hotter query of each template). 30 t91
// instances, so that a round's t91 sessions mostly repeat a plan and hit the
// prediction cache (about 0.8 of them); 100 t19 instances.
inline constexpr int kCatalogT91 = 30;
inline constexpr int kCatalogT19 = 100;
// Sessions per fleet round, fixed because per-session replay cost grows with
// the session count.
inline constexpr size_t kFleetSessions = 250;

// SplitMix64 of (seed, stream): independent sub-seeds per input stream.
inline uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Inputs {
  std::unique_ptr<pythia::Database> db;
  pythia::Workload train;  // t91 training stream
  pythia::Workload t91;    // fresh t91 serving stream, or the fleet's catalog
  pythia::Workload t19;    // fleet catalog only: matches no model
  uint64_t fault_seed = 0;
  uint64_t fleet_seed = 0;
};

inline pythia::Status Generate(const pythia::Database& db,
                               pythia::TemplateId id, int n,
                               double test_fraction, uint64_t seed,
                               pythia::Workload* out) {
  pythia::WorkloadOptions options;
  options.num_queries = n;
  options.test_fraction = test_fraction;
  options.seed = seed;
  pythia::Result<pythia::Workload> w = pythia::GenerateWorkload(db, id, options);
  if (!w.ok()) return w.status();
  *out = std::move(*w);
  return pythia::Status::OK();
}

// Builds the database and every generated input of `kind` for `seed`.
inline pythia::Status MakeInputs(WorkloadKind kind, uint64_t seed,
                                 Inputs* in) {
  in->db = pythia::BuildDsbDatabase(
      pythia::DsbConfig{.scale_factor = 100, .seed = 42});
  in->fault_seed = SubSeed(seed, 3);
  in->fleet_seed = SubSeed(seed, 4);
  pythia::Status s = Generate(*in->db, pythia::TemplateId::kDsb91,
                              kTrainQueries, 0.05, SubSeed(seed, 0),
                              &in->train);
  if (!s.ok()) return s;
  if (kind != WorkloadKind::kZipfFleet) {
    return Generate(*in->db, pythia::TemplateId::kDsb91, kServeQueries, 0.0,
                    SubSeed(seed, 1), &in->t91);
  }
  s = Generate(*in->db, pythia::TemplateId::kDsb91, kCatalogT91, 0.0,
               SubSeed(seed, 1), &in->t91);
  if (!s.ok()) return s;
  return Generate(*in->db, pythia::TemplateId::kDsb19, kCatalogT19, 0.0,
                  SubSeed(seed, 2), &in->t19);
}

// Session arrivals of fleet round `round`: Poisson in virtual time with mean
// gap `mean_gap_us`, Zipf popularity over the catalog (t91 hotter than t19,
// low indices hotter). Which sessions arrive does not depend on the gap, only
// when they do.
// Query popularity is skewed with theta 0.5, not FleetOptions' default of
// 0.9. At 0.9 a round's work hangs on a few hot catalog queries that change
// with the seed: the mean page accesses per session then vary twice as much
// between seeds (interquartile spread 0.06 against 0.03 over seeds 1-10).
inline std::vector<pythia::FleetSessionSpec> FleetArrivals(const Inputs& in,
                                                           size_t round,
                                                           double mean_gap_us) {
  pythia::FleetOptions options;
  options.num_sessions = kFleetSessions;
  options.arrivals = pythia::ArrivalProcess::kPoisson;
  options.mean_gap_us = mean_gap_us;
  options.query_theta = 0.5;
  options.seed = SubSeed(in.fleet_seed, round);
  return pythia::GenerateFleetArrivals({in.t91.queries.size(),
                                        in.t19.queries.size()},
                                       options);
}

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
