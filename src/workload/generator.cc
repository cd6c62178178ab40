#include "workload/generator.h"

#include <cmath>
#include <numeric>
#include <unordered_set>

namespace pythia {

namespace {

// Zipf popularity skew across a fleet's workloads (templates).
constexpr double kTemplateTheta = 0.8;

}  // namespace

size_t Workload::DistinctPlans() const {
  std::unordered_set<std::string> keys;
  for (const WorkloadQuery& q : queries) keys.insert(q.structure_key);
  return keys.size();
}

Result<Workload> GenerateWorkload(const Database& db, TemplateId id,
                                  const WorkloadOptions& options) {
  Workload workload;
  workload.template_id = id;
  Pcg32 rng(options.seed, /*stream=*/static_cast<uint64_t>(id) + 17);

  Executor executor(&db.catalog, &db.indexes);
  PlanSerializer serializer(&db.catalog);

  workload.queries.reserve(static_cast<size_t>(options.num_queries));
  for (int i = 0; i < options.num_queries; ++i) {
    WorkloadQuery q;
    q.instance = SampleQuery(db, id, &rng);
    TraceRecorder recorder;
    Result<QueryResult> result = executor.Execute(*q.instance.plan, &recorder);
    if (!result.ok()) return result.status();
    q.trace = recorder.Take();
    q.tokens = serializer.Serialize(*q.instance.plan);
    q.structure_key = serializer.StructureKey(*q.instance.plan);
    workload.queries.push_back(std::move(q));
  }

  // Random train/test split.
  std::vector<size_t> order(workload.queries.size());
  std::iota(order.begin(), order.end(), 0u);
  rng.Shuffle(&order);
  const size_t num_test = std::max<size_t>(
      1, static_cast<size_t>(order.size() * options.test_fraction));
  workload.test_indices.assign(order.begin(), order.begin() + num_test);
  workload.train_indices.assign(order.begin() + num_test, order.end());
  return workload;
}

ZipfianPicker::ZipfianPicker(size_t n, double theta)
    : n_(n == 0 ? 1 : n), theta_(theta), alpha_(1.0 / (1.0 - theta)) {
  zetan_ = 0.0;
  for (size_t i = 0; i < n_; ++i) {
    zetan_ += 1.0 / std::pow(static_cast<double>(i + 1), theta_);
  }
  const double zeta2 = 1.0 + std::pow(0.5, theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
  threshold1_ = zeta2;
}

size_t ZipfianPicker::Sample(Pcg32* rng) const {
  const double u = rng->UniformDouble();
  const double uz = u * zetan_;
  if (uz < 1.0 || n_ == 1) return 0;
  if (uz < threshold1_) return 1;
  const size_t rank = static_cast<size_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

std::vector<FleetSessionSpec> GenerateFleetArrivals(
    const std::vector<size_t>& queries_per_workload,
    const FleetOptions& options) {
  // Two independent streams: arrival timing and popularity. The split is
  // deliberate — comparing Poisson vs bursty arms of the same seed keeps
  // the sampled session mix identical, isolating the arrival process.
  Pcg32 arrival_rng(options.seed, /*stream=*/0xA1);
  Pcg32 pop_rng(options.seed, /*stream=*/0xB2);

  ZipfianPicker template_picker(queries_per_workload.size(),
                                kTemplateTheta);
  std::vector<ZipfianPicker> query_pickers;
  query_pickers.reserve(queries_per_workload.size());
  for (size_t n : queries_per_workload) {
    query_pickers.emplace_back(n, options.query_theta);
  }

  std::vector<FleetSessionSpec> sessions;
  sessions.reserve(options.num_sessions);
  uint64_t t = 0;
  for (size_t i = 0; i < options.num_sessions; ++i) {
    FleetSessionSpec s;
    switch (options.arrivals) {
      case ArrivalProcess::kPoisson: {
        // Exponential inter-arrival gap around the configured mean.
        const double u = arrival_rng.UniformDouble();
        t += static_cast<uint64_t>(-options.mean_gap_us *
                                   std::log(1.0 - u));
        break;
      }
      case ArrivalProcess::kBursty: {
        const size_t burst = i / options.burst_size;
        const size_t pos = i % options.burst_size;
        t = burst * options.burst_gap_us + pos * options.intra_burst_gap_us;
        break;
      }
    }
    s.arrival_us = t;
    s.workload_index = template_picker.Sample(&pop_rng);
    s.query_index = query_pickers[s.workload_index].Sample(&pop_rng);
    s.tenant = options.num_tenants == 0
                   ? 0
                   : pop_rng.UniformU32(options.num_tenants);
    s.priority = static_cast<int>(s.tenant % 3);
    sessions.push_back(s);
  }
  return sessions;
}

}  // namespace pythia
