// Parameterized query templates modeled on the paper's evaluation workloads:
// DSB templates 18, 19, 91 (SPJ star joins over store_sales /
// catalog_returns) and CEB/IMDB template 1a.
//
// Each Sample() draws template parameters uniformly from their domains
// (DSB's standard generator does the same) and plans the query with a small
// Postgres-style cost model: a dimension join becomes an index nested-loop
// when `estimated_probes * random_page_cost < dimension_pages`, otherwise a
// hash join over a sequential scan. Different parameter selectivities
// therefore produce different plans for the same template — the source of
// Table 1's "distinct query plans in workload".
#ifndef PYTHIA_WORKLOAD_TEMPLATES_H_
#define PYTHIA_WORKLOAD_TEMPLATES_H_

#include <memory>
#include <string>

#include "exec/plan.h"
#include "util/rng.h"
#include "workload/database.h"

namespace pythia {

enum class TemplateId { kDsb18, kDsb19, kDsb91, kImdb1a };
// The last enumerator; a stored id above it (core/predictor.cc's model
// files) names no template.
inline constexpr TemplateId kLastTemplateId = TemplateId::kImdb1a;

const char* TemplateName(TemplateId id);

// True for templates that run against the DSB database (false = IMDB).
bool IsDsbTemplate(TemplateId id);

struct QueryInstance {
  TemplateId template_id = TemplateId::kDsb18;
  std::unique_ptr<PlanNode> plan;
};

// Samples one query instance of `id` against `db`. `db` must be the
// matching database (DSB for 18/19/91, IMDB for 1a).
QueryInstance SampleQuery(const Database& db, TemplateId id, Pcg32* rng);

}  // namespace pythia

#endif  // PYTHIA_WORKLOAD_TEMPLATES_H_
