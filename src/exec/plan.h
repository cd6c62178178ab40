// Logical query plan trees.
//
// The shape mirrors the plans Postgres produces for DSB's SPJ templates
// (Section 5.1): a sequential scan of a fact relation at the bottom of a
// left-deep chain of joins into dimension relations, each join either an
// index nested-loop (inner = B-tree probe on the dimension's key) or a hash
// join (inner = filtered sequential scan of the dimension). Plans carry the
// residual filter predicates the serializer tokenizes.
#ifndef PYTHIA_EXEC_PLAN_H_
#define PYTHIA_EXEC_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/relation.h"

namespace pythia {

enum class PlanNodeType {
  kSeqScan,
  kIndexScan,
  kNestedLoopJoin,  // index nested-loop: inner child is an IndexScan
  kHashJoin,        // inner child is a SeqScan of the build side
  kAggregate,       // COUNT(*) terminal node
};

// Range predicate lo <= column <= hi (equality when lo == hi).
struct Predicate {
  std::string column;
  Value lo = 0;
  Value hi = 0;
};

struct PlanNode {
  PlanNodeType type = PlanNodeType::kSeqScan;

  // Scan nodes.
  std::string relation;             // scanned base relation
  std::string index;                // kIndexScan: index name
  std::vector<Predicate> filters;   // residual predicates on this relation

  // Join nodes: the outer column whose value probes the inner side, and the
  // inner column it must match (the dimension key).
  std::string outer_key;
  std::string inner_key;

  // children[0] = outer (or only) child; children[1] = inner for joins.
  std::vector<std::unique_ptr<PlanNode>> children;

  // --- construction helpers -------------------------------------------
  static std::unique_ptr<PlanNode> SeqScan(std::string relation,
                                           std::vector<Predicate> filters);
  static std::unique_ptr<PlanNode> IndexScan(std::string relation,
                                             std::string index,
                                             std::vector<Predicate> filters);
  static std::unique_ptr<PlanNode> NestedLoopJoin(
      std::unique_ptr<PlanNode> outer, std::unique_ptr<PlanNode> inner,
      std::string outer_key, std::string inner_key);
  static std::unique_ptr<PlanNode> HashJoin(std::unique_ptr<PlanNode> outer,
                                            std::unique_ptr<PlanNode> inner,
                                            std::string outer_key,
                                            std::string inner_key);
  static std::unique_ptr<PlanNode> Aggregate(std::unique_ptr<PlanNode> child);

  // Deep copy (plans are stored per query instance).
  std::unique_ptr<PlanNode> Clone() const;
};

}  // namespace pythia

#endif  // PYTHIA_EXEC_PLAN_H_
