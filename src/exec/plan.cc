#include "exec/plan.h"

namespace pythia {

std::unique_ptr<PlanNode> PlanNode::SeqScan(std::string relation,
                                            std::vector<Predicate> filters) {
  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kSeqScan;
  node->relation = std::move(relation);
  node->filters = std::move(filters);
  return node;
}

std::unique_ptr<PlanNode> PlanNode::IndexScan(
    std::string relation, std::string index, std::vector<Predicate> filters) {
  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kIndexScan;
  node->relation = std::move(relation);
  node->index = std::move(index);
  node->filters = std::move(filters);
  return node;
}

std::unique_ptr<PlanNode> PlanNode::NestedLoopJoin(
    std::unique_ptr<PlanNode> outer, std::unique_ptr<PlanNode> inner,
    std::string outer_key, std::string inner_key) {
  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kNestedLoopJoin;
  node->outer_key = std::move(outer_key);
  node->inner_key = std::move(inner_key);
  node->children.push_back(std::move(outer));
  node->children.push_back(std::move(inner));
  return node;
}

std::unique_ptr<PlanNode> PlanNode::HashJoin(std::unique_ptr<PlanNode> outer,
                                             std::unique_ptr<PlanNode> inner,
                                             std::string outer_key,
                                             std::string inner_key) {
  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kHashJoin;
  node->outer_key = std::move(outer_key);
  node->inner_key = std::move(inner_key);
  node->children.push_back(std::move(outer));
  node->children.push_back(std::move(inner));
  return node;
}

std::unique_ptr<PlanNode> PlanNode::Aggregate(
    std::unique_ptr<PlanNode> child) {
  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kAggregate;
  node->children.push_back(std::move(child));
  return node;
}

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto node = std::make_unique<PlanNode>();
  node->type = type;
  node->relation = relation;
  node->index = index;
  node->filters = filters;
  node->outer_key = outer_key;
  node->inner_key = inner_key;
  for (const auto& child : children) node->children.push_back(child->Clone());
  return node;
}

}  // namespace pythia
