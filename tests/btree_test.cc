#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "index/btree.h"
#include "index/index_registry.h"
#include "util/rng.h"

namespace pythia {
namespace {

// Builds a relation with one key column holding `values`.
struct Fixture {
  Catalog catalog;
  Relation* rel;
  explicit Fixture(const std::vector<Value>& values) {
    rel = catalog.CreateRelation("t", {"k", "payload"}, 8);
    for (size_t i = 0; i < values.size(); ++i) {
      rel->AppendRow({values[i], static_cast<Value>(i * 10)});
    }
  }
};

std::vector<RowId> BruteForceRange(const std::vector<Value>& values, Value lo,
                                   Value hi) {
  std::vector<RowId> out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] >= lo && values[i] <= hi) {
      out.push_back(static_cast<RowId>(i));
    }
  }
  return out;
}

TEST(BTreeTest, PointLookup) {
  Fixture f({5, 3, 9, 3, 7});
  BTreeIndex index(&f.catalog, *f.rel, "k", /*fanout=*/4);
  std::vector<RowId> rids = index.Lookup(3, nullptr);
  std::sort(rids.begin(), rids.end());
  EXPECT_EQ(rids, (std::vector<RowId>{1, 3}));
  EXPECT_TRUE(index.Lookup(4, nullptr).empty());
}

TEST(BTreeTest, RangeLookupMatchesBruteForce) {
  std::vector<Value> values;
  Pcg32 rng(77);
  for (int i = 0; i < 500; ++i) values.push_back(rng.UniformInt(0, 99));
  Fixture f(values);
  BTreeIndex index(&f.catalog, *f.rel, "k", 16);
  for (auto [lo, hi] : std::vector<std::pair<Value, Value>>{
           {0, 99}, {10, 20}, {50, 50}, {99, 99}, {-5, 3}, {95, 200}}) {
    std::vector<RowId> got = index.RangeLookup(lo, hi, nullptr);
    std::vector<RowId> want = BruteForceRange(values, lo, hi);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "range [" << lo << "," << hi << "]";
  }
}

TEST(BTreeTest, EmptyRangeAndInvertedRange) {
  Fixture f({1, 2, 3});
  BTreeIndex index(&f.catalog, *f.rel, "k", 4);
  EXPECT_TRUE(index.RangeLookup(10, 20, nullptr).empty());
  EXPECT_TRUE(index.RangeLookup(3, 1, nullptr).empty());
}

TEST(BTreeTest, EmptyRelation) {
  Fixture f({});
  BTreeIndex index(&f.catalog, *f.rel, "k", 4);
  EXPECT_TRUE(index.Lookup(1, nullptr).empty());
  EXPECT_GE(index.num_pages(), 1u);
}

TEST(BTreeTest, AccessPathGoesRootToLeaf) {
  std::vector<Value> values;
  for (Value v = 0; v < 300; ++v) values.push_back(v);
  Fixture f(values);
  BTreeIndex index(&f.catalog, *f.rel, "k", 8);
  EXPECT_GE(index.height(), 3u);

  std::vector<PageId> path;
  index.Lookup(137, &path);
  ASSERT_EQ(path.size(), index.height());
  for (const PageId& p : path) {
    EXPECT_EQ(p.object_id, index.object_id());
    EXPECT_LT(p.page_no, index.num_pages());
  }
  // Root is the same for every lookup.
  std::vector<PageId> path2;
  index.Lookup(5, &path2);
  EXPECT_EQ(path.front(), path2.front());
}

TEST(BTreeTest, SiblingLeavesShareRootPath) {
  // The paper's observation: adjacent keys repeat the root-to-parent path.
  std::vector<Value> values;
  for (Value v = 0; v < 200; ++v) values.push_back(v);
  Fixture f(values);
  BTreeIndex index(&f.catalog, *f.rel, "k", 8);
  std::vector<PageId> a, b;
  index.Lookup(40, &a);
  index.Lookup(41, &b);
  // The descent is exactly `height` pages (a duplicate run may add sibling
  // leaves after it); the root-to-parent prefix coincides for nearby keys.
  ASSERT_GE(a.size(), index.height());
  ASSERT_GE(b.size(), index.height());
  for (size_t i = 0; i + 1 < index.height(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(BTreeTest, RangeScanWalksLeafChain) {
  std::vector<Value> values;
  for (Value v = 0; v < 100; ++v) values.push_back(v);
  Fixture f(values);
  BTreeIndex index(&f.catalog, *f.rel, "k", 8);
  std::vector<PageId> path;
  std::vector<RowId> rids = index.RangeLookup(10, 40, &path);
  EXPECT_EQ(rids.size(), 31u);
  // Needs multiple leaves: path longer than a single root-to-leaf descent.
  EXPECT_GT(path.size(), index.height());
}

TEST(BTreeTest, DuplicateRunAcrossLeaves) {
  // 50 copies of the same key must all be found even though they span
  // several 8-entry leaves.
  std::vector<Value> values(50, 42);
  values.push_back(41);
  values.push_back(43);
  Fixture f(values);
  BTreeIndex index(&f.catalog, *f.rel, "k", 8);
  EXPECT_EQ(index.Lookup(42, nullptr).size(), 50u);
  EXPECT_EQ(index.Lookup(41, nullptr).size(), 1u);
}

TEST(BTreeTest, RegistersObjectInCatalog) {
  Fixture f({1, 2, 3});
  BTreeIndex index(&f.catalog, *f.rel, "k", 4);
  EXPECT_EQ(index.name(), "t_k_idx");
  EXPECT_EQ(f.catalog.ObjectName(index.object_id()), "t_k_idx");
  EXPECT_EQ(f.catalog.ObjectPages(index.object_id()), index.num_pages());
}

class BTreeFanoutTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BTreeFanoutTest, CorrectAcrossFanouts) {
  Pcg32 rng(GetParam());
  std::vector<Value> values;
  for (int i = 0; i < 1000; ++i) values.push_back(rng.UniformInt(0, 250));
  Fixture f(values);
  BTreeIndex index(&f.catalog, *f.rel, "k", GetParam());
  for (Value probe : {0, 1, 100, 249, 250}) {
    std::vector<RowId> got = index.Lookup(probe, nullptr);
    std::vector<RowId> want = BruteForceRange(values, probe, probe);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "fanout " << GetParam() << " key " << probe;
  }
  // Larger fanout => shallower tree.
  if (GetParam() >= 64) {
    EXPECT_LE(index.height(), 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, BTreeFanoutTest,
                         ::testing::Values(4, 8, 16, 64, 256));

TEST(IndexRegistryTest, AddGetFind) {
  Catalog cat;
  Relation* rel = cat.CreateRelation("t", {"k"}, 8);
  rel->AppendRow({1});
  IndexRegistry registry;
  BTreeIndex* idx =
      registry.Add(std::make_unique<BTreeIndex>(&cat, *rel, "k", 4));
  EXPECT_EQ(registry.Get("t_k_idx"), idx);
  EXPECT_EQ(registry.Get("nope"), nullptr);
  EXPECT_EQ(registry.Find("t", "k"), idx);
  EXPECT_EQ(registry.Find("t", "other"), nullptr);
  EXPECT_EQ(registry.all().size(), 1u);
}

}  // namespace
}  // namespace pythia
