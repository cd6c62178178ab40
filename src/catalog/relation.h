// In-memory relations with a simulated on-disk page layout.
//
// Column values live in memory (this is a simulator: the buffer manager
// models I/O *cost*, not bytes), but every relation has a deterministic page
// layout — `rows_per_page` consecutive rows per heap page — so each tuple
// access maps to a concrete (object, page) request, exactly what the paper's
// trace instrumentation logs from the Postgres buffer manager.
#ifndef PYTHIA_CATALOG_RELATION_H_
#define PYTHIA_CATALOG_RELATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/page_id.h"
#include "util/status.h"

namespace pythia {

using Value = int64_t;
using RowId = uint32_t;

class Relation {
 public:
  Relation(std::string name, ObjectId object_id,
           std::vector<std::string> column_names, uint32_t rows_per_page);

  const std::string& name() const { return name_; }
  ObjectId object_id() const { return object_id_; }
  uint32_t rows_per_page() const { return rows_per_page_; }

  size_t num_columns() const { return column_names_.size(); }
  const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  // Returns -1 if `column` is not in the schema.
  int ColumnIndex(const std::string& column) const;

  // Appends one row; the row must have num_columns() values.
  void AppendRow(const std::vector<Value>& row);
  // Bulk storage access (column-major).
  const std::vector<Value>& Column(size_t idx) const { return columns_[idx]; }

  size_t num_rows() const { return num_rows_; }
  uint32_t num_pages() const {
    return static_cast<uint32_t>((num_rows_ + rows_per_page_ - 1) /
                                 rows_per_page_);
  }

  Value Get(RowId row, size_t col) const { return columns_[col][row]; }
  PageId PageOfRow(RowId row) const {
    return PageId{object_id_, row / rows_per_page_};
  }
  RowId FirstRowOfPage(uint32_t page) const { return page * rows_per_page_; }
  RowId EndRowOfPage(uint32_t page) const {
    const uint64_t end = static_cast<uint64_t>(page + 1) * rows_per_page_;
    return static_cast<RowId>(end < num_rows_ ? end : num_rows_);
  }

 private:
  std::string name_;
  ObjectId object_id_;
  std::vector<std::string> column_names_;
  uint32_t rows_per_page_;
  std::vector<std::vector<Value>> columns_;
  size_t num_rows_ = 0;
};

// Registry of database objects (relations and indexes) with stable object
// ids and name lookup.
class Catalog {
 public:
  // Creates a relation and returns it; the catalog owns it.
  Relation* CreateRelation(const std::string& name,
                           std::vector<std::string> column_names,
                           uint32_t rows_per_page);

  Relation* GetRelation(const std::string& name);
  const Relation* GetRelation(const std::string& name) const;

  // Registers an index object (the B-tree itself lives in src/index); the
  // catalog hands out its object id and remembers the name.
  ObjectId RegisterObject(const std::string& name);
  const std::string& ObjectName(ObjectId id) const;
  // Total pages of a registered object (set by the owner once built).
  void SetObjectPages(ObjectId id, uint32_t pages);
  uint32_t ObjectPages(ObjectId id) const;

  size_t num_objects() const { return object_names_.size(); }

 private:
  std::vector<std::unique_ptr<Relation>> relations_;
  std::unordered_map<std::string, Relation*> by_name_;
  std::vector<std::string> object_names_;
  std::vector<uint32_t> object_pages_;
};

}  // namespace pythia

#endif  // PYTHIA_CATALOG_RELATION_H_
