// Page identity: (database object, page number). A "database object" is a
// base table heap file or an index, mirroring how the paper trains one model
// per object and how Postgres addresses blocks by (relfilenode, blockno).
#ifndef PYTHIA_STORAGE_PAGE_ID_H_
#define PYTHIA_STORAGE_PAGE_ID_H_

#include <cstdint>
#include <functional>

#include "util/hash.h"

namespace pythia {

using ObjectId = uint32_t;

struct PageId {
  ObjectId object_id = 0;
  uint32_t page_no = 0;

  friend bool operator==(const PageId& a, const PageId& b) {
    return a.object_id == b.object_id && a.page_no == b.page_no;
  }
  friend bool operator!=(const PageId& a, const PageId& b) {
    return !(a == b);
  }
  // Ordered by (object, offset): exactly the file-storage order the
  // prefetcher uses (Section 3.3, "Prefetcher").
  friend bool operator<(const PageId& a, const PageId& b) {
    if (a.object_id != b.object_id) return a.object_id < b.object_id;
    return a.page_no < b.page_no;
  }

  uint64_t Pack() const {
    return (static_cast<uint64_t>(object_id) << 32) | page_no;
  }
  static PageId Unpack(uint64_t packed) {
    return PageId{static_cast<ObjectId>(packed >> 32),
                  static_cast<uint32_t>(packed & 0xffffffffu)};
  }
};

struct PageIdHash {
  size_t operator()(const PageId& p) const {
    return static_cast<size_t>(SplitMix64(p.Pack()));
  }
};

}  // namespace pythia

namespace std {
template <>
struct hash<pythia::PageId> {
  size_t operator()(const pythia::PageId& p) const {
    return pythia::PageIdHash{}(p);
  }
};
}  // namespace std

#endif  // PYTHIA_STORAGE_PAGE_ID_H_
