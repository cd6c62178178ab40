#include "core/trace_processor.h"

#include <algorithm>

namespace pythia {

ObjectPageSets ProcessTrace(const QueryTrace& trace) {
  ObjectPageSets sets;
  for (const PageId& page : trace.NonSequentialPages()) {
    sets[page.object_id].push_back(page.page_no);
  }
  for (auto& [object, pages] : sets) std::sort(pages.begin(), pages.end());
  return sets;
}

}  // namespace pythia
