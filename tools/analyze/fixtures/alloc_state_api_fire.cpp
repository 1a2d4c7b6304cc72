// analyze-fixture: path=src/alloc/walker.h rule=alloc-state-api expect=fire
#include "alloc/options.h"
#include "model/allocation.h"
namespace cloudalloc::alloc {
double walk(model::Allocation& alloc, const AllocatorOptions& opts);
}  // namespace cloudalloc::alloc
