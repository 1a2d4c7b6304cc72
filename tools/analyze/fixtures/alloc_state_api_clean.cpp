// analyze-fixture: path=src/alloc/walker.h rule=alloc-state-api expect=clean
// Passes take the engine; Allocation inputs are read-only or by value.
#include "alloc/options.h"
#include "model/alloc_state.h"
namespace cloudalloc::alloc {
double walk(model::AllocState& state, const AllocatorOptions& opts);
model::Allocation rebuild(const model::Allocation& base,
                          const model::Allocation &other);
model::Allocation take(model::Allocation&& owned);
}  // namespace cloudalloc::alloc
