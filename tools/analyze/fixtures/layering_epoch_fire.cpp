// analyze-fixture: path=src/epoch/loop.cpp rule=layering expect=fire
// epoch (layer 5) holds the rate predictors only; an epoch loop over the
// allocator belongs in serve/, not here.
#include "alloc/allocator.h"
