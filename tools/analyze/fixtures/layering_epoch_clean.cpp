// analyze-fixture: path=src/epoch/predictor.cpp rule=layering expect=clean
// The predictors need nothing above common/.
#include "common/check.h"
#include "epoch/predictor.h"
