// Umbrella header for the parallel experiment engine: Scenario descriptors,
// the memoizing Evaluator with its disk-persistent CacheStore, the threaded
// SweepRunner (whose spool drain spreads a sweep over processes), the
// ResultSink, and the shared command-line Driver. Every bench/ and examples/ binary drives its sweep
// through these.
#pragma once

#include "engine/cache_store.h"
#include "engine/driver.h"
#include "engine/evaluator.h"
#include "engine/result_sink.h"
#include "engine/scenario.h"
#include "engine/sweep_runner.h"
