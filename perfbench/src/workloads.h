// The three workloads. Each sets up its system several times (setup_s is
// the median), runs its timed phase untraced, checks the served state
// against an in-process reference, and fills `report`. With
// args.trace it instead runs the timed phase twice (untraced, then
// traced), walks the layer ladder, and reports the per-layer catalog.
// A non-zero return means the run could not produce a result.
#pragma once

#include "perfbench/src/harness.h"

namespace perfbench {

/// Full set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;

int RunEdgeIngest(const Args& args, Report* report);
int RunMixedQuery(const Args& args, Report* report);
int RunFileReplay(const Args& args, Report* report);

}  // namespace perfbench
