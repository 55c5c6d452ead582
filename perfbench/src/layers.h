// The per-layer metric catalog of a traced run, and the attribution of
// a workload's per-update wall time to layers.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/ladder.h"

namespace perfbench {

/// Sets every per-layer metric to 0 with its unit, so each traced run
/// emits the full catalog; a layer a workload does not exercise reads 0.
void ZeroPerLayer(Report* report);

/// The ladder of one served kind and the share of the workload's updates
/// that go to it.
struct KindRungs {
  lps::server::SketchConfig config;
  Rungs rungs;
  double update_share = 0;
};

/// Reports the sketch.*, api.query.<kind>.us, server.*, server.registry.*,
/// stream.window.*, stream.pipeline.* and ladder-side persist metrics.
void ReportRungs(const std::vector<KindRungs>& kinds, Report* report);

/// Per-update self time of the in-daemon layers (microseconds per
/// workload update), weighted by each kind's update share.
struct DaemonLayers {
  double sketch = 0;
  double window = 0;
  double pipeline = 0;
  double registry = 0;
  double total() const { return sketch + window + pipeline + registry; }
};
DaemonLayers AttributeDaemon(const std::vector<KindRungs>& kinds);

/// Reports trace.share.<layer> (layer time per update over `wall_us`,
/// the workload's wall time per update), trace.design_share (the summed
/// share of `design_layers`) and trace.unaccounted_share (the share of
/// the wall time the `on_path` layers do not cover). `off_path` layers
/// run beside the update path (file_replay's sketch, applied on pipeline
/// threads while the feeding thread waits); they get a share but do not
/// count toward coverage.
void ReportShares(const std::map<std::string, double>& on_path,
                  const std::map<std::string, double>& off_path,
                  double wall_us, const std::vector<std::string>& design_layers,
                  Report* report);

}  // namespace perfbench
