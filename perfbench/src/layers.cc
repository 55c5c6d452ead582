#include "perfbench/src/layers.h"

#include <cstdio>

#include "src/stream/linear_sketch.h"

namespace perfbench {

namespace {

const char* const kKinds[] = {"cm_heavy_hitters", "l0_estimator",
                              "cs_heavy_hitters", "lp_sampler", "l0_sampler"};
const char* const kShareLayers[] = {"io",     "server",   "registry", "window",
                                    "pipeline", "sketch", "query",    "dist"};

/// The rung directly below the registry for this topology.
double BelowRegistry(const KindRungs& k) {
  if (k.config.shards > 1) return k.rungs.pipeline_s;
  if (k.config.window_checkpoint > 0) return k.rungs.window_s;
  return k.rungs.sketch_s;
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / double(values.size());
}

}  // namespace

void ZeroPerLayer(Report* report) {
  const std::pair<const char*, const char*> fixed[] = {
      {"io.decode_us_per_update", "us"},
      {"io.read_wait_share", "share"},
      {"io.ingest_wait_share", "share"},
      {"io.malformed", "count"},
      {"server.ingest_rpc_us", "us"},
      {"server.stream_us_per_update", "us"},
      {"server.query_rpc_us", "us"},
      {"server.registry.ingest_us_per_update", "us"},
      {"server.registry.query_us", "us"},
      {"server.registry.window_us", "us"},
      {"server.registry.fold_us_per_epoch", "us"},
      {"server.registry.persist_ms", "ms"},
      {"stream.window.push_us_per_update", "us"},
      {"stream.window.seal_us", "us"},
      {"stream.window.materialize_us", "us"},
      {"stream.window.rehydrate_us", "us"},
      {"stream.window.checkpoint_bytes", "bytes"},
      {"stream.pipeline.drive_us_per_update", "us"},
      {"stream.pipeline.merge_us", "us"},
      {"stream.pipeline.speedup", "x"},
  };
  for (const auto& metric : fixed) report->Set(metric.first, 0, metric.second);
  for (const char* kind : kKinds) {
    report->Set(std::string("sketch.") + kind + ".update_us_per_update", 0, "us");
    report->Set(std::string("sketch.") + kind + ".state_bytes", 0, "bytes");
  }
  for (const char* kind : kKinds) {
    report->Set(std::string("api.query.") + kind + ".us", 0, "us");
  }
  const std::pair<const char*, const char*> tail[] = {
      {"api.query.failed_answer_share", "share"},
      {"persist.snapshot_ms", "ms"},
      {"persist.spilled_bytes", "bytes"},
      {"dist.push_us_per_update", "us"},
      {"dist.ship_us_per_epoch", "us"},
      {"dist.decode_epoch_us", "us"},
      {"dist.gaps", "count"},
      {"gen.late_p99_us", "us"},
      {"trace.unaccounted_share", "share"},
      {"trace.overhead_share", "share"},
      {"trace.design_share", "share"},
  };
  for (const auto& metric : tail) report->Set(metric.first, 0, metric.second);
  for (const char* layer : kShareLayers) {
    report->Set(std::string("trace.share.") + layer, 0, "share");
  }
  report->Set("failed_share", 0, "share");
}

void ReportRungs(const std::vector<KindRungs>& kinds, Report* report) {
  double requests = 0, updates = 0, rpc_s = 0, stream_s = 0, registry_s = 0;
  double window_updates = 0, push_s = 0, pipeline_updates = 0, drive_s = 0;
  double inline_s = 0, persist_full = 0, persist_dirty = 0, checkpoint_bytes = 0;
  std::vector<double> query_rpc, registry_query, registry_window, seal,
      materialize, rehydrate, merge;
  for (const KindRungs& k : kinds) {
    const Rungs& r = k.rungs;
    const std::string kind = lps::SketchKindName(k.config.spec.kind);
    report->Set("sketch." + kind + ".update_us_per_update",
                r.sketch_s / r.updates * 1e6, "us");
    report->Set("sketch." + kind + ".state_bytes", r.state_bytes, "bytes");
    report->Set("api.query." + kind + ".us", r.api_query_us, "us");
    requests += r.requests;
    updates += r.updates;
    rpc_s += r.client_s - r.registry_s;
    stream_s += r.stream_s - r.registry_s;
    registry_s += r.registry_s - BelowRegistry(k);
    query_rpc.push_back(r.client_query_us - r.registry_query_us);
    registry_query.push_back(r.registry_query_us);
    persist_full += r.persist_full_ms;
    persist_dirty += r.persist_dirty_ms;
    if (k.config.window_checkpoint > 0) {
      window_updates += r.updates;
      push_s += r.window_s - r.sketch_s;
      registry_window.push_back(r.registry_window_us);
      seal.push_back(r.seal_us);
      materialize.push_back(r.materialize_us);
      rehydrate.push_back(r.rehydrate_us);
      checkpoint_bytes += r.checkpoint_bytes;
    }
    if (k.config.shards > 1) {
      pipeline_updates += r.updates;
      drive_s += r.pipeline_s;
      inline_s += r.pipeline_inline_s;
      merge.push_back(r.merge_us);
    }
  }
  report->Set("server.ingest_rpc_us", rpc_s / requests * 1e6, "us");
  report->Set("server.stream_us_per_update", stream_s / updates * 1e6, "us");
  report->Set("server.query_rpc_us", Mean(query_rpc), "us");
  report->Set("server.registry.ingest_us_per_update", registry_s / updates * 1e6, "us");
  report->Set("server.registry.query_us", Mean(registry_query), "us");
  report->Set("server.registry.window_us", Mean(registry_window), "us");
  report->Set("server.registry.persist_ms", persist_full, "ms");
  report->Set("persist.snapshot_ms", persist_dirty, "ms");
  if (window_updates > 0) {
    report->Set("stream.window.push_us_per_update", push_s / window_updates * 1e6, "us");
    report->Set("stream.window.seal_us", Mean(seal), "us");
    report->Set("stream.window.materialize_us", Mean(materialize), "us");
    report->Set("stream.window.rehydrate_us", Mean(rehydrate), "us");
    report->Set("stream.window.checkpoint_bytes", checkpoint_bytes, "bytes");
  }
  if (pipeline_updates > 0) {
    report->Set("stream.pipeline.drive_us_per_update", drive_s / pipeline_updates * 1e6, "us");
    report->Set("stream.pipeline.merge_us", Mean(merge), "us");
    report->Set("stream.pipeline.speedup", inline_s / drive_s, "x");
  }
}

DaemonLayers AttributeDaemon(const std::vector<KindRungs>& kinds) {
  DaemonLayers layers;
  for (const KindRungs& k : kinds) {
    const Rungs& r = k.rungs;
    const double per = k.update_share * 1e6 / r.updates;
    layers.sketch += r.sketch_s * per;
    if (k.config.shards > 1) {
      layers.pipeline += (r.pipeline_s - r.sketch_s) * per;
    } else if (k.config.window_checkpoint > 0) {
      layers.window += (r.window_s - r.sketch_s) * per;
    }
    layers.registry += (r.registry_s - BelowRegistry(k)) * per;
  }
  return layers;
}

void ReportShares(const std::map<std::string, double>& on_path,
                  const std::map<std::string, double>& off_path,
                  double wall_us, const std::vector<std::string>& design_layers,
                  Report* report) {
  double covered = 0;
  std::map<std::string, double> all = off_path;
  for (const auto& layer : on_path) {
    covered += layer.second;
    all[layer.first] += layer.second;
  }
  for (const auto& layer : all) {
    report->Set("trace.share." + layer.first, layer.second / wall_us, "share");
  }
  double design = 0;
  for (const std::string& layer : design_layers) design += all[layer];
  report->Set("trace.design_share", design / wall_us, "share");
  report->Set("trace.unaccounted_share", 1.0 - covered / wall_us, "share");
  std::string line;
  for (const auto& layer : all) {
    char cell[96];
    std::snprintf(cell, sizeof(cell), " %s=%.3fus(%.1f%%)", layer.first.c_str(),
                  layer.second, 100 * layer.second / wall_us);
    line += cell;
  }
  Note("per-update wall %.3f us:%s; design share %.1f%%", wall_us, line.c_str(),
       100 * design / wall_us);
}

}  // namespace perfbench
