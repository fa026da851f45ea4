// Every metric the benchmark reports, with its unit.  BENCHMARK.json lists
// the same names; `spbbench --list-metrics` prints this table to compare.
#pragma once

#include <vector>

#include "measure.h"

namespace spbbench {

/// Reported with --trace 0.
inline const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"peak_rss_mb", "MB"},
      {"ok_frac", "fraction"},
  };
  return specs;
}

/// Reported with --trace 1; 0 on workloads that do not exercise a layer.
inline const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      // stop / machine / sim split of one simulated run (sim_batch).
      {"stop.run_ms", "ms"},
      {"stop.prepare_ms", "ms"},
      {"machine.runtime_build_ms", "ms"},
      {"stop.verify_ms", "ms"},
      {"sim.loop_ms", "ms"},
      {"stop.decomposition_error", "fraction"},
      // Deterministic counts.
      {"sim.events", "count"},
      {"sim.peak_queue_depth", "count"},
      {"sim.makespan_us", "us"},
      {"mp.sends", "count"},
      {"mp.bytes_sent", "bytes"},
      {"net.transfers", "count"},
      {"net.hops", "count"},
      {"net.stall_us", "us"},
      {"sim.events_per_s", "1/s"},
      {"sim.ns_per_event", "ns"},
      // Layer shares of the event loop, by replay.
      {"net.reserve_ns", "ns"},
      {"net.reserve_share", "fraction"},
      {"sim.queue_ns", "ns"},
      {"sim.queue_share", "fraction"},
      {"mp.merge_ns", "ns"},
      {"mp.merge_share", "fraction"},
      {"sim.residual_share", "fraction"},
      {"combo.t3d512.loop_ms", "ms"},
      {"combo.t3d512.reserve_share", "fraction"},
      {"combo.t3d256.loop_ms", "ms"},
      {"combo.t3d256.reserve_share", "fraction"},
      {"combo.paragon32x32.loop_ms", "ms"},
      {"combo.paragon32x32.reserve_share", "fraction"},
      {"combo.torus8x8x8.loop_ms", "ms"},
      {"combo.torus8x8x8.reserve_share", "fraction"},
      {"combo.cluster16x16.loop_ms", "ms"},
      {"combo.cluster16x16.reserve_share", "fraction"},
      // Sharded engine (sim_threads(-1)).
      {"par.shards", "count"},
      {"par.windows", "count"},
      {"par.busy_frac", "fraction"},
      {"par.staged_xfers", "count"},
      {"par.events_drift", "count"},
      {"sim.auto_ratio", "ratio"},
      // analyze / sweep (sweep_all).
      {"analyze.record_ms", "ms"},
      {"analyze.check_ms", "ms"},
      {"sweep.speedup", "ratio"},
      {"sweep.efficiency", "fraction"},
      {"sweep.imbalance", "ratio"},
      {"sweep.combo_ms_max", "ms"},
      // serve / plan / dist (serve_hot, serve_cold).
      {"serve.parse_us", "us"},
      {"dist.generate_us", "us"},
      {"plan.signature_us", "us"},
      {"plan.cache_lookup_us", "us"},
      {"plan.planner_us", "us"},
      {"stop.execute_ms", "ms"},
      {"serve.format_us", "us"},
      {"serve.service_us", "us"},
      {"serve.overhead_us", "us"},
      {"serve.scaling", "ratio"},
      {"plan.hit_rate", "fraction"},
      {"plan.misses", "count"},
      {"plan.evictions", "count"},
      {"plan.coalesced", "count"},
      {"serve.queue_max_depth", "count"},
      {"serve.generator_late_us_p99", "us"},
      {"trace.overhead_frac", "fraction"},
  };
  return specs;
}

}  // namespace spbbench
