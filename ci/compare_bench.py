#!/usr/bin/env python3
"""Bench-regression gate: diff a fresh BENCH_throughput.json (or, with
--serve, BENCH_serve.json) against the committed baseline and fail on a
>25% regression.

Compared metrics (the PR-to-PR trajectory the repo tracks):

  * query_latency scaling — per query family, the n=2^20 / n=2^12
    micros-per-call ratio. A ratio is machine-portable (both ends ran on
    the same box), so it is compared against ANY baseline; a >25% growth
    means a query path got asymptotically slower.
  * parallel_ingest scaling — per structure, the t=4 / t=1 items-per-sec
    ratio. Meaningful only with >= 4 real cores on BOTH sides, so it is
    compared only when both files report hardware_threads >= 4 and
    logged as skipped otherwise (the committed baseline may come from a
    small dev box; once a 4-core CI artifact is committed the check
    arms itself).
  * absolute throughput/latency — only when baseline and current ran on
    the same hardware_threads count AND the same quick mode AND the same
    dispatched kernel_backend (an LPS_KERNELS=scalar run against an AVX2
    baseline differs by the SIMD factor, not by a code change); cross-
    machine absolute numbers are noise, and pretending otherwise would
    make the gate cry wolf.

--serve swaps the metric set for the lps_serve load-generator report:

  * tenant-count scaling — the max-tenants / 1-tenant aggregate
    ingest_rps ratio (a machine-portable ratio: a drop means the tenant
    registry serialized what used to run concurrently).
  * absolute rps and p99 latency per tenant count — same
    hardware_threads + quick mode only, like the library benches.

--persist swaps the metric set for the durability bench
(BENCH_persist.json):

  * delta-compression ratios — deterministic codec-vs-workload numbers,
    machine-portable, compared against any baseline; the monitoring
    regime (lp_sampler hot set) additionally carries a hard >= 4x floor
    (the same floor bench_persist asserts at run time).
  * spill ingest throughput, resident/rehydrate window latency, and
    cold-boot open/restore times — absolute timings, same
    hardware_threads + quick mode only.

--dist swaps the metric set for the distributed aggregation tier
(BENCH_distributed.json):

  * solo bit-identity — every row must report bit_identical (the
    linearity contract: the folded global state equals a solo sketch
    byte for byte). Deterministic, checked on any runner.
  * worker scaling — the workers=4 / workers=1 aggregate ingest ratio.
    Needs >= 4 real cores on BOTH sides (a 1-core box timeslices the
    worker processes), logged as skipped otherwise.
  * absolute ingest throughput and per-epoch fold latency — same
    hardware_threads + quick mode + process topology (forked vs
    threaded) only.

--io swaps the metric set for the async ingest front-end
(BENCH_io.json):

  * async-vs-memory bit-identity — the current run must report the
    file-fed sketch state byte-equal to in-memory ingest. Deterministic,
    checked on any runner.
  * overlap ratios — per format, speedup_vs_naive and
    overlap_efficiency (both are same-run ratios, so machine-portable),
    but only when BOTH sides ran on >= 4 hardware threads: a 1-core box
    timeslices the prefetch/decode/ingest stages and the ratio is
    scheduler noise.
  * absolute decode MB/s and ingest wall times — same hardware_threads
    + quick mode only.

Per the repo's bench-gating convention every skip is LOGGED, never
silent, and the whole gate is skipped (exit 0) under sanitizer
instrumentation (LPS_BENCH_SANITIZED env) or on runners with < 4 cores.

Exit codes: 0 pass/skip, 1 regression, 2 bad invocation or input.
"""

import argparse
import json
import os
import sys

QUERY_FAMILIES = [
    ("lp_sampler.Sample", "[n=2^12,v=1]", "[n=2^20,v=1]"),
    ("cs_heavy_hitters.Query", "[n=2^12]", "[n=2^20]"),
]
PARALLEL_STRUCTURES = ["count_sketch[17x96]", "lp_sampler[v=8]"]


def log(msg):
    print(f"bench compare: {msg}")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def latency_of(data, name):
    for row in data.get("query_latency", []):
        if row.get("name") == name:
            return row.get("micros_per_call")
    return None


def parallel_ips(data, name, threads):
    for row in data.get("parallel_ingest", []):
        if row.get("name") == name and row.get("threads") == threads:
            return row.get("items_per_sec")
    return None


def query_ratio(data, family, small, large):
    lo = latency_of(data, family + small)
    hi = latency_of(data, family + large)
    if not lo or not hi or lo <= 0:
        return None
    return hi / lo


def scaling_ratio(data, name):
    t1 = parallel_ips(data, name, 1)
    t4 = parallel_ips(data, name, 4)
    if not t1 or not t4 or t1 <= 0:
        return None
    return t4 / t1


def serve_row(data, tenants):
    for row in data.get("serve_scaling", []):
        if row.get("tenants") == tenants:
            return row
    return None


def serve_tenant_ratio(data):
    """max-tenants / 1-tenant aggregate ingest rps — portable."""
    rows = data.get("serve_scaling", [])
    if not rows:
        return None
    solo = serve_row(data, 1)
    peak = max(rows, key=lambda r: r.get("tenants", 0))
    if not solo or peak.get("tenants", 0) <= 1:
        return None
    lo = solo.get("ingest_rps")
    hi = peak.get("ingest_rps")
    if not lo or not hi or lo <= 0:
        return None
    return hi / lo


def compare_serve(base, cur, allowed, max_regress):
    """The --serve metric set; returns (compared, failed)."""
    failed = []
    compared = 0

    b = serve_tenant_ratio(base)
    c = serve_tenant_ratio(cur)
    if b is None or c is None:
        log("serve tenant scaling: skipped (missing rows in "
            f"{'baseline' if b is None else 'current'})")
    else:
        compared += 1
        verdict = "ok" if c >= b * (1.0 - max_regress) else "REGRESSED"
        log(f"serve tenant scaling: max/1-tenant ingest rps ratio {c:.2f} "
            f"vs baseline {b:.2f} ({verdict})")
        if c < b * (1.0 - max_regress):
            failed.append("serve tenant scaling")

    if (base.get("hardware_threads") != cur.get("hardware_threads")
            or base.get("quick") != cur.get("quick")):
        log("serve absolute metrics: skipped (hardware_threads/quick "
            "mismatch — ratios only)")
        return compared, failed
    for brow in base.get("serve_scaling", []):
        tenants = brow.get("tenants")
        crow = serve_row(cur, tenants)
        if crow is None:
            log(f"serve tenants={tenants}: skipped (missing in current)")
            continue
        for metric, better_high in (("ingest_rps", True),
                                    ("query_rps", True),
                                    ("ingest_p99_us", False),
                                    ("query_p99_us", False)):
            b = brow.get(metric)
            c = crow.get(metric)
            if not b or not c:
                continue
            compared += 1
            regressed = (c < b * (1.0 - max_regress) if better_high
                         else c > b * allowed)
            verdict = "REGRESSED" if regressed else "ok"
            log(f"serve tenants={tenants} {metric}: {c:.1f} vs baseline "
                f"{b:.1f} ({verdict})")
            if regressed:
                failed.append(f"serve tenants={tenants} {metric}")
    return compared, failed


HOT_SET_WORKLOAD = "lp_sampler[v=8]/hot_set"
MIN_HOT_SET_RATIO = 4.0


def named_row(data, section, name):
    for row in data.get(section, []):
        if row.get("name") == name:
            return row
    return None


def compare_persist(base, cur, allowed, max_regress):
    """The --persist metric set; returns (compared, failed)."""
    failed = []
    compared = 0

    # Compression ratios: deterministic (codec + workload, no timing),
    # so they compare against ANY baseline.
    for brow in base.get("delta_compression", []):
        name = brow.get("name")
        crow = named_row(cur, "delta_compression", name)
        if crow is None:
            log(f"compression {name}: skipped (missing in current)")
            continue
        b = brow.get("ratio")
        c = crow.get("ratio")
        if not b or not c or b <= 0:
            continue
        compared += 1
        regressed = c < b * (1.0 - max_regress)
        verdict = "REGRESSED" if regressed else "ok"
        log(f"compression {name}: {c:.2f}x vs baseline {b:.2f}x ({verdict})")
        if regressed:
            failed.append(f"compression {name}")

    hot = named_row(cur, "delta_compression", HOT_SET_WORKLOAD)
    if hot is None:
        log(f"compression floor: skipped ({HOT_SET_WORKLOAD} missing)")
    else:
        compared += 1
        ratio = hot.get("ratio") or 0
        verdict = "ok" if ratio >= MIN_HOT_SET_RATIO else "REGRESSED"
        log(f"compression floor: {HOT_SET_WORKLOAD} {ratio:.2f}x "
            f"(floor {MIN_HOT_SET_RATIO:.2f}x, {verdict})")
        if ratio < MIN_HOT_SET_RATIO:
            failed.append("compression floor")

    if (base.get("hardware_threads") != cur.get("hardware_threads")
            or base.get("quick") != cur.get("quick")):
        log("persist absolute metrics: skipped (hardware_threads/quick "
            "mismatch — ratios only)")
        return compared, failed

    for brow in base.get("spill", []):
        name = brow.get("name")
        crow = named_row(cur, "spill", name)
        if crow is None:
            log(f"spill {name}: skipped (missing in current)")
            continue
        for metric, better_high in (("ram_items_per_sec", True),
                                    ("spill_items_per_sec", True),
                                    ("resident_micros", False),
                                    ("rehydrate_micros", False)):
            b = brow.get(metric)
            c = crow.get(metric)
            if not b or not c:
                continue
            compared += 1
            regressed = (c < b * (1.0 - max_regress) if better_high
                         else c > b * allowed)
            verdict = "REGRESSED" if regressed else "ok"
            log(f"spill {name} {metric}: {c:.1f} vs baseline {b:.1f} "
                f"({verdict})")
            if regressed:
                failed.append(f"spill {name} {metric}")

    for brow in base.get("recovery", []):
        tenants = brow.get("tenants")
        crow = None
        for row in cur.get("recovery", []):
            if row.get("tenants") == tenants:
                crow = row
        if crow is None:
            log(f"recovery tenants={tenants}: skipped (missing in current)")
            continue
        for metric in ("open_millis", "restore_millis"):
            b = brow.get(metric)
            c = crow.get(metric)
            if not b or not c:
                continue
            compared += 1
            regressed = c > b * allowed
            verdict = "REGRESSED" if regressed else "ok"
            log(f"recovery tenants={tenants} {metric}: {c:.3f} vs baseline "
                f"{b:.3f} ({verdict})")
            if regressed:
                failed.append(f"recovery tenants={tenants} {metric}")
    return compared, failed


def dist_row(data, workers):
    for row in data.get("rows", []):
        if row.get("workers") == workers:
            return row
    return None


def dist_scaling(data):
    """workers=4 / workers=1 aggregate ingest ratio."""
    w1 = dist_row(data, 1)
    w4 = dist_row(data, 4)
    if not w1 or not w4:
        return None
    lo = w1.get("updates_per_sec")
    hi = w4.get("updates_per_sec")
    if not lo or not hi or lo <= 0:
        return None
    return hi / lo


def compare_dist(base, cur, allowed, max_regress):
    """The --dist metric set; returns (compared, failed)."""
    failed = []
    compared = 0

    # Bit-identity is deterministic (linearity of the sketches, no
    # timing), so it holds on any runner, any core count.
    for crow in cur.get("rows", []):
        workers = crow.get("workers")
        compared += 1
        if crow.get("bit_identical"):
            log(f"dist workers={workers}: folded state bit-identical to "
                "solo (ok)")
        else:
            log(f"dist workers={workers}: folded state DIVERGED from solo")
            failed.append(f"dist workers={workers} bit_identity")

    cur_threads = cur.get("hardware_threads", 0)
    base_threads = base.get("hardware_threads", 0)
    if cur_threads < 4 or base_threads < 4:
        side = "current" if cur_threads < 4 else "baseline"
        threads = cur_threads if cur_threads < 4 else base_threads
        log(f"dist worker scaling: skipped ({side} ran on {threads} "
            "hardware threads < 4 — worker processes timeslice one core)")
    else:
        b = dist_scaling(base)
        c = dist_scaling(cur)
        if b is None or c is None:
            log("dist worker scaling: skipped (missing rows in "
                f"{'baseline' if b is None else 'current'})")
        else:
            compared += 1
            regressed = c < b * (1.0 - max_regress)
            verdict = "REGRESSED" if regressed else "ok"
            log(f"dist worker scaling: w4/w1 ingest ratio {c:.2f} vs "
                f"baseline {b:.2f} ({verdict})")
            if regressed:
                failed.append("dist worker scaling")

    if (base.get("hardware_threads") != cur.get("hardware_threads")
            or base.get("quick") != cur.get("quick")
            or base.get("forked_processes") != cur.get("forked_processes")):
        log("dist absolute metrics: skipped (hardware_threads/quick/"
            "topology mismatch — deterministic checks only)")
        return compared, failed
    for brow in base.get("rows", []):
        workers = brow.get("workers")
        crow = dist_row(cur, workers)
        if crow is None:
            log(f"dist workers={workers}: skipped (missing in current)")
            continue
        for metric, better_high in (("updates_per_sec", True),
                                    ("fold_micros_per_epoch", False)):
            b = brow.get(metric)
            c = crow.get(metric)
            if not b or not c:
                continue
            compared += 1
            regressed = (c < b * (1.0 - max_regress) if better_high
                         else c > b * allowed)
            verdict = "REGRESSED" if regressed else "ok"
            log(f"dist workers={workers} {metric}: {c:.1f} vs baseline "
                f"{b:.1f} ({verdict})")
            if regressed:
                failed.append(f"dist workers={workers} {metric}")
    return compared, failed


def compare_io(base, cur, allowed, max_regress):
    """The --io metric set; returns (compared, failed)."""
    failed = []
    compared = 0

    # Bit-identity is the async front-end's contract (sink sees every
    # update once, in order; chunk boundaries are the pipeline's own) —
    # deterministic, so it holds on any runner.
    compared += 1
    if cur.get("bit_identical"):
        log("io: async file-fed state bit-identical to in-memory (ok)")
    else:
        log("io: async file-fed state DIVERGED from in-memory ingest")
        failed.append("io bit_identity")

    cur_threads = cur.get("hardware_threads", 0)
    base_threads = base.get("hardware_threads", 0)
    if cur_threads < 4 or base_threads < 4:
        side = "current" if cur_threads < 4 else "baseline"
        threads = cur_threads if cur_threads < 4 else base_threads
        log(f"io overlap ratios: skipped ({side} ran on {threads} hardware "
            "threads < 4 — the pipeline stages timeslice one core)")
    else:
        for brow in base.get("overlap", []):
            fmt = brow.get("format")
            crow = next(
                (r for r in cur.get("overlap", []) if r.get("format") == fmt),
                None)
            if crow is None:
                log(f"io overlap {fmt}: skipped (missing in current)")
                continue
            for metric in ("speedup_vs_naive", "overlap_efficiency"):
                b = brow.get(metric)
                c = crow.get(metric)
                if not b or not c or b <= 0:
                    continue
                compared += 1
                regressed = c < b * (1.0 - max_regress)
                verdict = "REGRESSED" if regressed else "ok"
                log(f"io overlap {fmt} {metric}: {c:.2f} vs baseline "
                    f"{b:.2f} ({verdict})")
                if regressed:
                    failed.append(f"io overlap {fmt} {metric}")

    if (base.get("hardware_threads") != cur.get("hardware_threads")
            or base.get("quick") != cur.get("quick")):
        log("io absolute metrics: skipped (hardware_threads/quick "
            "mismatch — deterministic checks and ratios only)")
        return compared, failed
    for brow in base.get("decode", []):
        fmt = brow.get("format")
        crow = next(
            (r for r in cur.get("decode", []) if r.get("format") == fmt),
            None)
        if crow is None:
            log(f"io decode {fmt}: skipped (missing in current)")
            continue
        for metric in ("mb_per_sec", "mitem_per_sec"):
            b = brow.get(metric)
            c = crow.get(metric)
            if not b or not c:
                continue
            compared += 1
            regressed = c < b * (1.0 - max_regress)
            verdict = "REGRESSED" if regressed else "ok"
            log(f"io decode {fmt} {metric}: {c:.1f} vs baseline {b:.1f} "
                f"({verdict})")
            if regressed:
                failed.append(f"io decode {fmt} {metric}")
    for brow in base.get("overlap", []):
        fmt = brow.get("format")
        crow = next(
            (r for r in cur.get("overlap", []) if r.get("format") == fmt),
            None)
        if crow is None:
            continue
        for metric in ("async_seconds",):
            b = brow.get(metric)
            c = crow.get(metric)
            if not b or not c:
                continue
            compared += 1
            regressed = c > b * allowed
            verdict = "REGRESSED" if regressed else "ok"
            log(f"io overlap {fmt} {metric}: {c:.4f} vs baseline {b:.4f} "
                f"({verdict})")
            if regressed:
                failed.append(f"io overlap {fmt} {metric}")
    return compared, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_throughput.json")
    parser.add_argument("current", help="freshly produced BENCH_throughput.json")
    parser.add_argument("--max-regress", type=float, default=0.25,
                        help="fractional regression that fails the gate")
    parser.add_argument("--serve", action="store_true",
                        help="compare BENCH_serve.json files (lps_serve "
                        "load-generator report) instead of the library bench")
    parser.add_argument("--persist", action="store_true",
                        help="compare BENCH_persist.json files (durability "
                        "bench: compression, spill, cold-boot recovery)")
    parser.add_argument("--dist", action="store_true",
                        help="compare BENCH_distributed.json files "
                        "(distributed tier: bit-identity, worker scaling, "
                        "fold latency)")
    parser.add_argument("--io", action="store_true",
                        help="compare BENCH_io.json files (async ingest "
                        "front-end: bit-identity, overlap ratios, decode "
                        "throughput)")
    args = parser.parse_args()
    if args.serve + args.persist + args.dist + args.io > 1:
        print("bench compare: --serve, --persist, --dist, and --io are "
              "mutually exclusive", file=sys.stderr)
        return 2

    env = os.environ.get("LPS_BENCH_SANITIZED", "")
    if env and env != "0":
        log("skipped (LPS_BENCH_SANITIZED set: sanitizer instrumentation "
            "distorts timing)")
        return 0

    base = load(args.baseline)
    cur = load(args.current)
    cur_threads = cur.get("hardware_threads", 0)
    base_threads = base.get("hardware_threads", 0)
    # The persist, dist, and io metric sets lead with deterministic
    # checks (compression ratios, fold/async bit-identity), which any
    # runner can verify; their timing metrics are separately gated
    # inside the compare functions.
    if cur_threads < 4 and not (args.persist or args.dist or args.io):
        log(f"skipped ({cur_threads} hardware threads < 4: scaling is not "
            "observable on this runner)")
        return 0

    allowed = 1.0 + args.max_regress

    if args.serve or args.persist or args.dist or args.io:
        mode = ("serve" if args.serve else "persist" if args.persist
                else "dist" if args.dist else "io")
        compare = (compare_serve if args.serve
                   else compare_persist if args.persist
                   else compare_dist if args.dist else compare_io)
        compared, failed = compare(base, cur, allowed, args.max_regress)
        if failed:
            print(f"bench compare: FAIL — >{args.max_regress:.0%} regression "
                  "in: " + ", ".join(failed), file=sys.stderr)
            return 1
        log(f"pass ({compared} {mode} metrics within {args.max_regress:.0%} "
            "of baseline)")
        return 0

    failed = []
    compared = 0

    # Query-latency scaling ratios: portable across machines.
    for family, small, large in QUERY_FAMILIES:
        b = query_ratio(base, family, small, large)
        c = query_ratio(cur, family, small, large)
        if b is None or c is None:
            log(f"{family}: skipped (missing rows in "
                f"{'baseline' if b is None else 'current'})")
            continue
        compared += 1
        verdict = "ok" if c <= b * allowed else "REGRESSED"
        log(f"{family}: 2^20/2^12 latency ratio {c:.2f} vs baseline "
            f"{b:.2f} ({verdict})")
        if c > b * allowed:
            failed.append(family)

    # Parallel scaling ratios: need real cores on both sides.
    if base_threads < 4:
        log(f"parallel_ingest: skipped (baseline measured on "
            f"{base_threads} hardware threads — commit a >=4-core bench "
            "artifact to arm this check)")
    else:
        for name in PARALLEL_STRUCTURES:
            b = scaling_ratio(base, name)
            c = scaling_ratio(cur, name)
            if b is None or c is None:
                log(f"parallel_ingest {name}: skipped (missing rows)")
                continue
            compared += 1
            verdict = "ok" if c >= b * (1.0 - args.max_regress) else "REGRESSED"
            log(f"parallel_ingest {name}: t4/t1 scaling {c:.2f}x vs "
                f"baseline {b:.2f}x ({verdict})")
            if c < b * (1.0 - args.max_regress):
                failed.append(f"parallel_ingest {name}")

    # Absolute numbers: same machine shape, same mode, and the same
    # dispatched kernel backend only. A scalar-forced (or scalar-only)
    # run is a different machine as far as absolute throughput is
    # concerned — comparing it against an AVX2 baseline would report the
    # backend delta as a code regression.
    base_backend = base.get("kernel_backend", "unknown")
    cur_backend = cur.get("kernel_backend", "unknown")
    if base_threads != cur_threads or base.get("quick") != cur.get("quick"):
        log("absolute metrics: skipped (baseline hardware_threads="
            f"{base_threads}/quick={base.get('quick')} vs current "
            f"{cur_threads}/quick={cur.get('quick')} — ratios only)")
    elif base_backend != cur_backend:
        log("absolute metrics: refused (baseline ran on kernel_backend="
            f"{base_backend}, current on {cur_backend} — absolute "
            "throughput from different SIMD backends is not comparable; "
            "scaling ratios above were still checked)")
    else:
        for name in PARALLEL_STRUCTURES:
            for threads in (1, 4):
                b = parallel_ips(base, name, threads)
                c = parallel_ips(cur, name, threads)
                if not b or not c:
                    continue
                compared += 1
                verdict = ("ok" if c >= b * (1.0 - args.max_regress)
                           else "REGRESSED")
                log(f"parallel_ingest {name} t={threads}: {c / 1e6:.2f} "
                    f"Mitem/s vs baseline {b / 1e6:.2f} ({verdict})")
                if c < b * (1.0 - args.max_regress):
                    failed.append(f"parallel_ingest {name} t={threads}")

    if failed:
        print(f"bench compare: FAIL — >{args.max_regress:.0%} regression in: "
              + ", ".join(failed), file=sys.stderr)
        return 1
    log(f"pass ({compared} metrics within {args.max_regress:.0%} of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
