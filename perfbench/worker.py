"""One benchmark process: set up a workload, time it, optionally trace it.

Started by run.py in a fresh interpreter per measurement, with pbh on
PYTHONPATH and single-threaded BLAS. Prints one JSON object on stdout.

Modes:
  setup    import pbh, build the workload, make the cold pass; report its time
  measure  set up, then time steady-state iterations for --seconds
  trace    set up, time untraced iterations for half of --seconds, run the
           layer probes, then one traced iteration for the per-layer metrics
"""

import time

_T0 = time.perf_counter()  # set-up time starts before pbh is imported

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from workloads import WORKLOADS, Tally, dag_size, dag_trees  # noqa: E402

# (metric, unit, what it should move) for the traced run
PER_LAYER = [
    *[(f"jets.mul_o{k}", "count", "jet x jet multiplies of order k per iteration; wall_s on "
       + {1: "quadrature, paper", 2: "hypersphere_sweep", 3: "cylinder_checks",
          4: "paper"}[k]) for k in (1, 2, 3, 4)],
    ("jets.scale", "count", "jet x float multiplies; wall_s everywhere"),
    ("jets.add", "count", "jet additions and subtractions; wall_s everywhere"),
    ("jets.compose", "count", "analytic-function compositions; wall_s everywhere"),
    *[(f"jets.{kind}.{n}.{o}", unit, f"wall_s on the workload using ({n}, {o}) jets")
      for n, o in ((3, 1), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4))
      for kind, unit in (("mul_us", "us"), ("compose_us", "us"), ("mul_terms", "count"))],
    ("expr.evaluate", "count", "wall_s on quadrature"),
    ("expr.evaluate_s", "s", "wall_s on quadrature"),
    ("expr.diff", "count", "wall_s on paper"),
    ("expr.diff_s", "s", "wall_s on paper"),
    ("expr.parse_s", "s", "setup_s everywhere"),
    ("expr.dag_nodes", "count", "setup_s and wall_s everywhere"),
    ("expr.dag_shapes", "count", "setup_s and wall_s everywhere"),
    ("linalg.calls", "count", "wall_s on quadrature, hypersphere_sweep"),
    ("linalg.self_s", "s", "wall_s on quadrature, hypersphere_sweep"),
    ("geometry.christoffel", "count", "wall_s on cylinder_checks"),
    ("geometry.curvature", "count", "wall_s on cylinder_checks"),
    ("geometry.divergence", "count", "wall_s on cylinder_checks"),
    ("geometry.self_s", "s", "wall_s on cylinder_checks"),
    ("mapcalc.points_lifted", "count", "wall_s on cylinder_checks"),
    ("mapcalc.lifts_per_point", "ratio", "wall_s on cylinder_checks"),
    ("mapcalc.p_tension_ms", "ms", "wall_s on quadrature"),
    ("mapcalc.p_bitension_ms", "ms", "wall_s on cylinder_checks"),
    ("mapcalc.quad_node_us", "us", "wall_s on quadrature"),
    ("mapcalc.self_s", "s", "wall_s on cylinder_checks, quadrature"),
    ("stress.divergence_check_ms", "ms", "wall_s on cylinder_checks"),
    ("stress.trace_identity_ms", "ms", "wall_s on cylinder_checks"),
    ("stress.self_s", "s", "wall_s on cylinder_checks"),
    ("submanifold.points_lifted", "count", "wall_s on hypersphere_sweep"),
    ("submanifold.theorem21_ms", "ms", "wall_s on hypersphere_sweep"),
    ("submanifold.theorem23_ms", "ms", "wall_s on hypersphere_sweep"),
    ("submanifold.cmc_ms", "ms", "wall_s on hypersphere_sweep"),
    ("submanifold.self_s", "s", "wall_s on hypersphere_sweep"),
    ("scenarios.rows", "count", "ok_frac everywhere"),
    ("scenarios.nan_rows", "count", "ok_frac everywhere"),
    ("scenarios.sample_s", "s", "wall_s on hypersphere_sweep"),
    ("scenarios.report_s", "s", "wall_s on hypersphere_sweep"),
    ("scenarios.rows_changed", "count", "ok_frac everywhere"),
    ("scenarios.max_ulp", "count", "ok_frac everywhere"),
    ("scenarios.crossing_err", "1", "ok_frac on hypersphere_sweep"),
    ("scenarios.self_s", "s", "wall_s on hypersphere_sweep"),
    *[(f"verify.{c}_s", "s", "wall_s on paper") for c in (
        "inversion_p_harmonicity", "cylinder_proper_p_biharmonicity", "small_hypersphere",
        "bitension_cross_check", "stress_divergence", "stress_trace", "p2_reductions",
        "first_variation", "infrastructure")],
    ("trace.overhead", "ratio", "none (diagnostic)"),
    ("trace.coverage", "ratio", "none (diagnostic)"),
    ("code.src_lines", "count", "none (diagnostic)"),
    ("code.public_names", "count", "none (diagnostic)"),
]

REPORT_SPANS = ("scenarios.ResidualReport.to_csv", "scenarios.ResidualReport.to_json",
                "scenarios.ResidualReport.summary", "scenarios.SweepResult.to_csv",
                "scenarios.SweepResult.to_json")


def run_part(workload, tally, label, fn, measure):
    """Run one part under `measure` (calibrate.SpeedSampler.measure) and check
    its output.

    Returns (raw seconds, seconds at reference speed). A part that raises
    fails all its operations.
    """
    def call():
        try:
            return fn(), None
        except Exception as exc:  # every exception is a failed operation, not a crash
            traceback.print_exc(file=sys.stderr)
            return None, exc

    (out, exc), raw, scaled = measure(call)
    if exc is None:
        workload.check(tally, label, out)
    else:
        n = workload.expected_ops(label)
        tally.attempted += n
        tally.failed += n
        tally.gate(False, f"{workload.name}: {label} raised {type(exc).__name__}: {exc}")
    return raw, scaled


def measure(workload, tally, seconds):
    """Cycle through the parts until `seconds` pass and each part ran once.

    Returns ({label: [seconds at reference speed]}, {label: [raw seconds]}).
    """
    parts = workload.parts()
    scaled = {label: [] for label, _ in parts}
    raw = {label: [] for label, _ in parts}
    deadline = time.perf_counter() + seconds
    with calibrate.SpeedSampler() as clock:
        while True:
            for label, fn in parts:
                r, s = run_part(workload, tally, label, fn, clock.measure)
                raw[label].append(r)
                scaled[label].append(s)
                if time.perf_counter() >= deadline and all(raw.values()):
                    return scaled, raw


def iteration_seconds(samples):
    """One iteration: the sum over its parts of each part's median time."""
    return sum(statistics.median(t) for t in samples.values())


def traced_iteration(workload, wall_s, root, out_dir):
    import probes
    from tracer import Tracer

    metrics, baseline = {}, {}
    with calibrate.SpeedSampler() as clock:
        probes.jet_kernels(metrics, clock)
        probes.layer_calls(metrics, baseline, clock)
    code = probes.code_size(root, metrics)

    objs = workload.dag_roots()
    nodes, shapes = dag_size([e for obj in objs for e in dag_trees(obj)])
    base_nodes, base_shapes = dag_size([e for obj in objs
                                        for e in dag_trees(obj, baseline_rule=True)])
    metrics["expr.dag_nodes"] = (nodes, "count")
    metrics["expr.dag_shapes"] = (shapes, "count")

    tally = Tally()
    tracer = Tracer()
    tracer.install()
    try:
        with calibrate.SpeedSampler() as clock:
            traced = [run_part(workload, tally, label, tracer.span(fn, f"bench.{label}"),
                               clock.measure)
                      for label, fn in workload.parts()]
    finally:
        tracer.uninstall()
    raw_s = sum(r for r, _ in traced)
    traced_s = sum(s for _, s in traced)
    speed = traced_s / raw_s
    summary = tracer.summarize()
    by_name, layer_self = summary["by_name"], summary["layer_self_s"]

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def total(name):
        return by_name.get(name, {}).get("total_s", 0.0)

    counts = tracer.counts
    for key in ("jets.mul_o1", "jets.mul_o2", "jets.mul_o3", "jets.mul_o4", "jets.scale",
                "jets.add", "jets.compose", "mapcalc.points_lifted",
                "submanifold.points_lifted"):
        metrics[key] = (counts[key], "count")
    lifted = counts["mapcalc.points_lifted"]
    metrics["mapcalc.lifts_per_point"] = (lifted / len(tracer.points) if tracer.points else 0.0,
                                          "ratio")
    metrics["expr.evaluate"] = (calls("expr.Expression.evaluate"), "count")
    metrics["expr.evaluate_s"] = (total("expr.Expression.evaluate"), "s")
    metrics["expr.diff"] = (calls("expr.Expression.diff"), "count")
    metrics["expr.diff_s"] = (total("expr.Expression.diff"), "s")
    metrics["expr.parse_s"] = (total("expr.parse"), "s")
    metrics["linalg.calls"] = (summary["layer_entries"].get("linalg", 0), "count")
    metrics["geometry.christoffel"] = (calls("geometry.ChartMetric.christoffel_at"), "count")
    metrics["geometry.curvature"] = (calls("geometry.ChartMetric.curvature_at"), "count")
    metrics["geometry.divergence"] = (calls("geometry.divergence")
                                      + calls("geometry.divergence_2tensor"), "count")
    for layer in ("linalg", "geometry", "mapcalc", "stress", "submanifold", "scenarios"):
        metrics[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    metrics["scenarios.rows"] = (tally.attempted, "count")
    metrics["scenarios.nan_rows"] = (tally.nan_rows, "count")
    metrics["scenarios.sample_s"] = (total("scenarios.Scenario.sample_points"), "s")
    metrics["scenarios.report_s"] = (sum(by_name.get(n, {}).get("self_s", 0.0)
                                         for n in REPORT_SPANS), "s")
    for name, unit, _moves in PER_LAYER:
        if name.startswith("verify."):
            metrics[name] = (total("verify.criterion_" + name[len("verify."):-2]), unit)
    for name, (value, unit) in metrics.items():
        if unit == "s":  # span times, rescaled like every other time
            metrics[name] = (value * speed, unit)
    metrics["trace.overhead"] = (traced_s / wall_s, "ratio")
    metrics["trace.coverage"] = (summary["coverage"], "ratio")

    out_dir.mkdir(parents=True, exist_ok=True)
    with gzip.open(out_dir / f"spans-{workload.name}.json.gz", "wt", compresslevel=1) as fh:
        json.dump(tracer.dump(), fh)
    return {
        "metrics": metrics,
        "tally": tally,
        "traced_raw_s": raw_s,
        "traced_s": traced_s,
        "by_name": by_name,
        "dag_baseline_rule": {"nodes": base_nodes, "shapes": base_shapes},
        "code": code,
        "baseline": baseline,
    }


def tally_dict(tally):
    return {"attempted": tally.attempted, "failed": tally.failed,
            "nan_rows": tally.nan_rows, "rows_changed": len(tally.changed),
            "max_ulp": tally.max_ulp, "crossing_err": tally.crossing_err,
            "gate_errors": tally.gate_errors}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    before_pbh = time.perf_counter() - _T0  # interpreter modules and numpy
    with calibrate.SpeedSampler(interval=0.05) as clock:
        _, raw, scaled = clock.measure(lambda: (workload.build(), workload.cold_pass()))
    result = {"setup_s": (before_pbh + raw) * scaled / raw, "setup_raw_s": before_pbh + raw}
    if args.mode != "setup":
        tally = Tally()
        seconds = args.seconds if args.mode == "measure" else args.seconds / 2
        scaled, raw = measure(workload, tally, seconds)
        wall_s = iteration_seconds(scaled)
        result.update(wall_s=wall_s, wall_raw_s=iteration_seconds(raw), part_times=scaled,
                      part_raw_times=raw,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if args.mode == "trace":
            traced = traced_iteration(workload, wall_s, Path(args.root), Path(args.out))
            tally.merge(traced.pop("tally"))
            metrics = traced.pop("metrics")
            metrics["scenarios.rows_changed"] = (len(tally.changed), "count")
            metrics["scenarios.max_ulp"] = (tally.max_ulp, "count")
            metrics["scenarios.crossing_err"] = (tally.crossing_err, "1")
            result["per_layer"] = {name: {"value": metrics[name][0], "unit": metrics[name][1],
                                          "moves": moves}
                                   for name, _unit, moves in PER_LAYER}
            result.update(traced)
        result["tally"] = tally_dict(tally)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
