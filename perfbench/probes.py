"""Layer probes for the traced run: jet kernel microbenchmarks, per-call times
of the map-calculus, stress and submanifold functions on fixed inputs, and
code-size counts. Probes run with the tracer uninstalled.

Kernel and per-call times are medians of a few repeats, rescaled to the
reference machine speed (calibrate.py), and still noisy; operation counts
(`jets.mul_terms.*`) are exact and computed from the monomial count, not
measured.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from pathlib import Path

KERNEL_SPACES = ((3, 1), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4))


def _per_call(clock, fn, reps: int, batches: int = 5) -> float:
    """Median seconds per call over `batches` timed batches of `reps` calls."""
    def batch():
        for _ in range(reps):
            fn()
    return statistics.median(clock.measure(batch)[2] / reps for _ in range(batches))


def jet_kernels(metrics: dict, clock):
    import numpy as np
    from pbh import jets

    rng = np.random.default_rng(0)
    for nvars, order in KERNEL_SPACES:
        sp = jets.space_for(nvars, order)
        a = jets.JetScalar(sp, rng.uniform(0.5, 1.5, sp.size))
        b = jets.JetScalar(sp, rng.uniform(0.5, 1.5, sp.size))
        taylor = [1.0 / math.factorial(k) for k in range(order + 1)]
        tag = f"{nvars}.{order}"
        metrics[f"jets.mul_us.{tag}"] = (_per_call(clock, lambda: a * b, 2000) * 1e6, "us")
        metrics[f"jets.compose_us.{tag}"] = (
            _per_call(clock, lambda: jets._compose(a, taylor), 500) * 1e6, "us")
        # pairs of monomials with total degree <= order: C(2 nvars + order, order)
        metrics[f"jets.mul_terms.{tag}"] = (math.comb(2 * nvars + order, order), "count")


def _median_over_points(clock, fn, points, reps: int = 2) -> float:
    return statistics.median(clock.measure(lambda: fn(x))[2] for _ in range(reps) for x in points)


def layer_calls(metrics: dict, baseline: dict, clock):
    """Per-call times on the ROADMAP reference inputs: cylinder and
    small_hypersphere(2, 0.8) at p = 3 on their grid points, inversion(3) at
    l = 2, p = 3 for the quadrature node cost."""
    from pbh import mapcalc, scenarios, stress, submanifold

    p = 3.0
    cyl = scenarios.builtin("proper_pbh_cylinder")
    phi = cyl.build({"p": p})
    pts = cyl.sample_points({"p": p})

    def trace_identity(x):
        stress.stress_trace(phi, x, p)
        stress.stress_tensor(phi, x, p)
        stress.theta_divergence(phi, x, p)

    per_point = {
        "mapcalc.p_tension_ms": lambda x: mapcalc.p_tension(phi, x, p),
        "mapcalc.p_bitension_ms": lambda x: mapcalc.p_bitension(phi, x, p),
        "stress.divergence_check_ms": lambda x: stress.stress_divergence_check(phi, x, p),
        "stress.trace_identity_ms": trace_identity,
    }
    for name, fn in per_point.items():
        fn(pts[0])
        metrics[name] = (_median_over_points(clock, fn, pts) * 1e3, "ms")

    sph = scenarios.builtin("small_hypersphere(2, 0.8)")
    imm = sph.build({"p": p})
    spts = sph.sample_points()
    for name, fn in {
        "submanifold.theorem21_ms": lambda x: submanifold.theorem21_residuals(imm, x, p),
        "submanifold.theorem23_ms": lambda x: submanifold.theorem23_residuals(imm, x, p),
        "submanifold.cmc_ms": lambda x: submanifold.cmc_proper_p(imm, x),
    }.items():
        fn(spts[0])
        metrics[name] = (_median_over_points(clock, fn, spts, reps=3) * 1e3, "ms")

    inv = scenarios.builtin("inversion(3)")
    psi = inv.build({"l": 2.0, "p": p})
    order = 4

    def energies():
        mapcalc.p_energy_box(psi, inv.box, p, order=order)
        mapcalc.p_bienergy_box(psi, inv.box, p, order=order)

    metrics["mapcalc.quad_node_us"] = (
        _per_call(clock, energies, 1, batches=3) / order ** len(inv.box) * 1e6, "us")

    cyl_p3 = lambda: scenarios.run(cyl, overrides={"p": p})  # noqa: E731
    cyl_p3()
    baseline["cylinder_p3_run_ms"] = _per_call(clock, cyl_p3, 1, batches=3) * 1e3
    for name in ("mapcalc.p_tension_ms", "mapcalc.p_bitension_ms",
                 "stress.divergence_check_ms"):
        baseline[name] = metrics[name][0]


def code_size(root: Path, metrics: dict):
    # counted in a fresh interpreter: importing pbh.verify (as the paper
    # workload does) adds it to the package namespace
    count = ("import pbh, types; names = [n for n in dir(pbh) if not n.startswith('_')]; "
             "print(len(names), sum(isinstance(getattr(pbh, n), types.ModuleType) "
             "for n in names))")
    out = subprocess.run([sys.executable, "-c", count], capture_output=True, text=True,
                         check=True, timeout=60).stdout.split()
    lines = sum(len(f.read_text().splitlines()) for f in sorted((root / "src/pbh").rglob("*.py")))
    metrics["code.src_lines"] = (lines, "count")
    metrics["code.public_names"] = (int(out[0]), "count")
    return {"public_names": int(out[0]), "public_modules": int(out[1])}
