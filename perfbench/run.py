"""pbh benchmark: end-to-end metrics per workload, or per-layer metrics from a
traced run.

    python3 perfbench/run.py --workload cylinder_checks --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root; pbh is imported from ./src. Each measurement
runs in its own fresh, single-threaded Python process, one at a time. The last
line of stdout is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 only if every correctness gate passed.

End-to-end metrics (--trace 0):
  setup_s      median over 5 fresh processes of: import pbh, build the
               workload, one cold pass over a single sample point per check
  wall_s       one steady-state iteration: the sum over its parts of each
               part's median time
  peak_rss_mb  peak resident memory of the measuring process
  ok_frac      share of operations (report rows, or criteria for paper)
               that returned, are not NaN and match their known pass flag;
               1 - failed / attempted (the result line carries both counts)

setup_s and wall_s are seconds at a fixed reference machine speed: each
measured stretch is rescaled by a calibration kernel timed alongside it
(calibrate.py), because a shared host's speed drifts by up to 1.8x.
The raw seconds are kept in the record.

--trace 1 reports the per-layer metrics listed in worker.PER_LAYER instead.
Records (provenance, part times, per-layer detail) and the traced spans are
written to .perfbench/ in the repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROCESSES = 4  # plus the measuring process: 5 set-up samples
TIME_LIMIT_S = 170.0

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload, seed, seconds, mode, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--root", str(ROOT), "--out", str(OUT)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload} {mode} worker exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(seed):
    import numpy  # only for its version; the measured processes import their own

    commit = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pbh").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "seed": seed}


def run_one(workload, seed, seconds, trace, deadline):
    workers = [run_worker(workload, seed, seconds, "setup", deadline)
               for _ in range(SETUP_PROCESSES)]
    main = run_worker(workload, seed, seconds, "trace" if trace else "measure", deadline)
    workers.append(main)
    setup = [w["setup_s"] for w in workers]
    setup_raw = [w["setup_raw_s"] for w in workers]
    tally = main["tally"]
    attempted, failed = tally["attempted"], tally["failed"]
    correct = failed == 0 and not tally["gate_errors"] and attempted > 0
    if trace:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in main["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": main["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted if attempted else 0.0,
                        "unit": "ratio"},
        }
    record = {"workload": workload, "trace": trace, "seconds": seconds,
              "provenance": provenance(seed), "setup_samples_s": setup,
              "setup_raw_samples_s": setup_raw,
              "correct": correct, "metrics": metrics, "worker": main}
    OUT.mkdir(exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, tally["gate_errors"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pbh" / "__init__.py").is_file():
        print(f"error: no pbh sources under {ROOT / 'src' / 'pbh'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    results = {}
    ok = True
    for name in names:
        try:
            result, errors = run_one(name, args.seed, args.seconds, bool(args.trace), deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for msg in errors:
            print(f"GATE FAILED {msg}", file=sys.stderr)
        ok = ok and result["correct"]
        results[name] = result
        for metric, m in result["metrics"].items():
            print(f"{name:18s} {metric:40s} {m['value']:.6g} {m['unit']}")
        print(f"{name:18s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
