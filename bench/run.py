"""delaybsde benchmark: one workload, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's CLI command again and again, each repetition in a fresh
Python process (bench/worker.py) with BLAS pinned to one thread, the next one
starting only after the previous one has finished, until the next would end
after S seconds (at least three repetitions, four when tracing).  Every
repetition uses the same seed, so all of them must write byte-identical
outputs.  With --trace 1 the repetitions alternate between untraced and
traced; the traced ones give the per-layer metrics and the pair gives the
tracing overhead.

Prints a human-readable summary, then one JSON line:
{"correct", "attempted", "failed", "metrics"}, where metrics holds the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer ones
(--trace 1).  Run it from anywhere; it works inside the checkout it lives in,
under .bench_run/.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_run"
# Every run must end within 180 s; stop a repetition that would pass this.
DEADLINE_S = 170.0


def _parse(argv=None):
    parser = argparse.ArgumentParser(description="delaybsde benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "BLAS unknown"
    return (f"python {sys.version.split()[0]}, numpy {np.__version__}, {blas}, "
            f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}")


def _repetition(workload, cfg_path, run_dir, seed, rep, traced, timeout):
    """Run one fresh-process repetition; return its result dict or a failure."""
    out_dir = run_dir / f"out{rep}"
    result_path = run_dir / f"result{rep}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
           "--config", str(cfg_path), "--out", str(out_dir), "--seed", str(seed),
           "--rep", str(rep), "--result", str(result_path)]
    if traced:
        cmd += ["--trace", "--spans", str(run_dir / f"spans{rep}.jsonl")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problems": [f"timed out after {timeout:.0f} s"],
                "wall_s": time.perf_counter() - start}
    wall_s = time.perf_counter() - start
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"problems": [f"worker exited with {proc.returncode}: {' | '.join(tail)}"],
                "wall_s": wall_s}
    result = json.loads(result_path.read_text())
    result["wall_s"] = wall_s
    result["traced"] = traced
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def _median(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "delaybsde" / "cli.py").is_file():
        return _fail(f"no delaybsde sources under {ROOT / 'src'}")
    try:
        spec = json.loads(SPEC.read_text())
        sys.path.insert(0, str(HERE))
        from workloads import WORKLOADS
    except (OSError, ValueError, ImportError) as exc:
        return _fail(f"cannot load the benchmark: {exc}")
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(json.dumps(workload.config, indent=2, sort_keys=True) + "\n")
        reps = []
        t_start = time.perf_counter()
        min_reps = 4 if args.trace else 3
        while True:
            elapsed = time.perf_counter() - t_start
            expected = max((r["wall_s"] for r in reps[-2:]), default=0.0)
            if len(reps) >= min_reps and elapsed + expected > args.seconds:
                break
            if elapsed + expected > DEADLINE_S:
                break
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(_repetition(workload, cfg_path, run_dir, args.seed, len(reps), traced,
                                    timeout=max(DEADLINE_S - elapsed, 1.0)))
        spans = [run_dir / f"spans{i}.jsonl" for i, r in enumerate(reps) if r.get("traced")]
        if spans and spans[-1].exists():
            shutil.copyfile(spans[-1], WORK / f"spans-{workload.name}.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # A repetition fails if it crashed, failed a check, or wrote outputs that
    # differ from the first successful repetition (same config, same seed).
    reference = next((r["digests"] for r in reps if not r["problems"]), None)
    for r in reps:
        if not r["problems"] and r["digests"] != reference:
            changed = sorted(k for k in set(r["digests"]) | set(reference)
                             if r["digests"].get(k) != reference.get(k))
            r["problems"].append(f"outputs differ from an earlier repetition: {changed}")
    ok = [r for r in reps if not r["problems"]]
    failed = len(reps) - len(ok)
    for i, r in enumerate(reps):
        for problem in r["problems"]:
            print(f"repetition {i} FAILED: {problem}")

    plain = [r for r in ok if not r.get("traced")]
    traced = [r for r in ok if r.get("traced")]
    print(f"workload {workload.name} ({workload.command}), seed {args.seed}, "
          f"{len(reps)} repetitions in {time.perf_counter() - t_start:.1f} s; {_environment()}")
    print(f"  failed_frac {failed / len(reps):.3g} ({failed}/{len(reps)})")
    print("  solve_s per repetition: " + " ".join(
        f"{r['solve_s']:.3f}{'t' if r.get('traced') else ''}" for r in ok))
    for key in sorted({k for r in ok for k in r["observations"]}):
        vals = [r["observations"][key] for r in ok]
        print(f"  {key} median {_median(vals):.4g} (n={len(vals)}, "
              f"range {min(vals):.4g} .. {max(vals):.4g})")

    solve_s = _median([r["solve_s"] for r in plain])
    if args.trace:
        n = len(traced)
        values = {k: _median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]} \
            if traced else {}
        values["trace.overhead_frac"] = _median([r["solve_s"] for r in traced]) / solve_s - 1.0
        section = spec["per_layer"]
    else:
        n = len(plain)
        values = {
            "setup_s": _median([r["setup_s"] for r in plain]),
            "solve_s": solve_s,
            "items_per_s": workload.items / solve_s,
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        }
        print(f"  items_per_s counts {workload.item_unit}, {workload.items} per command")
        section = spec["end_to_end"]
    metrics = {}
    for m in section:
        value = values.get(m["name"], float("nan"))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']} {value:.6g} {m['unit']} (median of {n})")
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        return _fail("too few good repetitions to measure every metric")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
