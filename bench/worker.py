"""One repetition of one workload, in a fresh process.

    python3 bench/worker.py --workload NAME --config CFG --out DIR --seed N \
        --rep K --result FILE [--trace] [--spans FILE]

Times set-up (importing delaybsde, validating the config, building the
problem) and then one `delaybsde.cli.main(argv)` call, checks the outputs,
and writes a JSON result file.  With --trace the command runs under the
span recorder in tracing.py and the result also holds per-layer metrics.
"""

import os
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    return parser.parse_args(argv)


def _output_digests(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


def main(argv=None):
    args = _parse(argv)
    t0 = time.perf_counter()
    import delaybsde.cli as cli
    from delaybsde.config import build_problem, load_config

    problem = build_problem(load_config(args.config))
    setup_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported delaybsde from {cli.__file__}, not from {ROOT / 'src'}")

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.rep)
        missing = tracer.install()
        if missing:
            print(f"trace: not found, left unmeasured: {', '.join(missing)}", file=sys.stderr)

    # The compare-z check needs the base solution, which no output file holds.
    solutions = []
    picard_solve = cli.picard_solve

    def capture(*a, **k):
        solutions.append(picard_solve(*a, **k))
        return solutions[-1]

    cli.picard_solve = capture
    cpu0 = time.process_time()
    t1 = time.perf_counter()
    try:
        if tracer is None:
            rc = cli.main(workload.argv(args.config, args.out, args.seed))
        else:
            with tracer.span("cli.command"):
                rc = cli.main(workload.argv(args.config, args.out, args.seed))
    finally:
        solve_s = time.perf_counter() - t1
        cpu_s = time.process_time() - cpu0
        cli.picard_solve = picard_solve
        if tracer is not None:
            tracer.restore()

    result = {
        "rc": rc,
        "setup_s": setup_s,
        "solve_s": solve_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": _output_digests(args.out),
    }
    if rc == 0:
        obs, problems = workload.check(args.out, solutions[-1] if solutions else None, problem)
        result.update(observations=obs, problems=problems)
    else:
        result["problems"] = [f"command exited with {rc}"]
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["cli.cpu_s"] = cpu_s
        layers["cli.bytes_written"] = sum(p.stat().st_size for p in Path(args.out).iterdir())
        result["layers"] = layers
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span, default=str) + "\n")
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
