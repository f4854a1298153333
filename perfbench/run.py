"""gptlab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is taken from the
checkout's src/. One closed-loop client runs whole rounds of operations until
S seconds of operations have been timed. The last line of standard output is
one JSON object: correct, attempted, failed and the metrics (the end-to-end
ones with --trace 0, the per-layer ones with --trace 1). Results and spans are
also written under .perfbench/ at the checkout root. A run that has not
measured enough within MAX_WALL_S exits 3 without a result. See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # fresh interpreters per run; setup_s is their median
MAX_WALL_S = 150.0  # a run that has not measured enough by then fails, within 180 s
PROBE = """\
import sys, time
t = time.perf_counter()
import setup_calls
setup_calls.WARMUP[sys.argv[1]]()
print(repr(time.perf_counter() - t))
"""
IMPORT_PROBE = """\
import time
t = time.perf_counter()
import gptlab.cli
print(repr(time.perf_counter() - t))
"""


def _env() -> dict:
    paths = [str(HERE), str(SRC), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def _probe(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_env(), cwd=ROOT, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return proc


def setup_seconds(workload: str) -> float:
    """Median over fresh interpreters of `import gptlab` plus the workload's warm-up."""
    return statistics.median(float(_probe(["-c", PROBE, workload]).stdout.split()[-1])
                             for _ in range(SETUP_SAMPLES))


def cli_import_ms() -> tuple[float, float]:
    """Median `import gptlab.cli` time in a fresh interpreter and, from
    -X importtime, the median time spent in scipy's own modules."""
    total, scipy_part = [], []
    for _ in range(SETUP_SAMPLES):
        proc = _probe(["-X", "importtime", "-c", IMPORT_PROBE])
        total.append(float(proc.stdout.split()[-1]) * 1e3)
        us = 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*(\d+)\s*\|\s*\d+\s*\|\s*(\S+)", line)
            if m and m.group(2).split(".")[0] == "scipy":
                us += int(m.group(1))
        scipy_part.append(us / 1e3)
    return statistics.median(total), statistics.median(scipy_part)


def tail(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[math.ceil(pct / 100.0 * len(ordered)) - 1]


def measure(wl, seed: int, seconds: float, tracer) -> dict:
    """Whole rounds of operations, closed loop, until `seconds` of them are timed
    and the tail percentile has ten samples beyond it. `capped` is true when
    MAX_WALL_S ran out first."""
    min_samples = max(40, math.ceil(10.0 / (1.0 - wl.tail_pct / 100.0)))
    latencies: list[float] = []
    timed = 0.0
    failed = wrong = 0
    start = time.perf_counter()
    index = 0
    capped = False
    while timed < seconds or len(latencies) < min_samples:
        if time.perf_counter() - start >= MAX_WALL_S:
            capped = True
            break
        inputs = wl.round(seed, index)
        outputs = []
        gc.collect()
        t_round = time.perf_counter()
        for inp in inputs:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out, exc = wl.op(inp), None
                else:
                    root_span = len(tracer.spans)
                    out, exc = tracer.span("op", wl.op, inp), None
                    if getattr(out, "spans", None):
                        tracer.adopt(out.spans, root_span)
            except Exception as e:  # the program failed this operation; count it
                out, exc = None, e
            latencies.append(time.perf_counter() - t0)
            outputs.append((out, exc))
        timed += time.perf_counter() - t_round
        for inp, (out, exc) in zip(inputs, outputs):
            if exc is not None:
                failed += 1
                if failed <= 3:
                    print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            try:
                wl.check(inp, out)
            except Exception as e:  # a wrong or unreadable output
                failed += 1
                wrong += 1
                if wrong <= 3:
                    print(f"wrong output: {type(e).__name__}: {e}", file=sys.stderr)
        index += 1
    return {"latencies": latencies, "timed": timed, "failed": failed, "wrong": wrong,
            "rounds": index, "min_samples": min_samples, "capped": capped}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gptlab" / "__init__.py").is_file():
        print(f"error: no gptlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads  # noqa: E402  (needs the paths above)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s = setup_seconds(args.workload)
    import setup_calls
    import gptlab
    if Path(gptlab.__file__).resolve().parent != (SRC / "gptlab").resolve():
        print(f"error: imported gptlab from {gptlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    fixed = setup_calls.WARMUP[args.workload]()
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, bool(args.trace), fixed)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        if args.workload != "cli-commands":  # CLI children install their own
            tracer.install()
    run = measure(wl, args.seed, args.seconds, tracer)
    if run["capped"]:
        print(f"error: after {MAX_WALL_S:g} s only {run['timed']:.1f} s of operations "
              f"were timed, with {len(run['latencies'])} latencies of the "
              f"{run['min_samples']} the tail needs; no result", file=sys.stderr)
        return 3
    lat = run["latencies"]
    attempted = len(lat)
    throughput = (attempted - run["failed"]) / run["timed"]

    if args.trace:
        tracer.uninstall()
        metrics = spans.layer_metrics(tracer.spans, attempted)
        metrics["cli.import_ms"], metrics["cli.import_scipy_ms"] = cli_import_ms()
        units = {"ms": "ms", "self_ms": "ms", "calls": "calls/op", "lp_removed_ratio": "ratio",
                 "import_ms": "ms", "import_scipy_ms": "ms", "main_ms": "ms"}
        metrics = {k: {"value": v, "unit": units[k.rsplit(".", 1)[1]]}
                   for k, v in sorted(metrics.items())}
    else:
        metrics = {
            "throughput_ops_s": {"value": throughput, "unit": "ops/s"},
            "latency_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": tail(lat, wl.tail_pct) * 1e3, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": wl.peak_rss_mb(), "unit": "MB"},
        }
    result = {"correct": run["wrong"] == 0, "attempted": attempted, "failed": run["failed"],
              "metrics": metrics}

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {**result, "workload": args.workload, "seed": args.seed, "rounds": run["rounds"],
              "timed_s": run["timed"], "throughput_ops_s": throughput,
              "tail_percentile": wl.tail_pct, "setup_s": setup_s}
    (out_dir / f"result-{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if tracer is not None:
        (out_dir / f"spans-{stem}.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
