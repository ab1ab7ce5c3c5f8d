"""Benchmark of the Morley von Karman solver.

    python3 bench/run.py --workload lshape-adaptive --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20

Each workload runs in whole rounds, one fresh worker process per round,
until ``--seconds`` have passed; every round times the set-up and the run
call and checks the program's outputs (see worker.py and checks.py).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over the rounds); with ``--trace 1``
untraced and traced rounds alternate and it holds the per-layer metrics
of the traced round with the median run time, plus the tracing overhead.

The inputs are fixed problems from the solver's registry and contain no
randomness, so ``--seed`` is accepted but changes nothing.  Result and
span files go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("lshape-adaptive", "trig-oneshot", "trig-uniform-cli")
# A run of one workload ends within this many seconds, a stuck round included.
RUN_LIMIT_S = 170

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "dofs_per_s": "dofs/s"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"solver.lu_fill_ratio": "ratio", "cli.bytes_written": "bytes"}.get(name, "count")


class BenchError(Exception):
    """The benchmark itself could not run (not a failure of the program)."""


def run_round(workload: str, run_id: str, trace_file: Path | None, timeout: float) -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        env.get("PYTHONPATH")])))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--run-id", run_id,
           "--scratch", str(RESULTS / f"cli-{run_id}")]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} round {run_id} did not end within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} round {run_id} exited with code {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    RESULTS.mkdir(exist_ok=True)
    start = time.monotonic()
    plain, traced = [], []
    k = 0
    while True:
        run_id = f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}-r{k}"
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - start))
        if trace and k % 2 == 1:
            traced.append(run_round(workload, run_id, RESULTS / f"spans-{run_id}.jsonl", timeout))
        else:
            plain.append(run_round(workload, run_id, None, timeout))
        k += 1
        if time.monotonic() - start >= seconds and (not trace or k % 2 == 0):
            break

    rounds = plain + traced
    ops = [op for r in rounds for op in r["ops"]]
    for op in ops:
        if op["status"] != "ok":
            print(f"[{workload}] {op['status'].upper()} {op['op']}: {op['detail']}")
    for op in rounds[0]["ops"]:
        if not op["op"].startswith("level "):
            print(f"[{workload}] check {op['op']}: {op['status']} ({op['detail']})")
    levels = [op for op in rounds[0]["ops"] if op["op"].startswith("level ")]
    print(f"[{workload}] per-level checks: {sum(op['status'] == 'ok' for op in levels)}"
          f"/{len(levels)} levels ok in round 0; {len(rounds)} rounds "
          f"({len(plain)} untraced, {len(traced)} traced)")

    complete = [r for r in plain if "run_s" in r["metrics"]]
    if not complete:
        raise BenchError(f"{workload}: no round completed its run")

    def med(key):
        return statistics.median(r["metrics"][key] for r in complete)

    if not trace:
        metrics = {
            "run_s": med("run_s"),
            "setup_s": med("setup_s"),
            "peak_rss_mb": med("peak_rss_mb"),
            "dofs_per_s": statistics.median(r["metrics"]["ndofs_total"] / r["metrics"]["run_s"]
                                            for r in complete),
        }
        units = END_TO_END_UNITS
    else:
        done = sorted((r for r in traced if "layers" in r["metrics"]),
                      key=lambda r: r["metrics"]["traced_root_s"])
        if not done:
            raise BenchError(f"{workload}: no traced round completed its run")
        chosen = done[(len(done) - 1) // 2]["metrics"]
        layers = chosen["layers"]
        accounted = sum(v for key, v in layers.items() if key.endswith("_s"))
        if abs(accounted - chosen["traced_root_s"]) > 1e-9 * max(1.0, chosen["traced_root_s"]):
            raise BenchError(f"{workload}: self times add up to {accounted}, "
                             f"traced run took {chosen['traced_root_s']}")
        untraced = med("run_s")
        metrics = dict(layers)
        metrics.update({"trace.run_s": chosen["traced_root_s"], "trace.untraced_run_s": untraced,
                        "trace.overhead_s": chosen["traced_root_s"] - untraced})
        units = {key: layer_unit(key) for key in metrics}

    return {
        "correct": all(op["status"] != "wrong" for op in ops),
        "attempted": len(ops),
        "failed": sum(op["status"] != "ok" for op in ops),
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in sorted(metrics.items())},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "vkmorley" / "__init__.py").is_file():
        print(f"no solver sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            for key, m in result["metrics"].items():
                print(f"[{name}] {key} = {m['value']:.6g} {m['unit']}")
            print(f"[{name}] correct {result['correct']}, attempted {result['attempted']}, "
                  f"failed {result['failed']}")
            line = json.dumps(result)
            (RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
            print(line)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
