"""Benchmark of the `cvpqc` command-line program.

    python3 perfbench/run.py --workload {holevo,saturation,distance} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  One operation is one `cvpqc.cli.main(argv)`
call with the default CSV output.  A round runs every operation of the
workload once, in a fresh interpreter (`child.py`), so process-level caches
start cold as they do for a CLI user.  Rounds repeat, one process at a
time, as long as whole rounds fit in S seconds (at least once); with
--trace 1 each repetition is an untraced round followed by a traced one.
Before the first round and after each one, `speed_probe` times a fixed
pure-Python loop, which tracks how fast the shared machine runs at the
time.  Every output is then checked by `checks.py` against computations
made apart from `cvpqc`.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (`wall_s` a mean over rounds, the rest medians).
Diagnostics go to stderr, and the raw rounds with their traces to
perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_op
from child import TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

# setup_s is the median of at least this many fresh imports per run.
MIN_SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RADIUS_QUANTUM = 2.0**-10
# Workloads whose rounds are interpreter-bound Python: their wall_s is scaled
# to the speed at which `speed_probe` takes PROBE_REF_S.  The holevo round is
# numpy array arithmetic, which the machine's slow spells slow about a third
# as much as the probe, so scaling it would add noise; it is reported unscaled.
SCALED_WORKLOADS = {"saturation", "distance"}
PROBE_REF_S = 0.4
PROBE_ITERATIONS = 2_000_000


def radii(rng: random.Random, lo: float, hi: float, count: int) -> list[str]:
    """One radius drawn uniformly in each of `count` equal strata of [lo, hi].

    Strata i and count-1-i mirror each other (their radii sum to lo + hi):
    the cost of a call grows about linearly with the radius, so the seed
    moves the inputs but hardly the total work of a round.  Radii are
    multiples of RADIUS_QUANTUM: for those the last point b * 2000 / 2000 of
    `saturation_sweep`'s r-grid is exactly b, while for about 1% of other
    radii it rounds above b and the call exits 2 ("r must be in (0, b]").
    """
    width = (hi - lo) / count
    u = [rng.random() for _ in range((count + 1) // 2)]
    offsets = u + [1.0 - x for x in reversed(u[: count // 2])]
    return [repr(round((lo + (i + f) * width) / RADIUS_QUANTUM) * RADIUS_QUANTUM)
            for i, f in enumerate(offsets)]


def holevo_ops(rng, seed):
    return [["figures", "fig2", "--b-grid", ",".join(radii(rng, 0.5, 4.0, 8))]]


def saturation_ops(rng, seed):
    b1, b2, b3 = radii(rng, 1.0, 3.0, 3)
    return [
        ["figures", "fig1a", "--b", b1],
        ["saturation", "--b", b2, "--p-max", "20"],
        ["saturation", "--b", b3, "--p-max", "20"],
        ["figures", "fig1b"],
        ["rmin", "--b", "0.5:7:0.5"],
    ]


def distance_ops(rng, seed):
    return [
        ["distance", "--b", ",".join(radii(rng, 1.0, 4.0, 4)),
         "--N", "10,40,160,320", "--with-oracle"],
        ["verify", "all", "--seed", str(seed)],
    ]


WORKLOADS = {"holevo": holevo_ops, "saturation": saturation_ops, "distance": distance_ops}


def run_child(ops: list, traced: bool, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(SRC), "1" if traced else "0",
         json.dumps(ops)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit(f"benchmark round failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def wall_s(round_: dict) -> float:
    return sum(call["seconds"] for call in round_["calls"])


def speed_probe() -> float:
    """Seconds taken by a fixed loop of float arithmetic in the interpreter."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_ITERATIONS):
        acc += math.exp(-i * 1e-6) * (i % 7)
    return time.perf_counter() - t0


def run_wall_s(rounds: list, probes: list | None = None) -> float:
    """Wall time per round over the run: the mean, not the median.

    The shared machine switches between a fast and a slow state that each
    last several rounds; a median over a run's few rounds lands on either,
    while the mean weighs each state by the time the run spent in it.  Given
    the run's `probes`, the mean is brought to the reference speed by the
    ratio of PROBE_REF_S to the probes' mean.
    """
    scale = PROBE_REF_S / statistics.fmean(probes) if probes else 1.0
    return statistics.fmean(map(wall_s, rounds)) * scale


def layer_metrics(traced: list, untraced: list, probes: list, scaled: bool) -> dict:
    metrics = {}
    for module, names in TRACED.items():
        keys = [f"{module}.{name}" for name in names]
        for key in keys:
            calls, self_s = zip(*(r["trace"][key] for r in traced))
            metrics[f"{key}.calls"] = (statistics.median(calls), "count")
            metrics[f"{key}.self_s"] = (statistics.median(self_s), "s")
        metrics[f"{module}.self_s"] = (
            statistics.median(sum(r["trace"][k][1] for k in keys) for r in traced), "s")
    scaling = probes if scaled else None
    traced_wall = run_wall_s(traced, scaling)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - run_wall_s(untraced, scaling), "s")
    metrics["wall_raw_s"] = (run_wall_s(untraced), "s")
    metrics["machine.probe_s"] = (statistics.fmean(probes), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it is also passed to `verify all --seed`)")
    if not (SRC / "cvpqc" / "cli.py").is_file():
        print(f"no cvpqc sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update(dict.fromkeys(BLAS_THREAD_VARS, str(len(os.sched_getaffinity(0)))))
    ops = WORKLOADS[args.workload](random.Random(args.seed), args.seed)
    modes = (False, True) if args.trace else (False,)
    scaled = args.workload in SCALED_WORKLOADS
    rounds, probes = [], [speed_probe()]
    deadline = time.perf_counter() + args.seconds
    while True:  # whole rounds only; stop before one would overrun the deadline
        started = time.perf_counter()
        for traced in modes:
            rounds.append((traced, run_child(ops, traced, env)))
            probes.append(speed_probe())
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    setup = [r["setup_s"] for _, r in rounds]
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(run_child([], False, env)["setup_s"])

    verdicts = {}
    attempted = failed = 0
    for _, r in rounds:
        for call in r["calls"]:
            key = json.dumps([call["argv"], call["code"], call["stdout"]])
            if key not in verdicts:
                verdicts[key] = check_op(call["argv"], call["code"], call["stdout"])
                v = verdicts[key]
                for line in [f"FAILED {f}" for f in v.faults] + [f"WRONG {e}" for e in v.errors]:
                    print(f"{' '.join(call['argv'])}: {line}", file=sys.stderr)
                if v.faults and call["stderr"]:
                    print(f"  stderr: {call['stderr'].strip()[:500]}", file=sys.stderr)
            attempted += 1
            failed += bool(verdicts[key].faults)
    correct = not any(v.errors for v in verdicts.values())

    untraced = [r for traced, r in rounds if not traced]
    if args.trace:
        metrics = layer_metrics([r for traced, r in rounds if traced], untraced, probes, scaled)
        print(f"tracing overhead: {metrics['trace.overhead_s'][0]:.4f} s per round",
              file=sys.stderr)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (run_wall_s(untraced, probes if scaled else None), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    print(f"{args.workload}: unscaled wall {run_wall_s(untraced):.6g} s per round, "
          f"probe mean {statistics.fmean(probes):.6g} s "
          f"({'scaled to' if scaled else 'not scaled; reference'} {PROBE_REF_S} s)",
          file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations, {failed} failed, "
          f"correct={correct}", file=sys.stderr)

    RUNS.mkdir(exist_ok=True)
    raw = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({
        "args": vars(args), "ops": ops, "setup_s": setup, "probes_s": probes,
        "rounds": [dict(r, traced=traced) for traced, r in rounds],
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
