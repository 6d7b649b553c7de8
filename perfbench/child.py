"""One round of a workload, run in a fresh interpreter.

    python3 child.py SRC_DIR TRACE OPS_JSON

Imports `cvpqc.cli` from SRC_DIR (timed: the set-up cost a CLI user pays),
then calls `cvpqc.cli.main(argv)` for each argv in OPS_JSON with stdout and
stderr captured.  With TRACE = 1 the functions in TRACED are wrapped first.
Prints one JSON object: set-up and per-call times, exit codes, captured
output, peak resident memory and, when traced, per-function call counts
and self times.  Only the standard library is imported before the timed
import, so the import is measured cold.
"""

import contextlib
import functools
import io
import json
import resource
import sys
import time
import traceback

# Public functions wrapped when tracing, by cvpqc module.  "Class.attr"
# names a property.
TRACED = {
    "specialfns": ["bessel_i", "bessel_sum", "poisson_tail"],
    "fockspace": ["CutoffPolicy.dim", "coherent_amplitudes", "hs_distance_numeric"],
    "ensembles": ["maximally_mixed", "circle_mixture", "phi_n"],
    "distances": [
        "cross_bessel_sum", "hs2_simplified", "trace_unit_sq",
        "trace_cross", "trace_phi_sq", "hs2_exact",
    ],
    "optimizer": ["stationarity", "find_rmin", "saturation_sweep"],
    "holevo": ["lambda_spectrum", "entropy_bits", "disk_state_weights", "off_diagonal_check"],
    "cli": ["numeric_d2", "main", "write_rows"],
}


def install_tracer() -> dict:
    """Wrap every function in TRACED; returns {"module.name": [calls, self_s]}.

    `from .specialfns import bessel_i` copies the binding, so each wrapper
    replaces the original in every cvpqc module namespace that binds it.
    Self time is a call's duration minus that of the wrapped calls it made.
    """
    stats = {}
    child_time = [0.0]  # one accumulator per open traced call, plus the root

    def wrap(key, fn):
        stat = stats[key] = [0, 0.0]
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                stat[0] += 1
                stat[1] += elapsed - child_time.pop()
                child_time[-1] += elapsed

        return traced

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cvpqc"]
    for modname, names in TRACED.items():
        module = sys.modules[f"cvpqc.{modname}"]
        for name in names:
            key = f"{modname}.{name}"
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, property(wrap(key, vars(cls)[attr].fget)))
                continue
            original = getattr(module, name)
            wrapper = wrap(key, original)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    setattr(m, attr, wrapper)
    return stats


def main():
    src, trace, ops = sys.argv[1], sys.argv[2] == "1", json.loads(sys.argv[3])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import cvpqc.cli

    setup_s = time.perf_counter() - t0
    stats = install_tracer() if trace else None
    calls = []
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cvpqc.cli.main(argv)
            except Exception:  # an escaped exception is a failed call, not a crash
                code = -1
                traceback.print_exc()
            seconds = time.perf_counter() - t0
        calls.append({
            "argv": argv, "code": code, "seconds": seconds,
            "stdout": out.getvalue(), "stderr": err.getvalue(),
        })
    print(json.dumps({
        "setup_s": setup_s,
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": stats,
    }))


if __name__ == "__main__":
    main()
