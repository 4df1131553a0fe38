"""Benchmark for ariset: one closed-loop caller over a seeded workload.

Run from the root of a source checkout:

    python3 bench/run.py --workload family --seed 1 --seconds 25 --trace 0

``--trace 0`` times operations with nothing wrapped and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
over the workload's problems and prints the per-layer metrics. Either
way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment. Failed operations are listed on standard error
by problem. See bench/README.md for the workloads and metrics.
"""

import os

# one BLAS/OpenMP thread: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build")
SETUP_PROBES = 7
# enough operations that p90 has at least ten beyond it
MIN_TIMED_OPS = 100
PROBE_TIMEOUT_S = 60
# a run stops timing after --seconds of operations; this caps its wall time
WALL_CAP_S = 150


def load_ariset():
    """Import ariset from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "ariset", "__init__.py")
    if not os.path.isfile(init):
        raise FileNotFoundError(f"no ariset sources at {init}")
    sys.path.insert(0, SRC)
    import ariset
    import ariset.cli  # noqa: F401

    if os.path.realpath(ariset.__file__) != os.path.realpath(init):
        raise ImportError(f"ariset imported from {ariset.__file__}, not {init}")
    return ariset


def environment(seed, workload):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "seed": seed,
        "workload": workload,
    }


def nearest_rank(values, q):
    """The q-th percentile of a non-empty list by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Runner:
    """Runs operations one at a time and checks each output untimed.

    A failed operation is either ``declined`` or ``wrong``. ``declined``
    covers only the refusals the library makes on answers the
    benchmark's oracle accepts: the Hamiltonian base raising
    ``NoBaseSolution`` on a solvable problem (``workloads.BaseRefused``),
    and a library certificate that fails on an output the checks accept
    (``workloads.Declined``). Everything else is ``wrong``: a failed output
    check, a wrong verdict, or any exception the planted truth does not
    predict. Both count as failed; only ``wrong`` makes the run incorrect.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []

    @property
    def correct(self):
        return all(f["kind"] == "declined" for f in self.failures)

    def one(self, case, tracer=None):
        """Time one operation; return (nanoseconds, output or None)."""
        out = None
        error = None
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                out = self.workload.run(case)
            else:
                with tracer.operation(case.label):
                    out = self.workload.run(case)
        except Exception as exc:  # an unexpected exception fails the op
            error = exc
        elapsed = time.perf_counter_ns() - start
        self.attempted += 1
        if error is None:
            try:
                fails = self.workload.check(case, out)
            except Exception:
                fails = ["check raised: " + traceback.format_exc(limit=3)]
            declined = all(isinstance(f, workloads.Declined) for f in fails)
        else:
            declined = isinstance(error, workloads.BaseRefused)
            fails = [f"{'' if declined else 'unexpected '}{type(error).__name__}: {error}"]
        kind = "declined" if declined else "wrong"
        if fails:
            self.failures.append({"problem": case.label, "kind": kind, "why": fails[:3]})
        return elapsed, out


def make_workload(name, seed):
    ar = load_ariset()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    return ar, workloads.WORKLOADS[name](ar, seed, workdir), workdir


def probe_setup(args, clock):
    """Time from process start to ready-to-time, as a child sees it:
    (scaled by reference blocks taken just before and after it, raw)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    clock.block()
    index = len(clock.blocks) - 1
    before = time.time()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    elapsed = float(done.stdout.strip().splitlines()[-1]) - before
    clock.block()
    return elapsed * clock.scale(index), elapsed


def end_to_end(args, runner):
    """Whole passes over the cases until ``--seconds`` of operation time
    and at least ``MIN_TIMED_OPS`` operations.

    Whole passes keep the mix of problems the same in every run. Wall
    times are scaled by the machine-speed reference, measured in blocks
    of its own between operations (``speed.py``). ``ops_per_s`` is every
    timed operation over their summed time. For the percentiles each
    problem's time is the median of its repetitions, and the percentiles
    are taken over problems by the nearest-rank rule, which puts each on
    the same problem of the pass in every run. The set-up probes run
    between passes, spread over the run, and are scaled the same way.
    """
    import speed

    cases = runner.workload.cases
    clock = speed.Clock()
    setups = []
    spent = 0
    passes = 0
    probe_every = 1
    deadline = time.monotonic() + min(WALL_CAP_S, 3 * args.seconds)
    while ((spent < args.seconds * 1e9 or passes * len(cases) < MIN_TIMED_OPS)
           and time.monotonic() < deadline):
        if len(setups) < SETUP_PROBES and passes % probe_every == 0:
            setups.append(probe_setup(args, clock))
        for case in cases:
            elapsed = runner.one(case)[0]
            clock.add(case.label, elapsed)
            spent += elapsed
        if passes == 0:
            expected = args.seconds * 1e9 / max(spent, 1)
            probe_every = max(1, int(expected // SETUP_PROBES))
        passes += 1
    clock.close()
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(args, clock))
    setups, raw_setups = zip(*setups)

    scaled = clock.scaled()
    timed_ops = len(clock.ops)
    per_problem = [statistics.median(v) * 1e-6 for v in scaled.values()]
    raw = {}
    for key, elapsed, _ in clock.ops:
        raw.setdefault(key, []).append(elapsed * 1e-6)
    raw_per_problem = [statistics.median(v) for v in raw.values()]
    ok = runner.attempted - len(runner.failures)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms_p50": (nearest_rank(per_problem, 50), "ms"),
        "op_ms_p90": (nearest_rank(per_problem, 90), "ms"),
        "ops_per_s": (timed_ops / (sum(map(sum, scaled.values())) * 1e-9), "1/s"),
        "ok_frac": (ok / runner.attempted, "ratio"),
        "peak_rss_mb": (rss_mib, "MiB"),
    }
    extra = {
        "timed_ops": timed_ops,
        "passes": passes,
        "setup_probes_s": list(setups),
        "unscaled_setup_probes_s": list(raw_setups),
        "reference_ms": {"blocks": len(clock.blocks),
                         "min": min(clock.blocks) * 1e-6,
                         "median": statistics.median(clock.blocks) * 1e-6,
                         "max": max(clock.blocks) * 1e-6},
        "unscaled": {"setup_s": statistics.median(raw_setups),
                     "op_ms_p50": nearest_rank(raw_per_problem, 50),
                     "op_ms_p90": nearest_rank(raw_per_problem, 90),
                     "ops_per_s": timed_ops / (spent * 1e-9)},
    }
    return metrics, extra


def per_layer(args, ar, runner, env):
    import spans

    tracer = spans.Tracer(ar)
    cases = runner.workload.cases
    plain_ns = traced_ns = 0
    output_bytes = 0
    passes = 0
    start = time.monotonic()
    while passes == 0 or (time.monotonic() - start < args.seconds
                          and time.monotonic() - start < WALL_CAP_S / 2):
        for case in cases:
            plain_ns += runner.one(case)[0]
        with tracer.installed():
            for case in cases:
                elapsed, out = runner.one(case, tracer)
                traced_ns += elapsed
                if out is not None:
                    output_bytes += runner.workload.output_bytes(out)
        passes += 1
    n_ops = passes * len(cases)
    metrics, selfs = spans.layer_metrics(tracer.spans, n_ops)
    metrics["cli.output_bytes"] = (output_bytes / n_ops, "B/op")
    metrics["trace_overhead_frac"] = (traced_ns / plain_ns - 1.0, "ratio")

    gaps = spans.self_sum_gaps(tracer.spans, selfs)
    bad = {op: gap for op, gap in gaps.items() if gap != 0}
    for op, gap in sorted(bad.items())[:5]:
        runner.failures.append({"problem": tracer.ops[op], "kind": "wrong",
                                "why": [f"self times miss the wall time by {gap} ns"]})

    group_of = {case.label: case.group for case in cases}
    groups = {}
    for op, label in enumerate(tracer.ops):
        groups.setdefault(group_of[label], set()).add(op)
    for group, ops in sorted(groups.items()):
        top = ", ".join(f"{name} {share:.0%}" for name, share in spans.top_self(tracer.spans, selfs, ops))
        print(f"self time, {group}: {top}", file=sys.stderr)

    path = os.path.join(WORK, f"spans-{args.workload}.json.gz")
    with gzip.open(path, "wt") as fh:
        json.dump({"env": env, "ops": tracer.ops,
                   "columns": ["name", "start_ns", "end_ns", "parent", "op", "raised", "extra"],
                   "spans": [s.as_row() for s in tracer.spans]}, fh)
    print(f"spans written to {os.path.relpath(path, ROOT)} ({len(tracer.spans)} spans, "
          f"{passes} traced passes)", file=sys.stderr)
    return metrics, {"traced_passes": passes, "self_sum_mismatches": len(bad)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["family", "ladder", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        ar, workload, workdir = make_workload(args.workload, args.seed)
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_probe:
            print(repr(time.time()))
            return 0
        env = environment(args.seed, args.workload)
        runner = Runner(workload)
        if args.trace:
            metrics, extra = per_layer(args, ar, runner, env)
        else:
            metrics, extra = end_to_end(args, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for f in runner.failures:
        print(f"FAILED ({f['kind']}) {f['problem']}: {' | '.join(f['why'])}", file=sys.stderr)
    print(json.dumps({"env": env, **extra, "failures": runner.failures[:50]}))
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
