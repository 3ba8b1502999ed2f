"""ncst benchmark: seeded closed-loop workloads, end-to-end time to verdict,
and a traced run for the per-layer numbers.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 1

The package is imported from this checkout's ``src/`` (the run refuses
any other copy).  One process runs one workload; ``--workload all`` runs
each workload in a child process of its own, so that peak memory and the
engine caches never carry over.

With ``--trace 0`` the run repeats the workload's pass (its batch of
requests) while the next pass still fits in ``--seconds`` and reports the
end-to-end metrics of BENCHMARK.json as medians over passes.  With
``--trace 1`` it runs pass 0 three times: untraced, with spans, and with
counters (see tracing.py), and reports the per-layer metrics.  Every output
is checked against an independent answer after its pass; the last line of
stdout is one JSON object, and the exit code is 1 when any request failed
or disagreed with its answer, 2 on a usage or environment error.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from bisect import bisect_right
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
TAIL_BEYOND = 10
# This machine's speed drifts by up to 2x over seconds to minutes, because
# other tenants share its cores, and the drift moves every raw time of
# interpreter-bound work.  A measured pass therefore runs a fixed reference
# slice every REFERENCE_EVERY_S of wall time, inside requests too (see
# SpeedProbe), and takes the slices out of every raw time.  An
# interpreter-bound request's speed is REFERENCE_S over the mean of the
# slices during it and the one on either side; a dense request
# (Request.scaled false) has speed 1.  Request times are reported as raw
# time * request speed, and pass times as raw time * pass speed, the mean of
# its requests' speeds weighted by their time: seconds at the speed of a
# quiet core of the 2-core, 2 GHz machine the benchmark was written on.
# Raw times go to the run record.
REFERENCE_S = 0.015
REFERENCE_EVERY_S = 0.25
# the self-check of a traced pass: time inside requests that no span covers
SELF_CHECK_SLACK = (0.005, 0.0001)  # share of traced wall_s, seconds per request

sys.path.insert(0, str(HERE))


class BenchError(Exception):
    pass


# -- environment ---------------------------------------------------------------

def import_package():
    """Import ncspacetime from this checkout's src/, or refuse."""
    if not (SRC / "ncspacetime" / "__init__.py").is_file():
        raise BenchError(f"no package at {SRC / 'ncspacetime'}")
    sys.path.insert(0, str(SRC))
    import ncspacetime
    import ncspacetime.cli  # noqa: F401  (the modules tracing.py rebinds)
    got = Path(ncspacetime.__file__).resolve().parent
    if got != (SRC / "ncspacetime").resolve():
        raise BenchError(f"imported ncspacetime from {got}, not {SRC}")
    return got


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def blas_info() -> dict:
    import numpy as np
    info = {"library": "unknown", "threads": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def provenance(package: Path) -> dict:
    import numpy as np
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "package": str(package),
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_gb": round(pages / 2 ** 30, 2),
    }


def setup_times(repeats: int = SETUP_REPEATS) -> tuple:
    """Raw wall times of fresh interpreters that import ncspacetime.cli
    (numpy included), after one untimed run that leaves the bytecode cache
    warm, and their speeds from the reference slices on either side."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import ncspacetime.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    probe = SpeedProbe()
    probe.tick()
    times, speeds = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        t1 = perf_counter()
        probe.tick()
        times.append(t1 - t0)
        speeds.append(probe.speed(t0, t1))
    return times, speeds


# -- passes --------------------------------------------------------------------

def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class _Node:
    __slots__ = ("weight", "kids")

    def __init__(self, weight, *kids):
        self.weight, self.kids = weight, kids

    def value(self, x):
        out = self.weight * x
        for kid in self.kids:
            out += math.sin(kid.value(x))
        return out


_TREE = _Node(0.5, _Node(1.1, _Node(0.3), _Node(0.7)), _Node(0.9, _Node(0.2)))


def reference_slice() -> None:
    """Exact rationals, dict updates on tuple keys, and method calls over a
    small float expression tree: interpreter work like the workloads'."""
    acc, counts = Fraction(0), {}
    for k in range(1, 1800):
        acc += Fraction(1, k % 97 + 1) * Fraction(3, k % 13 + 1)
        key = (k % 50, k % 7)
        counts[key] = counts.get(key, 0) + 1
        _TREE.value(k * 0.01)


class SpeedProbe:
    """Runs the reference slice on entry, on exit, and from a SIGALRM
    handler every REFERENCE_EVERY_S of wall time in between.  The handler
    runs between bytecodes of the main thread, so slices also fall inside
    long requests (inside a BLAS call, one waits for the call to return)."""

    def __init__(self):
        self.ends, self.walls, self.cpus = [], [], []
        self.busy = False

    def tick(self, *_):
        if self.busy:  # the timer fired while a slice ran
            return
        self.busy = True
        # the slice frees what it allocates; with the collector off it
        # triggers no collection, so it leaves the program's GC schedule
        # as it found it
        collecting = gc.isenabled()
        gc.disable()
        w0, c0 = perf_counter(), cpu_seconds()
        reference_slice()
        self.ends.append(perf_counter())
        self.walls.append(self.ends[-1] - w0)
        self.cpus.append(cpu_seconds() - c0)
        if collecting:
            gc.enable()
        self.busy = False

    def __enter__(self):
        self.handler = signal.signal(signal.SIGALRM, self.tick)
        self.tick()
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S,
                         REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.handler)
        self.tick()

    def inside(self, t0: float, t1: float) -> tuple:
        """(wall, cpu) of the slices that ran between t0 and t1."""
        lo, hi = bisect_right(self.ends, t0), bisect_right(self.ends, t1)
        return sum(self.walls[lo:hi]), sum(self.cpus[lo:hi])

    def speed(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean slice from the last one before t0 to
        the first one after t1."""
        lo, hi = bisect_right(self.ends, t0), bisect_right(self.ends, t1)
        walls = self.walls[max(lo - 1, 0):hi + 1]
        return REFERENCE_S * len(walls) / sum(walls)


def run_pass(workload, k: int, instrument=None, probe=False) -> dict:
    """Send pass k's requests one after another, with reference slices
    when probe is set, then check every output."""
    reqs = workload.requests(k)
    # every pass starts from the heap a fresh process would have, without
    # the cyclic garbage of the passes before it
    gc.collect()
    outputs, spans = [], []
    speed_probe = SpeedProbe() if probe else None
    with speed_probe or nullcontext():
        cpu0 = cpu_seconds()
        start = perf_counter()
        for req in reqs:
            t0 = perf_counter()
            try:
                outputs.append((req.run(), None))
            except Exception as exc:  # a request that raised counts as failed
                outputs.append((None, exc))
            spans.append((t0, perf_counter()))
            if instrument is not None:
                instrument.after_request()
        end = perf_counter()
        cpu = cpu_seconds() - cpu0
    wall = end - start
    times = [t1 - t0 for t0, t1 in spans]
    speeds = [1.0] * len(reqs)
    if speed_probe is not None:
        slice_wall, slice_cpu = speed_probe.inside(start, end)
        wall, cpu = wall - slice_wall, cpu - slice_cpu
        times = [t - speed_probe.inside(*span)[0]
                 for t, span in zip(times, spans)]
        speeds = [speed_probe.speed(*span) if req.scaled else 1.0
                  for req, span in zip(reqs, spans)]
    failed, wrong, problems = 0, 0, []
    for req, (out, exc) in zip(reqs, outputs):
        why = None
        if exc is not None:
            failed += 1
            why = f"raised {type(exc).__name__}: {exc}"
        else:
            if req.expect_rc is not None:
                rc, out = out
                if rc != req.expect_rc:
                    failed += 1
                    why = f"exit {rc}, expected {req.expect_rc}"
            if why is None:
                try:
                    why = req.check(out)
                except Exception as exc:
                    why = f"unreadable output: {type(exc).__name__}: {exc}"
            if why is not None:
                wrong += 1
        if why is not None:
            problems.append(f"{req.label}: {why}")
    speed = sum(t * v for t, v in zip(times, speeds)) / sum(times)
    return {"k": k, "wall_s": wall, "cpu_s": cpu, "times": times,
            "scaled_times": [t * v for t, v in zip(times, speeds)],
            "speed": speed, "labels": [req.label for req in reqs],
            "attempted": len(reqs), "failed": failed, "wrong": wrong,
            "problems": problems}


def tail(per_pass: list) -> tuple:
    """(value, label) of request times grouped by pass: the highest
    percentile with at least TAIL_BEYOND requests of one pass beyond it,
    over the requests of all passes, so that the percentile is the same
    whatever the number of passes; or, when a pass has too few requests,
    the median over passes of the maximum."""
    n = len(per_pass[0])
    if n <= TAIL_BEYOND:
        return statistics.median(max(ts) for ts in per_pass), (
            f"max of n={n} per pass, median over {len(per_pass)} passes: too "
            f"few requests for a percentile with {TAIL_BEYOND} beyond it")
    ordered = sorted(t for ts in per_pass for t in ts)
    share = (n - TAIL_BEYOND) / n
    return ordered[math.ceil(share * len(ordered)) - 1], (
        f"p{100 * share:.1f} ({TAIL_BEYOND} beyond it in a pass of n={n}) "
        f"of all n={len(ordered)} requests of {len(per_pass)} passes")


def measure(workload, seconds: float) -> list:
    """Repeat passes while the next one is expected to end in time."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(workload, len(passes), probe=True))
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def end_to_end(passes: list, setup: list) -> tuple:
    med = statistics.median
    scaled_tail, tail_label = tail([p["scaled_times"] for p in passes])
    speeds = [p["speed"] for p in passes]
    metrics = {
        "setup_s": (med([t * v for t, v in zip(*setup)]), "s"),
        "wall_s": (med([p["wall_s"] * p["speed"] for p in passes]), "s"),
        "verdict_p50_s": (med([med(p["scaled_times"]) for p in passes]), "s"),
        "verdict_tail_s": (scaled_tail, "s"),
        "cpu_s": (med([p["cpu_s"] * p["speed"] for p in passes]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    at_speed = (f"at reference speed, dense requests raw; raw {{:.6g}} s, "
                f"pass speed {min(speeds):.3g}..{max(speeds):.3g}")
    notes = {
        "setup_s": f"median of {len(setup[0])} fresh interpreters, at "
                   f"reference speed; raw {med(setup[0]):.6g} s",
        "wall_s": f"median over {len(passes)} passes, " + at_speed.format(
            med([p["wall_s"] for p in passes])),
        "verdict_p50_s": "median per pass, then over passes, "
                         + at_speed.format(med([med(p["times"])
                                                for p in passes])),
        "verdict_tail_s": f"{tail_label}, "
                          + at_speed.format(tail([p["times"]
                                                  for p in passes])[0]),
        "cpu_s": "user+sys of this process per pass, BLAS threads included, "
                 + at_speed.format(med([p["cpu_s"] for p in passes])),
        "peak_rss_mb": "peak resident set of this process",
    }
    return metrics, notes


def per_layer(workload, seed: int) -> tuple:
    """Pass 0 untraced, with spans, then with counters."""
    from tracing import LAYER_METRICS, NOTES, Counts, Spans
    plain = run_pass(workload, 0)
    spans = Spans()
    spans.install()
    try:
        traced = run_pass(workload, 0, spans)
    finally:
        spans.restore()
    counts = Counts(seed)
    counts.install()
    try:
        counted = run_pass(workload, 0, counts)
    finally:
        counts.restore()

    metrics = {}
    for name, (unit, _, _) in LAYER_METRICS.items():
        if name.endswith(".self_s"):
            value = spans.self_s.get(name[:-len(".self_s")], 0.0)
        else:
            value = spans.sizes.get(name, counts.counts.get(name, 0))
        metrics[name] = (value, unit)
    metrics["enveloping.norm_cache.entries"] = (counts.max_entries, "count")
    metrics["enveloping.norm_cache.hit_ratio"] = (counts.hit_ratio(), "ratio")
    metrics["scalars.Scalar.mul.ns"] = (counts.scalar_mul_ns(), "ns")
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"],
                                       "ratio")

    inside = sum(traced["times"])
    own = traced["wall_s"] - inside
    gap = traced["wall_s"] - (spans.attributed_s() + own)
    slack = SELF_CHECK_SLACK[0] * traced["wall_s"] \
        + SELF_CHECK_SLACK[1] * traced["attempted"]
    notes = dict(NOTES)
    notes["enveloping.norm_cache.hit_ratio"] += (
        f" (base: {counts.counts['enveloping.normal_order.calls']} calls)")
    notes["self_check"] = (
        f"layers' self_s {spans.attributed_s():.6f} s + benchmark's own "
        f"{own:.6f} s vs traced wall_s {traced['wall_s']:.6f} s: "
        f"gap {gap:.6f} s, slack {slack:.6f} s")
    return metrics, notes, [plain, traced, counted], abs(gap) <= slack


# -- entry points --------------------------------------------------------------

def load_contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text())


def check_contract(contract: dict) -> None:
    """BENCHMARK.json and the tables here must name the same metrics."""
    from tracing import LAYER_METRICS
    from workloads import WORKLOADS
    want = {m["name"]: (m["unit"], m["better"]) for m in contract["per_layer"]}
    have = {k: v[:2] for k, v in LAYER_METRICS.items()}
    if want != have:
        raise BenchError("per_layer in BENCHMARK.json differs from tracing.py")
    if {w["name"] for w in contract["workloads"]} != set(WORKLOADS):
        raise BenchError("workloads in BENCHMARK.json differ from workloads.py")


def run_one(args, package: Path) -> int:
    from tracing import LAYER_METRICS
    from workloads import WORKLOADS
    prov = provenance(package)
    setup = setup_times() if not args.trace else None
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as spec_dir:
        workload = WORKLOADS[args.workload](args.seed, spec_dir)
        if args.trace:
            metrics, notes, passes, self_check = per_layer(workload, args.seed)
        else:
            passes = measure(workload, args.seconds)
            metrics, notes = end_to_end(passes, setup)
            self_check = True

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    correct = wrong == 0 and failed == 0 and self_check
    w = args.workload
    print(f"# {w}: {workload.why}")
    print("# provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"# passes={len(passes)} requests/pass={passes[0]['attempted']} "
          f"attempted={attempted}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        target = LAYER_METRICS.get(name, (None, None, ""))[2]
        extra = "; ".join(x for x in (note, target and f"moves {target}") if x)
        print(f"{w} {name} = {value:.6g} {unit}" + (f"  ({extra})" if extra else ""))
    print(f"{w} failed_share = {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"{w} wrong_verdicts = {wrong}")
    if "self_check" in notes:
        print(f"{w} self_check {'ok' if self_check else 'FAILED'}: "
              f"{notes['self_check']}")
    for p in passes:
        for line in p["problems"]:
            print(f"{w} WRONG pass {p['k']}: {line}")

    record = {"workload": w, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": prov, "correct": correct,
              "attempted": attempted, "failed": failed, "wrong": wrong,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "notes": notes,
              "passes": [{"k": p["k"], "wall_s": p["wall_s"],
                          "cpu_s": p["cpu_s"], "speed": p["speed"],
                          "problems": p["problems"],
                          "requests": list(zip(p["labels"], p["times"]))}
                         for p in passes]}
    (OUT / f"{w}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a child process of its own, one after another."""
    from workloads import WORKLOADS
    worst = 0
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) \
            else {"error": proc.returncode}
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        from workloads import WORKLOADS
        check_contract(load_contract())
        if args.workload != "all" and args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose "
                             f"from {sorted(WORKLOADS)} or all")
        package = import_package()
        if args.workload == "all":
            return run_all(args)
        return run_one(args, package)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
