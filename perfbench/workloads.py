"""The four benchmark workloads.

Each workload turns the benchmark seed into passes of requests.  A pass is
the workload's batch: its composition (how many requests of each kind) is
the same for every seed and every pass, so per-pass statistics compare
across runs; the seed only chooses which signatures, parameters, words and
orderings fill it.  Every request carries a check against an answer that
does not come from the code under test: a known verdict (clean tables pass,
the two documented mutations fail, off-locus cells fail), or the matrix
oracle of ``oracle.py``.

Every workload is a closed loop with one client: a request is sent only
after the previous one has returned.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from oracle import GENERATOR_NAMES, MatrixEvaluator, commutator_residual

SIGNATURES = ((1, 1), (1, -1), (-1, 1), (-1, -1))  # (eps4, eps5)
CLOSURE_TOL = 1e-10
COMMUTE_TOL = 1e-9


@dataclass
class Request:
    label: str
    run: Callable[[], object]
    # None when the output agrees with the independent answer, else why not
    check: Callable[[object], str | None]
    # exit code of a CLI request that is not a failure; None for library calls
    expect_rc: int | None = None
    # interpreter-bound: its time is reported at the speed of
    # run.reference_slice; False for dense numpy, whose time stays raw
    scaled: bool = True


def run_cli(argv: list) -> tuple:
    """ncst in-process; (exit code, captured stdout)."""
    from ncspacetime import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def _statuses(text: str) -> dict:
    report = json.loads(text)
    return {c["name"]: c for c in report["checks"]}


def _expect_pass(*names):
    """Check: the named checks (default: every check) have status pass."""
    def check(text):
        checks = _statuses(text)
        want = names or tuple(checks)
        bad = [n for n in want if checks.get(n, {}).get("status") != "pass"]
        return f"not passing: {bad}" if bad else None
    return check


def _expect_fail(name):
    def check(text):
        status = _statuses(text).get(name, {}).get("status")
        return None if status == "fail" else f"{name} is {status}, not fail"
    return check


def _sig_doc(sig) -> dict:
    return {"eps4": sig[0], "eps5": sig[1]}


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, spec_dir: str):
        self.seed = seed
        self.spec_dir = spec_dir
        self.rng = random.Random(f"{self.name}:{seed}")

    def pass_rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:pass{k}")

    def spec(self, label: str, doc: dict) -> str:
        path = os.path.join(self.spec_dir, f"{self.name}-{label}.json")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
        return path

    def cli(self, label, argv, check, expect_rc=0, scaled=True) -> Request:
        return Request(label, lambda: run_cli(argv), check, expect_rc, scaled)

    def requests(self, k: int) -> list:
        raise NotImplementedError


class Symbolic(Workload):
    name = "symbolic"
    why = ("exact algebra end to end: scalars, cold rewrite engines, "
           "derivation calculus, connections, Jacobi; no dense linear algebra")

    def __init__(self, seed, spec_dir):
        super().__init__(seed, spec_dir)
        self.sigs = self.rng.sample(SIGNATURES, 4)

    def clean(self, sig, regime):
        return self.spec(f"{sig[0]}{sig[1]}-{regime}",
                         {"signature": _sig_doc(sig), "regime": regime})

    def requests(self, k):
        """Two (signature, regime) cells of the 4 x 2 grid; four
        consecutive passes cover the grid once."""
        rng = self.pass_rng(k)
        first, second = self.sigs[(2 * k) % 4], self.sigs[(2 * k + 1) % 4]
        regimes = ("full", "tangent") if (k // 2) % 2 == 0 else \
            ("tangent", "full")
        reqs = []
        for sig, regime in zip((first, second), regimes):
            spec = self.clean(sig, regime)
            tag = f"{sig}/{regime}"
            reqs.append(self.cli(f"verify --deep {tag}",
                                 ["--spec", spec, "verify", "--deep"],
                                 _expect_pass()))
            reqs.append(self.cli(f"curvature --zero {tag}",
                                 ["--spec", spec, "curvature", "--zero"],
                                 _expect_pass("curvature_decomposition")))
            reqs.append(self.cli(f"casimir 2 --deep {tag}",
                                 ["--spec", spec, "casimir", "2", "--deep"],
                                 _expect_pass("casimir_c2_centrality")))
            for g in rng.sample(GENERATOR_NAMES, len(GENERATOR_NAMES)):
                reqs.append(self.cli(f"diff {g} {tag}",
                                     ["--spec", spec, "diff", g],
                                     _expect_pass("differential")))
        # casimir ignores the regime; four passes cover every signature
        c3_sig = self.sigs[k % 4]
        spec = self.clean(c3_sig, ("full", "tangent")[(k // 4) % 2])
        reqs.append(self.cli(f"casimir 3 --deep {c3_sig}",
                             ["--spec", spec, "casimir", "3", "--deep"],
                             _expect_pass("casimir_c3_centrality")))
        # the two mutated tables the test suite documents, in turn
        sig = self.sigs[k % 4]
        if k % 2 == 0:
            spec = self.spec(f"{sig[0]}{sig[1]}-p0x0", {
                "signature": _sig_doc(sig), "regime": "full",
                "structure_overrides": {"[p0,x0]": "0"}})
            label = f"verify [p0,x0]=0 {sig}"
        else:
            spec = self.spec(f"{sig[0]}{sig[1]}-xIm", {
                "signature": _sig_doc(sig), "regime": "tangent",
                "structure_overrides": {f"[x{mu},Im]": "0"
                                        for mu in range(4)}})
            label = f"verify [x,Im]=0 {sig}"
        reqs.append(self.cli(label, ["--spec", spec, "verify"],
                             _expect_fail("jacobi_identity"), expect_rc=1))
        rng.shuffle(reqs)
        return reqs


class CommuteStream(Workload):
    name = "commute-stream"
    why = ("random commutators on one long-lived spec: little word reuse "
           "and a normal-order cache that is never dropped")
    PAIRS = 400
    MAX_DEGREE = 4
    N_TERMS = 4

    def __init__(self, seed, spec_dir):
        super().__init__(seed, spec_dir)
        self.sig = self.rng.choice(SIGNATURES)
        self.oracle = None

    def element(self, rng, degrees) -> str:
        """Random normal-ordered element with Gaussian-integer coefficients,
        drawn like the package's random_env_element but here, so that the
        inputs do not change with the code under test."""
        terms = []
        for _ in range(self.N_TERMS):
            deg = next(degrees)
            word = sorted(rng.randrange(len(GENERATOR_NAMES))
                          for _ in range(deg))
            re_, im_ = rng.randrange(-4, 5), rng.randrange(-4, 5)
            terms.append("*".join([f"({re_}{im_:+d}*i)"]
                                  + [GENERATOR_NAMES[g] for g in word]))
        return " + ".join(terms)

    def requests(self, k):
        """A stream of PAIRS pairs of its own on a fresh spec.  The tail
        of one stream depends on its words; the median over passes of
        streams drawn apart averages that out."""
        from ncspacetime import enveloping, minilang
        from ncspacetime.algebra import (GEN_NAMES, Signature,
                                         build_deformed_algebra, physical_rep)
        sig = Signature(*self.sig)
        if self.oracle is None:
            rep = physical_rep(sig, ell=1.0, r_inv=0.5)
            self.oracle = MatrixEvaluator(
                {GEN_NAMES[g]: m for g, m in rep.items()}, sig.eps5)
        rng = self.pass_rng(k)
        # term degrees 0..MAX_DEGREE in equal numbers, shuffled once for
        # every seed and pass: the seed picks the words, the coefficients
        # and the order of the pairs, not the degrees of each pair's terms.
        # The latency tail is set by the pairs of long words; with their
        # count left to the seed, its quartile spread over five seeds was
        # 0.18.
        terms = 2 * self.PAIRS * self.N_TERMS
        degrees = [d % (self.MAX_DEGREE + 1) for d in range(terms)]
        random.Random(f"{self.name}:degrees").shuffle(degrees)
        degrees = iter(degrees)
        spec = build_deformed_algebra(sig, "full")

        def request(a, b):
            def run():
                x = minilang.parse_element(a, spec)
                y = minilang.parse_element(b, spec)
                return minilang.format_env(
                    enveloping.env_commutator(x, y, spec), spec.regime)

            def check(text):
                res = commutator_residual(self.oracle, a, b, text)
                return None if res <= COMMUTE_TOL else f"residual {res:.3g}"
            return Request(f"[{a}, {b}]", run, check)

        reqs = [request(self.element(rng, degrees),
                        self.element(rng, degrees))
                for _ in range(self.PAIRS)]
        rng.shuffle(reqs)
        return reqs


class Cell(Workload):
    name = "cell"
    why = ("dense numpy in clifford (512x512 commutators and a least-squares "
           "fit per pair); almost no exact arithmetic")
    # (chi, phi_cell) with chi * phi_cell * (N - 1) = 1/2 (hbar = 1)
    ON_LOCUS = {3: (("1/2", "1/2"), ("1", "1/4"), ("1/4", "1"),
                    ("2", "1/8"), ("1/2*i", "-1/2*i")),
                2: (("1/2", "1"), ("1", "1/2"), ("1/4", "2"),
                    ("2", "1/4"), ("1/2*i", "-i"))}
    OFF_LOCUS = (("1/2", "1/2"), ("1", "1"), ("1/4", "1/4"), ("3", "1/2"))

    def __init__(self, seed, spec_dir):
        super().__init__(seed, spec_dir)
        self.sigs = self.rng.sample(SIGNATURES, 4)

    def cell(self, n, chi, phi, sig, expect_rc):
        spec = self.spec(f"{n}-{chi}-{phi}-{sig[0]}{sig[1]}".replace("/", "_"),
                         {"signature": _sig_doc(sig), "finkelstein": {
                             "n_cells": n, "chi": chi, "phi_cell": phi}})
        if expect_rc == 0:
            def check(text):
                bad = _expect_pass("cell_constraint", "cell_closure")(text)
                worst = _statuses(text)["cell_closure"]["max_residual"]
                if bad is None and not worst <= CLOSURE_TOL:
                    bad = f"closure residual {worst}"
                return bad
        else:
            check = _expect_fail("cell_constraint")
        # N=2 builds its 64x64 operators in exact arithmetic and is
        # interpreter-bound.  N=3 spends nine tenths of its time in 512x512
        # BLAS products and array copies, which the interpreter slice does
        # not track (interleaved, their speeds correlated at 0.5 and the
        # slice drifted four times as much), so its time stays raw.
        return self.cli(f"clifford N={n} chi={chi} phi_cell={phi} {sig}",
                        ["--spec", spec, "clifford"], check, expect_rc,
                        scaled=n < 3)

    def requests(self, k):
        """One N=3 and eight N=2 requests on the locus (each signature
        twice), and one N=2 request off it.  The median request is then
        the mean of the middle two of the eight N=2 requests."""
        rng = self.pass_rng(k)
        reqs = [self.cell(3, *rng.choice(self.ON_LOCUS[3]),
                          self.sigs[k % 4], 0)]
        for sig in SIGNATURES + SIGNATURES:
            reqs.append(self.cell(2, *rng.choice(self.ON_LOCUS[2]), sig, 0))
        reqs.append(self.cell(2, *rng.choice(self.OFF_LOCUS),
                              rng.choice(SIGNATURES), 1))
        rng.shuffle(reqs)
        return reqs


class Sampled(Workload):
    name = "sampled"
    why = ("per-point Expr.evaluate in expressions and reps, which no other "
           "workload reaches")
    SAMPLES = (100, 120, 140)
    SIGMAS = (0.37, -0.8, 0.5, 1.3, -0.25, 0.9)

    def __init__(self, seed, spec_dir):
        super().__init__(seed, spec_dir)
        self.sigs = self.rng.sample(SIGNATURES, 4)

    def requests(self, k):
        """Three rep so32 requests (100, 120 and 140 samples) and rep 5d
        for two signatures."""
        rng = self.pass_rng(k)
        reqs = []
        for j, samples in enumerate(rng.sample(self.SAMPLES, 3)):
            seed = rng.randrange(1, 2 ** 31)
            sigma = rng.choice(self.SIGMAS)
            eps = (k + j) % 2
            spec = self.spec(f"so32-{seed}", {"rep": {
                "sigma": sigma, "epsilon": eps, "samples": samples,
                "seed": seed}})

            def check(text, seed=seed):
                bad = _expect_pass()(text)
                if bad is None and json.loads(text)["seed"] != seed:
                    bad = "report does not echo the seed"
                return bad
            reqs.append(self.cli(
                f"rep so32 sigma={sigma} eps={eps} n={samples} seed={seed}",
                ["--spec", spec, "--seed", str(seed), "rep", "so32"], check))
        for sig in (self.sigs[(2 * k) % 4], self.sigs[(2 * k + 1) % 4]):
            spec = self.spec(f"5d-{sig[0]}{sig[1]}", {"signature": _sig_doc(sig)})
            reqs.append(self.cli(f"rep 5d {sig}", ["--spec", spec, "rep", "5d"],
                                 _expect_pass("rep_5d_brackets")))
        rng.shuffle(reqs)
        return reqs


WORKLOADS = {w.name: w for w in (Symbolic, CommuteStream, Cell, Sampled)}
