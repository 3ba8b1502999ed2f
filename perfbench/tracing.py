"""Per-layer measurement from outside the program.

The package is instrumented only from here, by rebinding its public
functions and methods to wrappers for the length of one pass.  ``cli``
imports names directly (``from .enveloping import env_product``), so a
function is rebound in every ``ncspacetime`` module namespace that holds
it, and a method under every class attribute that holds it (``__mul__``
and ``__rmul__`` are the same function).

Two instruments, each used for its own pass over the same requests:

* ``Spans`` times the layer boundaries.  Each wrapped call is a span; its
  self time is its duration minus the time of the spans it caused.
  Recursive or innermost calls (``normal_order``, the scalar operators,
  ``Expr.evaluate``) get no span, so that wrapper cost does not distort
  the self times.
* ``Counts`` counts those innermost calls instead, and the rewrite
  engine's cache misses, and keeps a seeded sample of ``Scalar``
  multiplication operands to time after the pass with the wrappers gone.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path): each gets a span named "<module>.<path>"
SPANS = (
    ("cli", "main"),
    ("specfile", "load_specfile"), ("specfile", "SpecFile.build"),
    ("report", "Report.dumps"),
    ("algebra", "build_deformed_algebra"), ("algebra", "jacobi_defect"),
    ("enveloping", "casimir"), ("enveloping", "centrality_defect"),
    ("enveloping", "env_product"), ("enveloping", "env_commutator"),
    ("enveloping", "ad_generator"),
    ("diffcalc", "derivation_set"), ("diffcalc", "exterior_derivative"),
    ("diffcalc", "differential_of_generator"),
    ("connections", "curvature_commutator"),
    ("connections", "field_strength"),
    ("clifford", "finkelstein_operators"), ("clifford", "closure_report"),
    ("expressions", "DiffOperator.commutator"),
    ("reps", "build_rep_so32"), ("reps", "make_sample_points"),
    ("reps", "verify_relations"), ("reps", "check_rep_exact"),
    ("minilang", "parse_element"), ("minilang", "format_env"),
)

# Per-layer metrics: name -> (unit, better, what it should move).
LAYER_METRICS = {
    "scalars.QQi.mul.calls": ("count", "lower", "wall_s on symbolic and commute-stream; none on cell"),
    "scalars.Scalar.mul.calls": ("count", "lower", "wall_s on symbolic and commute-stream; none on cell"),
    "scalars.Scalar.add.calls": ("count", "lower", "wall_s on symbolic and commute-stream; none on cell"),
    "scalars.Scalar.mul.ns": ("ns", "lower", "wall_s on symbolic and commute-stream; none on cell"),
    "enveloping.casimir.self_s": ("s", "lower", "wall_s on symbolic"),
    "enveloping.centrality_defect.self_s": ("s", "lower", "wall_s on symbolic"),
    "enveloping.env_product.self_s": ("s", "lower", "wall_s on symbolic; verdict_tail_s on commute-stream"),
    "enveloping.env_commutator.self_s": ("s", "lower", "verdict_p50_s and verdict_tail_s on commute-stream"),
    "enveloping.ad_generator.self_s": ("s", "lower", "wall_s on symbolic"),
    "enveloping.normal_order.calls": ("count", "lower", "wall_s on symbolic; verdict_tail_s on commute-stream"),
    "enveloping.norm_cache.entries": ("count", "lower", "peak_rss_mb on commute-stream"),
    "enveloping.norm_cache.hit_ratio": ("ratio", "higher", "wall_s on symbolic; verdict_tail_s on commute-stream"),
    "diffcalc.derivation_set.self_s": ("s", "lower", "wall_s on symbolic"),
    "diffcalc.exterior_derivative.self_s": ("s", "lower", "wall_s on symbolic"),
    "diffcalc.differential_of_generator.self_s": ("s", "lower", "wall_s on symbolic"),
    "connections.curvature_commutator.self_s": ("s", "lower", "wall_s on symbolic"),
    "connections.field_strength.self_s": ("s", "lower", "wall_s on symbolic"),
    "algebra.build_deformed_algebra.self_s": ("s", "lower", "wall_s on symbolic"),
    "algebra.jacobi_defect.self_s": ("s", "lower", "wall_s on symbolic"),
    "clifford.finkelstein_operators.self_s": ("s", "lower", "wall_s, cpu_s and peak_rss_mb on cell only"),
    "clifford.closure_report.self_s": ("s", "lower", "wall_s, cpu_s and peak_rss_mb on cell only"),
    "clifford.matrix_dim": ("count", "lower", "wall_s, cpu_s and peak_rss_mb on cell only"),
    "clifford.dense_flops": ("flop", "lower", "wall_s and cpu_s on cell only"),
    "clifford.dense_bytes": ("B", "lower", "peak_rss_mb and wall_s on cell only"),
    "expressions.Expr.evaluate.calls": ("count", "lower", "wall_s on sampled only"),
    "expressions.DiffOperator.commutator.self_s": ("s", "lower", "wall_s on sampled only"),
    "reps.build_rep_so32.self_s": ("s", "lower", "wall_s on sampled only"),
    "reps.verify_relations.self_s": ("s", "lower", "wall_s on sampled only"),
    "reps.check_rep_exact.self_s": ("s", "lower", "wall_s on sampled only"),
    "reps.make_sample_points.points": ("count", "higher", "wall_s on sampled only (fewer points is less checking, not a gain)"),
    "minilang.parse_element.self_s": ("s", "lower", "verdict_p50_s on commute-stream"),
    "minilang.format_env.self_s": ("s", "lower", "verdict_p50_s on commute-stream"),
    "specfile.load_specfile.self_s": ("s", "lower", "wall_s on every workload (small)"),
    "specfile.SpecFile.build.self_s": ("s", "lower", "wall_s on every workload (small)"),
    "report.Report.dumps.self_s": ("s", "lower", "wall_s on every workload (small)"),
    "report.Report.dumps.bytes": ("B", "lower", "wall_s on every workload (small)"),
    "cli.main.self_s": ("s", "lower", "wall_s on every workload (small; includes the numpy oracle loops of the check_* helpers)"),
    "trace.overhead_ratio": ("ratio", "lower", "none: traced wall_s / untraced wall_s of the same pass"),
}

NOTES = {
    "clifford.dense_flops": "computed from matrix_dim, not measured: "
                            "pairs * 2 complex matmuls * 8 d^3",
    "clifford.dense_bytes": "computed from matrix_dim, not measured: "
                            "pairs * 2 matmuls * 3 operands * 16 d^2",
    "enveloping.norm_cache.hit_ratio": "1 - new cache entries / "
                                       "normal_order calls",
    "enveloping.norm_cache.entries": "largest total cache size of the "
                                     "engines one request used",
    "scalars.Scalar.mul.ns": "time per product over operand pairs sampled "
                             "from the counting pass, wrappers removed",
}

SCALAR_SAMPLE_STRIDE = 97
SCALAR_SAMPLE_CAP = 2000


def _modules():
    return [m for name, m in list(sys.modules.items())
            if name == "ncspacetime" or name.startswith("ncspacetime.")]


class _Patcher:
    """Rebinds package functions and methods; undone by restore()."""

    def __init__(self):
        self._undo = []

    def resolve(self, module: str, path: str):
        mod = sys.modules[f"ncspacetime.{module}"]
        if "." in path:
            cls_name, attr = path.split(".")
            return getattr(mod, cls_name), vars(getattr(mod, cls_name))[attr]
        return None, getattr(mod, path)

    def rebind(self, owner, original, replacement) -> None:
        """Every module binding (functions) or class attribute (methods)
        that holds ``original`` now holds ``replacement``."""
        holders = [owner] if owner is not None else _modules()
        for holder in holders:
            for key, val in list(vars(holder).items()):
                if val is original:
                    setattr(holder, key, replacement)
                    self._undo.append((holder, key, original))

    def restore(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()


class Spans(_Patcher):
    """Self time per wrapped function, plus what the layers report about
    their own size (matrix dimension, sample points, report bytes)."""

    def __init__(self):
        super().__init__()
        self.self_s = defaultdict(float)
        self.sizes = Counter()
        self._dim = 0
        self._stack = [0.0]  # child time of each open span; [0] = root

    def install(self) -> None:
        observers = {
            "clifford.finkelstein_operators": self._saw_operators,
            "clifford.closure_report": self._saw_closure,
            "reps.make_sample_points": self._saw_points,
            "report.Report.dumps": self._saw_report,
        }
        for module, path in SPANS:
            name = f"{module}.{path}"
            owner, fn = self.resolve(module, path)
            self.rebind(owner, fn, self._wrap(name, fn, observers.get(name)))

    def _wrap(self, name, fn, observe):
        stack, self_s = self._stack, self.self_s

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if observe is not None:
                    observe(out)
                return out
            finally:
                dt = perf_counter() - t0
                self_s[name] += dt - stack.pop()
                stack[-1] += dt
        return span

    def _saw_operators(self, ops) -> None:
        self._dim = next(iter(ops.values())).shape[0]
        self.sizes["clifford.matrix_dim"] = max(
            self.sizes["clifford.matrix_dim"], self._dim)

    def _saw_closure(self, rows) -> None:
        d = self._dim
        self.sizes["clifford.dense_flops"] += len(rows) * 2 * 8 * d ** 3
        self.sizes["clifford.dense_bytes"] += len(rows) * 2 * 3 * 16 * d ** 2

    def _saw_points(self, points) -> None:
        self.sizes["reps.make_sample_points.points"] += len(points)

    def _saw_report(self, text) -> None:
        self.sizes["report.Report.dumps.bytes"] += len(text)

    def after_request(self) -> None:
        pass

    def attributed_s(self) -> float:
        """Sum of the self times of every span."""
        return sum(self.self_s.values())


class Counts(_Patcher):
    """Calls of the innermost operations and rewrite-cache behaviour."""

    def __init__(self, seed: int):
        super().__init__()
        self.counts = Counter()
        self.misses = 0
        self.max_entries = 0
        self.scalar_sample = []
        self._offset = seed % SCALAR_SAMPLE_STRIDE
        self._engines = {}

    def install(self) -> None:
        from ncspacetime.expressions import Expr
        for module, path, name in (
                ("scalars", "QQi.__mul__", "scalars.QQi.mul.calls"),
                ("scalars", "Scalar.__add__", "scalars.Scalar.add.calls")):
            owner, fn = self.resolve(module, path)
            self.rebind(owner, fn, self._count(name, fn))
        owner, fn = self.resolve("scalars", "Scalar.__mul__")
        self.rebind(owner, fn, self._scalar_mul(fn))
        owner, fn = self.resolve("enveloping", "RewriteEngine.normal_order")
        self.rebind(owner, fn, self._normal_order(fn))
        _, fn = self.resolve("enveloping", "get_engine")
        self.rebind(None, fn, self._get_engine(fn))
        classes = [Expr]
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            fn = vars(cls).get("evaluate")
            if fn is not None:
                self.rebind(cls, fn,
                            self._count("expressions.Expr.evaluate.calls", fn))

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _scalar_mul(self, fn):
        counts, sample = self.counts, self.scalar_sample
        name = "scalars.Scalar.mul.calls"

        def counted(a, b):
            n = counts[name] = counts[name] + 1
            if n % SCALAR_SAMPLE_STRIDE == self._offset and \
                    len(sample) < SCALAR_SAMPLE_CAP:
                sample.append((a, b))
            return fn(a, b)
        return counted

    def _normal_order(self, fn):
        counts = self.counts
        name = "enveloping.normal_order.calls"

        def counted(engine, word):
            counts[name] += 1
            if word not in engine._norm_cache:
                self.misses += 1
            return fn(engine, word)
        return counted

    def _get_engine(self, fn):
        engines = self._engines

        def recorded(spec):
            engine = fn(spec)
            engines[id(engine)] = engine
            return engine
        return recorded

    def after_request(self) -> None:
        entries = sum(len(e._norm_cache) for e in self._engines.values())
        self.max_entries = max(self.max_entries, entries)
        self._engines.clear()

    def hit_ratio(self) -> float:
        calls = self.counts["enveloping.normal_order.calls"]
        return 1.0 - self.misses / calls if calls else 0.0

    def scalar_mul_ns(self, repeats: int = 5) -> float:
        """Median time per Scalar product over the sampled operands; call
        after restore()."""
        if not self.scalar_sample:
            return 0.0
        per_op = []
        for _ in range(repeats):
            t0 = perf_counter()
            for a, b in self.scalar_sample:
                a * b
            per_op.append((perf_counter() - t0) / len(self.scalar_sample))
        return statistics.median(per_op) * 1e9
