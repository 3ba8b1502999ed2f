"""Explicit representations of the space-time algebras.

* build_rep_5d: the five-variable differential-operator realization of the
  tangent algebra with exact polynomial coefficients (the deformation
  length is carried as an extra polynomial symbol, so every bracket check
  is an exact operator identity).
* build_rep_so32: the ten trigonometric-coefficient operators on the cone
  contour functions of (phi1, phi2, theta1).  exact_rep_so32 carries them
  into the exact trig-Laurent ring (expressions.TrigLaurent), where
  check_rep_exact decides the brackets through algebra.sweep: the pairs
  on the target's generating set first, every pair only if one of those
  fails; verify_relations samples every bracket numerically and is kept
  as the test oracle.
* finite_boost_14: the finite hyperbolic rotation acting on contour
  functions, with branch recovery through the cone embedding.
* homogeneous_extension / ConeChart: degree-sigma homogeneous extensions
  and the two cone charts.

Index conventions (recorded): a lower coordinate derivative is
d/dxi_mu = eta_{mu mu} d/dxi^mu with eta = (1,-1,-1,-1); the lower-index
generators of the cone representation are converted to upper-index ones by
the same diagonal metric before any bracket check.

numpy is imported only by the numeric checks (verify_relations and
ConeChart.jacobian_determinant), on first use, and by evaluating the
sin/cos nodes of an Expr.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .algebra import (IM, M_IDS, M_PAIRS, P_IDS, X_IDS, LieAlgebraSpec,
                      Signature, eta4, m_id, sweep)
from .expressions import (Const, Cos, DiffOperator, Expr, Mul, Poly, Pow,
                          Sin, TrigLaurent, Var, stack_points)
from .scalars import QQI_I, Scalar, powers

XI_VARS = ("xi0", "xi1", "xi2", "xi3", "xi4")
POLY_VARS = XI_VARS + ("ell",)
CONE_VARS = ("phi1", "phi2", "theta1")

# Empirically recorded conventions of the finite boost (see the tests):
# d/dt at t=0 equals BOOST_GENERATOR_SIGN * iX1 with sigma replaced by
# BOOST_EXPONENT_FACTOR * sigma in the multiplier exponent.
BOOST_GENERATOR_SIGN = -1
BOOST_EXPONENT_FACTOR = 0.5
# the largest |t| finite_boost_14 accepts
BOOST_T_MAX = 50.0
# make_sample_points keeps a point only where |sin(phi2)| exceeds this
MIN_SIN_PHI2 = 0.1


class BoundaryPointError(ValueError):
    pass


# -- the exact 5-variable representation -------------------------------------

def _pconst(value) -> Poly:
    return Poly.constant(POLY_VARS, value)


def _pvar(name: str) -> Poly:
    return Poly.variable(POLY_VARS, name)


def _pzero() -> Poly:
    return Poly(POLY_VARS)


def build_rep_5d(sig: Signature) -> dict[int, DiffOperator]:
    """Polynomial-coefficient operators realizing the tangent algebra.

    M^{mu nu} = i(xi^mu d/dxi_nu - xi^nu d/dxi_mu)
    x^mu      = xi^mu + i*ell*(xi^mu d/dxi4 - eps4 xi^4 d/dxi_mu)
    p^mu      = i d/dxi_mu
    Im        = 1 + i*ell d/dxi4
    """
    eps4 = sig.eps4
    i = QQI_I
    ell = _pvar("ell")
    rep: dict[int, DiffOperator] = {}
    for k, (mu, nu) in enumerate(M_PAIRS):
        firsts = {
            XI_VARS[nu]: _pconst(i * eta4(nu, nu)) * _pvar(XI_VARS[mu]),
            XI_VARS[mu]: _pconst(-(i * eta4(mu, mu))) * _pvar(XI_VARS[nu]),
        }
        rep[M_IDS[k]] = DiffOperator(POLY_VARS, _pzero(), firsts)
    for mu in range(4):
        firsts = {
            "xi4": _pconst(i) * ell * _pvar(XI_VARS[mu]),
            XI_VARS[mu]: _pconst(-(i * (eps4 * eta4(mu, mu)))) * ell * _pvar("xi4"),
        }
        rep[X_IDS[mu]] = DiffOperator(POLY_VARS, _pvar(XI_VARS[mu]), firsts)
        rep[P_IDS[mu]] = DiffOperator(
            POLY_VARS, _pzero(), {XI_VARS[mu]: _pconst(i * eta4(mu, mu))})
    rep[IM] = DiffOperator(POLY_VARS, _pconst(1), {"xi4": _pconst(i) * ell})
    return rep


def scalar_to_poly(s: Scalar) -> Poly:
    """Scalar with only ell-powers into the polynomial coefficient ring."""
    out = _pzero()
    for key, c in s.terms.items():
        mono = [0] * len(POLY_VARS)
        for name, e in powers(key).items():
            if name != "ell" or e < 0:
                raise ValueError(f"coefficient uses {name}^{e}, "
                                 "not representable in the polynomial ring")
            mono[POLY_VARS.index("ell")] = e
        out = out + Poly(POLY_VARS, {tuple(mono): c})
    return out


def rep_of_element(elem, rep: dict[int, DiffOperator],
                   coeff=scalar_to_poly) -> DiffOperator:
    """Linear combination of representation operators plus a central part.

    coeff maps each Scalar of elem into the operators' coefficient ring; the
    image multiplies each operator coefficient from the left.  Each slot of
    the image is one accumulator, and the image has a first-order slot for
    every slot of an operator it sums, a cancelled one included.
    """
    some = next(iter(rep.values()))
    zeroth = some.zeroth.accumulator()
    firsts = {}
    for word, s in elem.terms.items():
        if word:
            (gid,) = word
            k, op = coeff(s), rep[gid]
            zeroth.add(k, op.zeroth)
            for v, c in op.firsts.items():
                acc = firsts.get(v)
                if acc is None:
                    acc = firsts[v] = some.zeroth.accumulator()
                acc.add(k, c)
    out = zeroth.finish()
    central = elem.terms.get(())
    if central:
        out = out + coeff(central)
    return DiffOperator(some.vars, out,
                        {v: acc.finish() for v, acc in firsts.items()})


def check_rep_exact(rep: dict[int, DiffOperator], target: LieAlgebraSpec,
                    coeff=scalar_to_poly) -> list:
    """All generator pairs (a, b), a < b, in id order, whose operator
    commutator misses the table; the empty list is the exact
    (zero-tolerance) success.  coeff maps the table's scalars into the
    operators' coefficient ring, as for rep_of_element.

    The defect of a is the list of b with a failing bracket [a, b], and
    algebra.sweep takes it on target's generating set first.  Each pair is
    decided at most once per call."""
    ids = sorted(target.basis)
    decided = {}

    def holds(a, b):
        """[rep a, rep b] is the image of [a, b], for a < b."""
        if (a, b) not in decided:
            decided[a, b] = rep[a].commutator(rep[b]) == rep_of_element(
                target.bracket_ids(a, b), rep, coeff)
        return decided[a, b]

    def defect(a):
        return [b for b in ids if b != a and not holds(min(a, b), max(a, b))]

    return [(a, b) for a, failing in sweep(target, defect)
            for b in failing if a < b]


# -- the cone representation -------------------------------------------------

def _v(name: str) -> Var:
    return Var(name)


def build_rep_so32(sigma: float, eps: int = 0) -> dict[int, DiffOperator]:
    """The ten contour operators, keyed by upper-index generator ids.

    The operator table is written for i times the lower-index generators;
    the conversion to the upper-index basis used by the bracket tables is

        X^0 = X_0,  X^k = -X_k,  M^{0k} = M_{k0},  M^{jk} = -M_{jk},

    i.e. index raising by the diagonal metric with the compact rotations
    taken in the opposite orientation (they generate the angle action of
    g^{-1}).  The phi1-derivative term of the M_{20} operator carries the
    sign -sin(theta1)sin(phi1)/sin(phi2), matching the theta-rotated image
    of X_2; with the opposite sign the ten operators do not span a closed
    Lie algebra at all (tests/test_reps.py flips it and checks that 11 of
    the 45 brackets fail).  The parity label eps must be 0 or 1, but no
    operator depends on it, so it changes no check of `rep so32`.
    """
    if eps not in (0, 1):
        raise ValueError("the parity label must be 0 or 1")
    s = Const(float(sigma))
    th, f1, f2 = _v("theta1"), _v("phi1"), _v("phi2")
    sin, cos = Sin, Cos

    def op(zeroth, **firsts):
        return DiffOperator(CONE_VARS, zeroth, firsts)

    csc2 = Pow(sin(f2), -1)
    i_ops_lower = {
        # iX_1
        ("X", 1): op(Mul(s, cos(th), cos(f2)),
                     theta1=Mul(Const(-1), sin(th), cos(f2)),
                     phi2=Mul(Const(-1), cos(th), sin(f2))),
        # iX_2
        ("X", 2): op(Mul(s, cos(th), sin(f2), cos(f1)),
                     theta1=Mul(Const(-1), sin(th), sin(f2), cos(f1)),
                     phi2=Mul(cos(th), cos(f2), cos(f1)),
                     phi1=Mul(Const(-1), cos(th), sin(f1), csc2)),
        # iX_3
        ("X", 3): op(Mul(s, cos(th), sin(f2), sin(f1)),
                     theta1=Mul(Const(-1), sin(th), sin(f2), sin(f1)),
                     phi2=Mul(cos(th), cos(f2), sin(f1)),
                     phi1=Mul(cos(th), cos(f1), csc2)),
        # iX_0
        ("X", 0): op(Const(0), theta1=Const(1)),
        # iM_{12}
        ("M", 1, 2): op(Const(0),
                        phi2=Mul(Const(-1), cos(f1)),
                        phi1=Mul(cos(f2), sin(f1), csc2)),
        # iM_{13}
        ("M", 1, 3): op(Const(0),
                        phi2=Mul(Const(-1), sin(f1)),
                        phi1=Mul(Const(-1), cos(f2), cos(f1), csc2)),
        # iM_{23}
        ("M", 2, 3): op(Const(0), phi1=Const(-1)),
        # iM_{10}
        ("M", 1, 0): op(Mul(s, sin(th), cos(f2)),
                        theta1=Mul(cos(th), cos(f2)),
                        phi2=Mul(Const(-1), sin(th), sin(f2))),
        # iM_{20}
        ("M", 2, 0): op(Mul(s, sin(th), sin(f2), cos(f1)),
                        theta1=Mul(cos(th), sin(f2), cos(f1)),
                        phi2=Mul(sin(th), cos(f2), cos(f1)),
                        phi1=Mul(Const(-1), sin(th), sin(f1), csc2)),
        # iM_{30}
        ("M", 3, 0): op(Mul(s, sin(th), sin(f2), sin(f1)),
                        theta1=Mul(cos(th), sin(f2), sin(f1)),
                        phi2=Mul(sin(th), cos(f2), sin(f1)),
                        phi1=Mul(sin(th), cos(f1), csc2)),
    }
    rep: dict[int, DiffOperator] = {}
    for key, iop in i_ops_lower.items():
        if key[0] == "X":
            mu = key[1]
            sign = eta4(mu, mu)  # X^mu = eta^{mu mu} X_mu
            gid = X_IDS[mu]
        else:
            a, b = key[1], key[2]
            if 0 in (a, b):
                sign = eta4(a, a) * eta4(b, b)
            else:
                sign = -1  # compact rotations: opposite orientation
            if a > b:
                a, b = b, a
                sign = -sign
            gid, _ = m_id(a, b)
        rep[gid] = iop.map_coeffs(
            lambda c, s=sign: Mul(Const(complex(0, -1) * s), c))
    return rep


def exact_rep_so32(rep: dict[int, DiffOperator]) -> dict[int, DiffOperator]:
    """The operators of build_rep_so32 with their coefficient trees read
    exactly into the trig-Laurent ring over the contour angles."""
    return {gid: op.map_coeffs(lambda c: TrigLaurent.from_expr(CONE_VARS, c))
            for gid, op in rep.items()}


def scalar_to_trig(s: Scalar) -> TrigLaurent:
    """A constant Scalar as a constant of the trig-Laurent ring."""
    return TrigLaurent.constant(CONE_VARS, s.constant_value())


def make_test_functions(seed: int, count: int = 5) -> list[Expr]:
    """Seeded trigonometric polynomials in the three contour angles."""
    from .expressions import Add
    rng = random.Random(seed)
    funcs = []
    for _ in range(count):
        terms = []
        for _ in range(rng.randint(2, 4)):
            factors = [Const(rng.randint(-3, 3) or 1)]
            for var in CONE_VARS:
                deg = rng.randint(0, 3)
                if deg:
                    trig = Sin if rng.random() < 0.5 else Cos
                    factors.append(Pow(trig(Var(var)), deg)
                                   if deg > 1 else trig(Var(var)))
            terms.append(Mul(*factors))
        funcs.append(Add(*terms))
    return funcs


def make_sample_points(seed: int, count: int = 120) -> list[dict]:
    """Seeded chart points avoiding the sin(phi2) coordinate degeneracy."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        pt = {"phi1": rng.uniform(0, 2 * math.pi),
              "phi2": rng.uniform(0, math.pi),
              "theta1": rng.uniform(0, 2 * math.pi)}
        if abs(math.sin(pt["phi2"])) > MIN_SIN_PHI2:
            pts.append(pt)
    return pts


def verify_relations(rep: dict[int, DiffOperator], target: LieAlgebraSpec,
                     points: list[dict], funcs: list[Expr]) -> dict:
    """Max normalized residual per generator pair, numerically sampled.

    Residuals are |([A,B] - rep(bracket)) f(point)| / max(1, |f(point)|);
    each coefficient tree is evaluated once, on arrays holding every point
    (a constant tree broadcasts), and reused across the test functions.  A
    pair whose residual is not finite at some point reports inf.
    """
    import numpy as np
    ids = sorted(k for k in rep if k in target.basis)
    variables = next(iter(rep.values())).vars
    env = stack_points(points)
    fdata = [(f.evaluate(env), {v: f.diff(v).evaluate(env) for v in variables})
             for f in funcs]
    report = {}
    for a_pos, a in enumerate(ids):
        for b in ids[a_pos + 1:]:
            lhs = rep[a].commutator(rep[b])
            rhs = rep_of_element(target.bracket_ids(a, b), rep,
                                 lambda s: Const(complex(s.evaluate({}))))
            diff_op = lhs.sub(rhs)
            z = diff_op.zeroth.evaluate(env)
            firsts = {v: c.evaluate(env) for v, c in diff_op.firsts.items()}
            tops = []
            for vals, dvals in fdata:
                val = z * vals
                for v, arr in firsts.items():
                    val = val + arr * dvals[v]
                tops.append(float(np.max(np.abs(val)
                                         / np.maximum(1.0, np.abs(vals)))))
            report[(a, b)] = max_residual(tops)
    return report


def max_residual(residuals) -> float:
    """Largest residual, 0.0 for none; a NaN counts as inf (max() would
    drop it, and a check must not pass on a residual it cannot measure)."""
    return max((math.inf if math.isnan(r) else r for r in residuals),
               default=0.0)


# -- finite boost and homogeneity --------------------------------------------

def boost_14_point(t: float, phi1: float, phi2: float,
                   theta1: float) -> tuple[float, float, float, float]:
    """Transformed contour point and the scale |a| of the boosted ray.

    The new cosines follow the printed fractions; the sines are recovered
    from the boosted embedding coordinates (y2, y3, y4 scale by 1/|a|),
    which fixes the angle branches.
    """
    u, v = math.cos(phi2), math.cos(theta1)
    ch, sh = math.cosh(t), math.sinh(t)
    a = math.sqrt(math.sin(theta1) ** 2 + (v * ch - u * sh) ** 2)
    if a < 1e-300:
        raise BoundaryPointError("boosted ray collapses; point is singular")
    cos_phi2 = (u * ch - v * sh) / a
    cos_theta1 = (v * ch - u * sh) / a
    sin_phi2 = math.sin(phi2) / a
    sin_theta1 = math.sin(theta1) / a
    if abs(cos_phi2) > 1 + 1e-12 or (sin_phi2 == 0 and abs(cos_phi2) >= 1):
        raise BoundaryPointError("cosine branch ambiguous at |cos| = 1")
    phi2p = math.atan2(sin_phi2, cos_phi2)
    theta1p = math.atan2(sin_theta1, cos_theta1) % (2 * math.pi)
    return phi1, phi2p, theta1p, a


def finite_boost_14(t: float, sigma: float, f):
    """Hyperbolic rotation acting on contour functions.

    Returns the transformed function on (phi1, phi2, theta1):
    |a|^{sigma/2} * f at the transformed angles; phi1 is untouched.
    """
    if abs(t) > BOOST_T_MAX:
        raise ValueError("boost parameter outside the configured range")
    if t == 0.0:
        return lambda phi1, phi2, theta1: f(phi1, phi2, theta1)

    def transformed(phi1: float, phi2: float, theta1: float) -> complex:
        p1, p2, th, a = boost_14_point(t, phi1, phi2, theta1)
        try:
            scale = a ** (sigma / 2.0)
        except OverflowError:  # huge finite sigma
            scale = math.inf
        return scale * f(p1, p2, th)

    return transformed


@dataclass(frozen=True)
class HomogeneitySpec:
    """Degree and parity character of a homogeneous function space."""

    sigma: float
    eps: int = 0

    def __post_init__(self):
        if self.eps not in (0, 1):
            raise ValueError("parity must be 0 or 1")


def homogeneous_extension(f, hspec: HomogeneitySpec):
    """Extend a contour function along rays: F(e^s w) = e^{sigma s} f(w).

    Only the positive ray branch a = e^s > 0 is realized, on which the
    parity character is invisible.
    """

    def extended(s: float, phi1: float, phi2: float, theta1: float) -> complex:
        return math.exp(hspec.sigma * s) * f(phi1, phi2, theta1)

    return extended


@dataclass(frozen=True)
class ConeChart:
    """Exponential-radial chart of one of the two cones."""

    kind: str  # "V32" or "V41"

    def __post_init__(self):
        if self.kind not in ("V32", "V41"):
            raise ValueError("chart kind must be V32 or V41")

    @property
    def contour_topology(self) -> str:
        return "S2 x S1" if self.kind == "V32" else "S3"

    @property
    def angle_names(self) -> tuple[str, ...]:
        return CONE_VARS if self.kind == "V32" else ("phi1", "phi2", "phi3")

    def embed(self, s: float, angles: dict) -> tuple[float, ...]:
        """(y1, y2, y3, y4, y0) of the chart point."""
        es = math.exp(s)
        if self.kind == "V32":
            f1, f2, th = angles["phi1"], angles["phi2"], angles["theta1"]
            return (es * math.cos(f2),
                    es * math.sin(f2) * math.cos(f1),
                    es * math.sin(f2) * math.sin(f1),
                    es * math.sin(th),
                    es * math.cos(th))
        f1, f2, f3 = angles["phi1"], angles["phi2"], angles["phi3"]
        return (es * math.cos(f3),
                es * math.sin(f3) * math.cos(f2),
                es * math.sin(f3) * math.sin(f2) * math.cos(f1),
                es * math.sin(f3) * math.sin(f2) * math.sin(f1),
                es)

    def cone_residual(self, y: tuple[float, ...]) -> float:
        """Defining quadric evaluated on an embedded point (zero on chart)."""
        y1, y2, y3, y4, y0 = y
        if self.kind == "V32":
            return y1 * y1 + y2 * y2 + y3 * y3 - y4 * y4 - y0 * y0
        return y1 * y1 + y2 * y2 + y3 * y3 + y4 * y4 - y0 * y0

    def jacobian_determinant(self, s: float, angles: dict,
                             step: float = 1e-6) -> float:
        """Numeric Gram determinant of the chart differential."""
        import numpy as np
        names = ("s",) + self.angle_names
        base = dict(angles)

        def at(vals):
            return np.array(self.embed(vals[0], dict(zip(names[1:], vals[1:]))))

        center = [s] + [base[n] for n in self.angle_names]
        cols = []
        for k in range(len(center)):
            plus = list(center)
            minus = list(center)
            plus[k] += step
            minus[k] -= step
            cols.append((at(plus) - at(minus)) / (2 * step))
        j = np.stack(cols, axis=1)
        return float(abs(np.linalg.det(j.T @ j)) ** 0.5)
