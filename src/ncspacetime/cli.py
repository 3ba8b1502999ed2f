"""Command-line front end: verification suites and computations with
deterministic JSON reports.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
parse error, or a --json path that cannot be written.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import lru_cache

from .algebra import (IM, P_IDS, X_IDS,
                      LieAlgebraSpec, Signature, build_deformed_algebra,
                      build_so6_algebra, contract_tangent, defining_rep,
                      generating_set, identify_orthogonal, jacobi_defect,
                      phi_locus, physical_rep, sweep)
from .clifford import closure_report
from .connections import (PHI_TERM_SIGN, Connection, curvature_commutator,
                          expected_phi_term, field_strength,
                          curvature_phi_part)
from .diffcalc import (derivation_labels, derivation_set,
                       differential_of_generator, exterior_derivative,
                       reference_differential_p, reference_differential_x,
                       theta_name)
from .enveloping import (EnvElement, ExponentRangeError,
                         UnsupportedInverseError, casimir, centrality_defect,
                         env_commutator, env_product)
from .minilang import MiniLangError, format_env, format_qqi, parse_element
from .report import Check, Report
from .reps import (BoundaryPointError, build_rep_5d, build_rep_so32,
                   check_rep_exact, exact_rep_so32, finite_boost_14,
                   make_sample_points, make_test_functions, max_residual,
                   scalar_to_trig)
from .scalars import CoefficientSizeError
from .specfile import (SpecFile, SpecFileError, load_specfile_path,
                       read_json)

USAGE_EXIT = 2
FAIL_EXIT = 1


def _new_report(command: str, spec_file: SpecFile, args, **kwargs) -> Report:
    """Report echoing the spec and the seed (0 unless --seed was given)."""
    echo = {"signature": {"eps4": spec_file.signature.eps4,
                          "eps5": spec_file.signature.eps5},
            "regime": spec_file.regime}
    if spec_file.raw:
        echo["document"] = spec_file.raw
    seed = 0 if args.seed is None else args.seed
    return Report(command, echo, seed=seed, **kwargs)


# -- verify ------------------------------------------------------------------

def check_jacobi(spec: LieAlgebraSpec) -> Check:
    defects = jacobi_defect(spec)
    return Check.exact(
        "jacobi_identity",
        defects and {"defective_triples": [
            [spec.gen_name(g) for g in triple] for triple, _ in defects[:10]],
            "count": len(defects)},
        f"{len(spec.basis)} generators, all triples exact zero")


def _listed(key: str, items: list):
    """A failure's details: items and their count, or [] for none."""
    return items and {key: items, "count": len(items)}


def check_orthogonal_symbolic(full: LieAlgebraSpec) -> Check:
    """The so(eta6) table pushed through the identification against full,
    a full-regime table of the same signature; names every pair that
    differs."""
    sig = full.signature
    so6 = build_so6_algebra(sig)
    ident = identify_orthogonal(sig)
    locus = phi_locus(sig)
    ids = sorted(full.basis)
    mismatched = []
    for a_pos, a in enumerate(ids):
        for b in ids[a_pos + 1:]:
            ka, sa = ident.to_mab(a)
            kb, sb = ident.to_mab(b)
            pushed = ident.mab_element_to_phys(
                so6.bracket_ids(ka, kb)).scale(sa * sb)
            direct = full.bracket_ids(a, b).map_scalars(
                lambda s: s.substitute(locus))
            if not (pushed - direct).is_zero:
                mismatched.append(f"[{full.gen_name(a)},{full.gen_name(b)}]")
    return Check.exact("orthogonal_realization_symbolic",
                       _listed("mismatched", mismatched),
                       "so(eta6) table pushed through the identification "
                       "matches the full table with phi = eps5*R_inv^2")


def _oracle_point(sig: Signature) -> tuple:
    """physical_rep and the parameters at ell = 1, R_inv = 1/2 and
    phi = eps5/4, where both matrix oracles evaluate."""
    return (physical_rep(sig, ell=1.0, r_inv=0.5),
            {"ell": 1.0, "R_inv": 0.5, "phi": sig.eps5 * 0.25})


def check_orthogonal_oracle(full: LieAlgebraSpec, tol=None) -> Check:
    import numpy as np
    rep, env = _oracle_point(full.signature)
    worst = 0.0
    ids = sorted(full.basis)
    for a_pos, a in enumerate(ids):
        for b in ids[a_pos + 1:]:
            lhs = rep[a] @ rep[b] - rep[b] @ rep[a]
            rhs = full.bracket_ids(a, b).evaluate_matrix(rep, env)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    status = "pass" if worst <= (1e-12 if tol is None else tol) else "fail"
    return Check("orthogonal_realization_oracle", status, worst,
                 "105 brackets vs 6x6 matrix commutators at ell=1, R=2")


def check_contraction(full: LieAlgebraSpec, tangent: LieAlgebraSpec) -> Check:
    """contract_tangent(full) against tangent; names every table entry
    [a,b], a < b, where the two differ."""
    contracted = contract_tangent(full)
    pairs = [] if contracted.table_equal(tangent) else sorted(
        {(a, b) for a, b in (*contracted.table, *tangent.table) if a < b})
    mismatched = [f"[{full.gen_name(a)},{full.gen_name(b)}]"
                  for a, b in pairs
                  if contracted.table.get((a, b)) != tangent.table.get((a, b))]
    return Check.exact("tangent_contraction",
                       _listed("mismatched", mismatched),
                       "R_inv -> 0 substitution equals the tangent table "
                       "entry-for-entry")


def check_casimir_centrality(kind: str, elem: EnvElement,
                             spec: LieAlgebraSpec, seeds=None) -> Check:
    """seeds is generating_set(spec), found by algebra.sweep when None."""
    defects = centrality_defect(elem, spec, seeds)
    return Check.exact(
        f"casimir_{kind.lower()}_centrality",
        defects and {"noncommuting": [spec.gen_name(g) for g, _ in defects]},
        f"[{kind}, g] = 0 for all 15 generators (symbolic)")


def check_casimir_oracle(sig: Signature, kind: str, elem: EnvElement,
                         tol=None) -> Check:
    """elem is the full-regime Casimir of sig."""
    import numpy as np
    rep = defining_rep(sig)
    c_mat = elem.evaluate_matrix(*_oracle_point(sig))
    worst = 0.0
    scale = max(1.0, float(np.abs(c_mat).max()))
    for m in rep.values():
        worst = max(worst, float(np.abs(c_mat @ m - m @ c_mat).max()) / scale)
    status = "pass" if worst <= (1e-10 if tol is None else tol) else "fail"
    return Check(f"casimir_{kind.lower()}_centrality_oracle", status, worst,
                 "matrix image commutes with all defining-rep generators")


def add_casimir_checks(report: Report, kind: str, elem: EnvElement,
                       full: LieAlgebraSpec, seeds, symbolic: bool,
                       tol=None) -> None:
    """The matrix oracle of elem, the Casimir of the full table, then its
    symbolic centrality check, or a skip unless symbolic."""
    report.add(check_casimir_oracle(full.signature, kind, elem, tol))
    if symbolic:
        report.add(check_casimir_centrality(kind, elem, full, seeds))
    else:
        report.add(Check(f"casimir_{kind.lower()}_centrality", "skip",
                         details="symbolic check runs under --deep"))


def check_d_squared(full: LieAlgebraSpec, tangent: LieAlgebraSpec,
                    seeds) -> Check:
    """d(d(g)) for every generator of both tables.

    In the full regime every derivation is inner, so on 0-forms each
    component of d^2 is a derivation of the enveloping algebra
    ([d^a, d^b] - sum_j c_ab^j d^j): algebra.sweep takes it on seeds,
    generating_set(full), first.  The tangent table is swept in full.
    """
    nonzero = []
    for spec, letters in ((full, seeds), (tangent, ())):
        derivs = derivation_set(spec)

        def defect(gid):
            one_form = differential_of_generator(gid, spec, derivs)
            return exterior_derivative(one_form, spec, derivs)
        nonzero += [{"regime": spec.regime, "generator": spec.gen_name(gid),
                     "first_nonzero": [theta_name(lab)
                                       for lab in min(dd.comps)]}
                    for gid, dd in sweep(spec, defect, letters)]
    return Check.exact("d_squared_zero", _listed("nonzero", nonzero),
                       "d(d(g)) = 0 for every generator, both regimes "
                       "(exact)")


def check_worked_differentials(spec: LieAlgebraSpec) -> Check:
    sig = spec.signature
    derivs = derivation_set(spec)
    mismatched = []
    for ids, reference in ((X_IDS, reference_differential_x),
                           (P_IDS, reference_differential_p)):
        for mu in range(4):
            if differential_of_generator(ids[mu], spec, derivs) \
                    != reference(mu, sig):
                mismatched.append("d" + spec.gen_name(ids[mu]))
    return Check.exact("worked_differentials",
                       _listed("mismatched", mismatched),
                       "dx^mu and dp^mu match the printed one-forms exactly")


def check_tangent_translation_sector(spec: LieAlgebraSpec) -> Check:
    entries = {}
    for mu in range(4):
        for nu in range(mu + 1, 4):
            entries[f"[p{mu},p{nu}]"] = format_env(
                spec.bracket_ids(P_IDS[mu], P_IDS[nu]))
        entries[f"[p{mu},Im]"] = format_env(spec.bracket_ids(P_IDS[mu], IM))
    ok = all(v == "0" for v in entries.values())
    entries["[x0,Im]"] = format_env(spec.bracket_ids(X_IDS[0], IM))
    details = {"entries": entries,
               "note": "the translation set {p, Im} is Abelian; [x, Im] "
                       "is retained (Jacobi identity requires it)"}
    return Check.exact("tangent_translation_sector", not ok and details,
                       details)


def cmd_verify(spec_file: SpecFile, args) -> Report:
    report = _new_report("verify", spec_file, args, tolerance=args.tolerance)
    sig = spec_file.signature
    spec = spec_file.build()
    # the clean tables of the signature, each built once, and the
    # generating set of the full one, found once (one Jacobi sweep)
    full = build_deformed_algebra(sig, "full")
    tangent = build_deformed_algebra(sig, "tangent")
    seeds = generating_set(full)
    report.add(check_jacobi(spec))
    report.add(check_orthogonal_symbolic(full))
    report.add(check_orthogonal_oracle(full, args.tolerance))
    report.add(check_contraction(full, tangent))
    report.add(check_casimir_centrality(
        "C1", casimir("C1", full), full, seeds))
    for kind in ("C2", "C3"):
        add_casimir_checks(report, kind, casimir(kind, full), full, seeds,
                           args.deep, args.tolerance)
    report.add(check_d_squared(full, tangent, seeds))
    report.add(check_worked_differentials(full))
    if spec_file.regime == "tangent":
        report.add(check_tangent_translation_sector(tangent))
    return report


# -- computations ------------------------------------------------------------

def cmd_commute(spec_file: SpecFile, args) -> Report:
    report = _new_report("commute", spec_file, args)
    spec = spec_file.build()
    a = parse_element(args.a, spec)
    b = parse_element(args.b, spec)
    result = env_commutator(a, b, spec)
    report.payload["commutator"] = format_env(result, spec.regime)
    report.add(Check.exact("commute", None, {"a": args.a, "b": args.b}))
    return report


def cmd_casimir(spec_file: SpecFile, args) -> Report:
    report = _new_report("casimir", spec_file, args)
    sig = spec_file.signature
    kind = f"C{args.which}"
    spec = build_deformed_algebra(sig, "full")
    elem = casimir(kind, spec)
    report.payload["element"] = format_env(elem)
    report.payload["terms"] = len(elem.terms)
    add_casimir_checks(report, kind, elem, spec, None,
                       kind == "C1" or args.deep)
    return report


def cmd_diff(spec_file: SpecFile, args) -> Report:
    report = _new_report("diff", spec_file, args)
    if spec_file.regime == "spacetime":
        raise SpecFileError(
            "the derivation calculus is defined for the full and tangent "
            "regimes; pick one in the spec file")
    regime = spec_file.regime
    spec = spec_file.build()
    gid = spec.gen_ids().get(args.generator)
    if gid is None:
        raise MiniLangError(f"unknown generator {args.generator!r}", 0)
    # the calculus's own scales (-i/ell on d^4) are symbolic: bind them too
    comps = spec_file.bind(differential_of_generator(gid, spec).comps,
                           f"d({args.generator})")
    report.payload["differential"] = {
        theta_name(lab[0]): format_env(val, regime)
        for lab, val in sorted(comps.items()) if not val.is_zero}
    report.add(Check.exact("differential", None,
                           f"d({args.generator}) in the {regime} regime"))
    return report


def _load_connection(path: str) -> dict:
    doc = read_json(path, "connection file")
    if not isinstance(doc, dict):
        raise SpecFileError(f"connection file {path!r} must hold a JSON "
                            "object of components")
    return doc


def cmd_curvature(spec_file: SpecFile, args) -> Report:
    report = _new_report("curvature", spec_file, args)
    sig = spec_file.signature
    spec = build_deformed_algebra(sig, "full")
    if args.connection:
        comp_doc = _load_connection(args.connection)
        labels = derivation_labels("full")
        label_by_name = {theta_name(lab)[len("theta"):].lstrip("_"): lab
                         for lab in labels}
        comps = {}
        for key, text in comp_doc.items():
            lab = label_by_name.get(str(key).lstrip("_"))
            if lab is None:
                raise SpecFileError(f"unknown connection component {key!r}")
            if not isinstance(text, str):
                raise SpecFileError(
                    f"connection component {key!r} must be a string")
            comps[lab] = parse_element(text, spec)
        conn = Connection(comps, spec)
    else:
        conn = Connection.zero(spec)
    report.payload["phi_term_sign"] = PHI_TERM_SIGN
    mismatched = False
    for alpha_i in range(4):
        for beta_i in range(alpha_i + 1, 4):
            alpha, beta = P_IDS[alpha_i], P_IDS[beta_i]
            f = field_strength(conn, alpha, beta)
            for mu in range(4):
                x = EnvElement.generator(X_IDS[mu])
                lhs = curvature_commutator(conn, x, alpha, beta)
                expected = env_product(x, f, spec) \
                    + expected_phi_term(mu, alpha_i, beta_i)
                mismatched = mismatched or not (lhs - expected).is_zero
    note = ("commutator of covariant derivatives = x*(field strength) "
            "+ phi term, all translation pairs and all x components")
    report.add(Check.exact("curvature_decomposition", mismatched and note,
                           note))
    # the phi part reads only conn's derivations, which every connection
    # on spec shares, not its components
    sample = curvature_phi_part(
        EnvElement.generator(X_IDS[0]), P_IDS[0], P_IDS[1], conn)
    report.payload["phi_term_on_x0_d0_d1"] = format_env(sample)
    return report


def cmd_clifford(spec_file: SpecFile, args) -> Report:
    report = _new_report("clifford", spec_file, args)
    sig = spec_file.signature
    params = spec_file.finkelstein
    holds = params.constraint_holds()
    report.payload["constraint"] = {
        "n_cells": params.n_cells,
        "holds": holds,
        "statement": "chi*phi_cell*(N-1) = hbar/2",
    }
    refused = params.enforce_constraint and not holds
    report.add(Check.exact(
        "cell_constraint", refused and "chi*phi_cell*(N-1) != hbar/2",
        "constraint satisfied" if holds else "constraint not enforced"))
    if refused:
        return report
    rows = closure_report(params, sig)
    worst = max(r[3] for r in rows)
    table = []
    for name_a, name_b, matches, residual in rows:
        table.append({
            "commutator": f"[{name_a},{name_b}]",
            "matches": [[n, format_qqi(c)] for n, c in matches],
            "residual": residual,
        })
    report.payload["closure"] = table
    status = "pass" if worst <= 1e-10 else "fail"
    report.add(Check("cell_closure", status, worst,
                     "every family commutator lies in the family span"))
    return report


def check_brackets(name: str, bad: list, target: LieAlgebraSpec,
                   note: str = "") -> Check:
    """The check_rep_exact verdict, naming every failing generator pair."""
    n = len(target.basis)
    total = n * (n - 1) // 2
    pairs = ", ".join(f"[{target.gen_name(a)},{target.gen_name(b)}]"
                      for a, b in bad)
    return Check.exact(
        name, bad and f"{len(bad)} of {total} brackets fail{note}: {pairs}",
        f"all {total} brackets hold as exact operator identities{note}")


def boost_check(name: str, lhs, rhs, points: list, tolerance: float,
                note: str) -> Check:
    """max |lhs - rhs| over the sample points against tolerance.  A point
    where a boost is singular counts as inf and is named in the note."""
    residuals = []
    for pt in points:
        at = (pt["phi1"], pt["phi2"], pt["theta1"])
        try:
            residuals.append(abs(lhs(*at) - rhs(*at)))
        except BoundaryPointError as exc:
            residuals.append(math.inf)
            note += f"; boost singular at (phi1, phi2, theta1) = {at}: {exc}"
    worst = max_residual(residuals)
    return Check(name, "pass" if worst <= tolerance else "fail", worst, note)


def cmd_rep(spec_file: SpecFile, args) -> Report:
    report = _new_report(f"rep-{args.which}", spec_file, args)
    sig = spec_file.signature
    if args.which == "5d":
        target = build_deformed_algebra(sig, "tangent")
        report.add(check_brackets(
            "rep_5d_brackets", check_rep_exact(build_rep_5d(sig), target),
            target))
        return report
    cfg = spec_file.rep
    target = build_deformed_algebra(Signature(1, sig.eps5), "spacetime")
    rep = exact_rep_so32(build_rep_so32(cfg.sigma, cfg.epsilon))
    report.add(check_brackets(
        "rep_so32_brackets", check_rep_exact(rep, target, scalar_to_trig),
        target, f", sigma={cfg.sigma}"))
    tolerance = args.tolerance if args.tolerance is not None else cfg.tolerance
    seed = cfg.seed if args.seed is None else args.seed
    report.seed = seed
    # the first min(samples, 20) points of the seeded sequential draw
    points = make_sample_points(seed, min(cfg.samples, 20))
    f = make_test_functions(seed, 1)[0]
    # finite boost: identity at t=0 and the one-parameter group law
    def fc(p1, p2, th):
        return f.evaluate({"phi1": p1, "phi2": p2, "theta1": th})
    report.add(boost_check(
        "boost_identity_at_zero", finite_boost_14(0.0, cfg.sigma, fc), fc,
        points, 0.0, "t = 0 acts as the identity"))
    t1, t2 = 0.4, -0.75
    lhs = finite_boost_14(t1, cfg.sigma, finite_boost_14(t2, cfg.sigma, fc))
    rhs = finite_boost_14(t1 + t2, cfg.sigma, fc)
    report.add(boost_check("boost_group_law", lhs, rhs, points, tolerance,
                           "t then t' equals t + t'"))
    report.payload["boost_generator"] = {
        "matches": "-i*X1",
        "exponent_note": "multiplier uses |a|^(sigma/2): the generator match "
                         "holds with sigma replaced by sigma/2 relative to "
                         "the degree-sigma homogeneity convention",
    }
    return report


# -- entry point ---------------------------------------------------------------

def _tolerance(text: str) -> float:
    """--tolerance: a finite positive number."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr and exits 2."""

    def error(self, message):
        self.exit(USAGE_EXIT, f"ncst: {message}\n")


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The ncst parser, built on the first main() call and reused: parsing
    writes only to a fresh Namespace, never to the parser."""
    parser = _Parser(
        prog="ncst",
        description="exact computer algebra for the stable deformed "
                    "space-time algebra and its noncommutative geometry")
    parser.add_argument("--spec", help="path to a JSON algebra-spec file")
    parser.add_argument("--seed", type=int, default=None,
                        help="sampling seed (rep so32 defaults to rep.seed "
                             "of the spec file)")
    parser.add_argument("--tolerance", type=_tolerance, default=None)
    parser.add_argument("--json", dest="json_out",
                        help="also write the report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--deep", action="store_true",
                   help="include the symbolic C2/C3 centrality checks")

    p = sub.add_parser("commute", help="canonical commutator of two elements")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("casimir", help="invariant elements")
    p.add_argument("which", type=int, choices=(1, 2, 3))
    p.add_argument("--deep", action="store_true")

    p = sub.add_parser("diff", help="differential of a generator")
    p.add_argument("generator")

    p = sub.add_parser("curvature", help="curvature commutator decomposition")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--zero", action="store_true",
                       help="use the zero connection")
    group.add_argument("--connection", help="JSON file of components")

    sub.add_parser("clifford", help="cell construction closure report")

    p = sub.add_parser("rep", help="representation checks")
    p.add_argument("which", choices=("5d", "so32"))

    return parser


_DISPATCH = {
    "verify": cmd_verify,
    "commute": cmd_commute,
    "casimir": cmd_casimir,
    "diff": cmd_diff,
    "curvature": cmd_curvature,
    "clifford": cmd_clifford,
    "rep": cmd_rep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec_file = load_specfile_path(args.spec) if args.spec else SpecFile()
    except SpecFileError as exc:
        print(f"ncst: spec error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        report = _DISPATCH[args.command](spec_file, args)
    except (MiniLangError, SpecFileError, UnsupportedInverseError,
            ExponentRangeError, CoefficientSizeError) as exc:
        print(f"ncst: {exc}", file=sys.stderr)
        return USAGE_EXIT
    text = report.dumps()
    if args.json_out:
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"ncst: cannot write report to {args.json_out!r}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return USAGE_EXIT
    sys.stdout.write(text)
    return FAIL_EXIT if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
