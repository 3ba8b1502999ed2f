"""Integration tests: exit-code contract and report determinism."""

import json
import subprocess
import sys
import tracemalloc

import pytest

CMD = [sys.executable, "-m", "ncspacetime.cli"]


def run_cli(*args, check=False):
    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          check=check)


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestExitCodes:
    def test_verify_default_all_pass(self):
        out = run_cli("verify")
        assert out.returncode == 0
        report = json.loads(out.stdout)
        assert report["summary"]["fail"] == 0
        assert report["summary"]["pass"] >= 6

    def test_broken_table_fails_with_one(self, tmp_path):
        spec = write_spec(tmp_path, {"structure_overrides": {"[p0,x0]": "0"}})
        out = run_cli("--spec", spec, "verify")
        assert out.returncode == 1
        report = json.loads(out.stdout)
        failed = [c["name"] for c in report["checks"] if c["status"] == "fail"]
        assert "jacobi_identity" in failed

    def test_failing_jacobi_names_its_triples(self, tmp_path):
        # every Jacobiator of this table is central (test_jacobi_reference)
        spec = write_spec(tmp_path, {
            "signature": {"eps4": 1, "eps5": -1}, "regime": "tangent",
            "structure_overrides": {"[x3,M02]": "i", "[M02,p3]": "1"}})
        out = run_cli("--spec", spec, "verify")
        assert out.returncode == 1
        check, = (c for c in json.loads(out.stdout)["checks"]
                  if c["name"] == "jacobi_identity")
        assert check["status"] == "fail"
        assert check["details"]["count"] == 13
        assert check["details"]["defective_triples"][0] == ["x0", "x2", "x3"]

    def test_parse_error_exits_two(self):
        out = run_cli("commute", "p0 +", "x1")
        assert out.returncode == 2
        assert "ncst" in out.stderr

    def test_malformed_spec_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken", encoding="utf-8")
        out = run_cli("--spec", str(path), "verify")
        assert out.returncode == 2

    def test_unknown_subcommand_exits_two(self):
        out = run_cli("fnord")
        assert out.returncode == 2

    def test_diagonal_override_exits_two(self, tmp_path):
        spec = write_spec(tmp_path, {"structure_overrides": {"[p0,p0]": "x0"}})
        out = run_cli("--spec", spec, "commute", "p0", "x0")
        assert out.returncode == 2
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("ncst: ") and "[p0,p0]" in out.stderr

    @pytest.mark.parametrize("args", [("verify",), ("commute", "x0", "Im")])
    def test_override_outside_basis_exits_two(self, tmp_path, args):
        # ImInv is a letter of the tangent engine, not a basis generator
        spec = write_spec(tmp_path, {"regime": "tangent",
                                     "structure_overrides": {"[x0,Im]": "ImInv"}})
        out = run_cli("--spec", spec, *args)
        assert out.returncode == 2
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("ncst: ") and "[x0,Im]" in out.stderr

    def test_constraint_violation_exits_one(self, tmp_path):
        spec = write_spec(tmp_path, {"finkelstein": {
            "n_cells": 2, "chi": "1/2", "phi_cell": "1/2"}})
        out = run_cli("--spec", spec, "clifford")
        assert out.returncode == 1
        report = json.loads(out.stdout)
        assert any(c["name"] == "cell_constraint" and c["status"] == "fail"
                   for c in report["checks"])

    def test_constraint_satisfied_n3(self, tmp_path):
        spec = write_spec(tmp_path, {"finkelstein": {
            "n_cells": 3, "chi": "1/2", "phi_cell": "1/2"}})
        out = run_cli("--spec", spec, "clifford")
        assert out.returncode == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_bad_tolerance_exits_two(self, value):
        out = run_cli(f"--tolerance={value}", "verify")
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("ncst: ")
        assert "--tolerance" in out.stderr

    def test_missing_connection_file_exits_two(self, tmp_path):
        out = run_cli("curvature", "--connection",
                      str(tmp_path / "absent.json"))
        assert out.returncode == 2
        assert out.stderr.startswith("ncst: ")
        assert len(out.stderr.splitlines()) == 1

    def test_invalid_connection_json_exits_two(self, tmp_path):
        conn = tmp_path / "conn.json"
        conn.write_text("{broken", encoding="utf-8")
        out = run_cli("curvature", "--connection", str(conn))
        assert out.returncode == 2
        assert out.stderr.startswith("ncst: ")
        assert len(out.stderr.splitlines()) == 1

    @pytest.mark.parametrize("target", ["", "absent/report.json"],
                             ids=["directory", "missing-parent"])
    def test_unwritable_json_path_exits_two(self, tmp_path, target):
        out = run_cli("--json", str(tmp_path / target), "commute", "p0", "x0")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "Traceback" not in out.stderr
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("ncst: cannot write report")


class TestCliffordReport:
    @pytest.mark.parametrize("fink, want", [
        (None, {"[x0,x1]": [["M01", "i"]], "[x0,p0]": [["Im", "-i"]]}),
        ({"n_cells": 3, "chi": "1/4", "phi_cell": "1"},
         {"[x0,x1]": [["M01", "1/4*i"]], "[p0,p1]": [["M01", "4*i"]]}),
    ], ids=["default", "chi=1/4"])
    def test_exact_coefficient_strings(self, tmp_path, fink, want):
        args = ["clifford"]
        if fink is not None:
            spec = write_spec(tmp_path, {"finkelstein": fink})
            args = ["--spec", spec] + args
        out = run_cli(*args)
        assert out.returncode == 0
        assert '"schema_version": "3"' in out.stdout
        closure = {row["commutator"]: row["matches"]
                   for row in json.loads(out.stdout)["result"]["closure"]}
        assert {k: closure[k] for k in want} == want
        assert all(isinstance(c, str)
                   for matches in closure.values() for _n, c in matches)


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("verify",), ("commute", "x0*p1", "M01"), ("diff", "p0"),
        ("casimir", "1"), ("curvature", "--zero"), ("rep", "so32"),
    ])
    def test_byte_identical_reports(self, args):
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode
        assert a.stdout == b.stdout
        assert a.stdout.endswith("\n")

    def test_json_out_matches_stdout(self, tmp_path):
        path = tmp_path / "report.json"
        out = run_cli("--json", str(path), "commute", "p0", "x0")
        assert out.returncode == 0
        assert path.read_text(encoding="utf-8") == out.stdout


class TestLongAndLargeInput:
    def test_long_word_commute_in_process(self, capsys):
        from ncspacetime import cli
        assert cli.main(["commute", "p0^200", "x0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [(c["name"], c["status"]) for c in report["checks"]] == \
            [("commute", "pass")]
        assert report["result"]["commutator"].endswith(" + 200*i*p0^199*Im")

    def test_long_power_commutator_stays_small(self):
        """The kernel keeps a coefficient per intermediate word, not a
        normal form: [p0^200, x0] peaked at 471 MB traced when it kept a
        normal form for each of the O(L^2) words p0^a x0 p0^b."""
        from ncspacetime.algebra import (P_IDS, X_IDS, Signature,
                                         build_deformed_algebra)
        from ncspacetime.enveloping import (EnvElement, ad_generator,
                                            env_commutator)
        spec = build_deformed_algebra(Signature(1, -1), "full")
        a = EnvElement.monomial((P_IDS[0],) * 200)
        tracemalloc.start()
        try:
            got = env_commutator(a, EnvElement.generator(X_IDS[0]), spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120e6
        assert len(got.terms) == 200
        assert got == -ad_generator(X_IDS[0], a, spec)

    def test_iminv_times_long_power_closed_form(self):
        """ImInv x0^n = sum_k C(n, k) x0^(n-k) D^k(ImInv) with D = [., x0].
        In the tangent regime D maps the commutative letters p0, Im and
        ImInv into themselves, so D^k(ImInv) is computed in the Laurent
        ring of p0 and Im, from the table's [p0, x0] and [Im, x0] alone
        (D(Im^b) = b Im^(b-1) D(Im) for b < 0 too)."""
        from math import comb

        from ncspacetime.algebra import (IM, IMINV, P_IDS, X_IDS, Signature,
                                         build_deformed_algebra)
        from ncspacetime.enveloping import EnvElement, env_product
        from ncspacetime.scalars import Scalar
        spec = build_deformed_algebra(Signature(1, -1), "tangent")
        p0, x0, n = P_IDS[0], X_IDS[0], 30
        (w_p, s_p), = spec.table[p0, x0].terms.items()
        (w_im, s_im), = spec.table[IM, x0].terms.items()
        assert (w_p, w_im) == ((IM,), (p0,)) and (p0, IM) not in spec.table
        d = {(0, -1): Scalar.one()}  # D^k(ImInv) as {(a, b): p0^a Im^b}
        want = EnvElement.zero()
        for k in range(n + 1):
            for (a, b), s in d.items():
                word = (x0,) * (n - k) + (p0,) * a + \
                    ((IM,) * b if b > 0 else (IMINV,) * -b)
                want = want + EnvElement.monomial(word, s * comb(n, k))
            nxt = {}
            for (a, b), s in d.items():
                # D(p0^a Im^b) = a p0^(a-1) Im^b D(p0) + b p0^a Im^(b-1) D(Im)
                for key, t in (((a - 1, b + 1), s_p * a),
                               ((a + 1, b - 1), s_im * b)):
                    if t:
                        nxt[key] = nxt.get(key, Scalar.zero()) + s * t
            d = {key: s for key, s in nxt.items() if s}
        got = env_product(EnvElement.generator(IMINV),
                          EnvElement.monomial((x0,) * n), spec)
        assert len(got.terms) == 256
        assert got == want

    def test_large_exponent_is_exact(self):
        big = 2 ** 40
        out = run_cli("commute", f"ell^{big}*x0", "p0")
        assert out.returncode == 0
        report = json.loads(out.stdout)
        assert report["result"]["commutator"] == f"-i*ell^{big}*Im"

    def test_out_of_range_exponent_exits_two(self):
        out = run_cli("commute", f"ell^{2 ** 70}*x0", "p0")
        assert out.returncode == 2
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("ncst: ")

    @pytest.mark.parametrize("signs, want", [(3000, "-i*Im"), (3001, "i*Im")])
    def test_long_run_of_unary_minus(self, signs, want):
        out = run_cli("commute", "0+" + "-" * signs + "x0", "p0")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["result"]["commutator"] == want

    @pytest.mark.parametrize("args", [
        ("--spec", "{deep}", "verify"),
        ("curvature", "--connection", "{deep}"),
    ], ids=["spec", "connection"])
    def test_deeply_nested_json_exits_two(self, tmp_path, args):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        out = run_cli(*(a.format(deep=deep) for a in args))
        assert out.returncode == 2
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("ncst: ")
        assert "nested too deeply" in out.stderr


    @pytest.mark.parametrize("depth", [250, 5000])
    def test_deeply_nested_parentheses(self, depth):
        out = run_cli("commute", "(" * depth + "x0" + ")" * depth, "p0")
        assert out.returncode == 0, out.stderr[-500:]
        assert json.loads(out.stdout)["result"]["commutator"] == "-i*Im"


class TestSpecBlockTypes:
    """A spec-file block or value of the wrong JSON type exits 2 with one
    line, not a traceback."""

    @pytest.mark.parametrize("doc", [
        {"parameters": []},
        {"signature": []},
        {"finkelstein": []},
        {"rep": []},
        {"finkelstein": {"n_cells": []}},
        {"rep": {"sigma": []}},
        {"rep": {"tolerance": []}},
        {"rep": {"samples": 1e400}},
        {"finkelstein": {"n_cells": 1e400}},
        {"signature": {"eps4": 1e400}},
        {"structure_overrides": []},
        {"structure_overrides": {"[p0,x0]": 3}},
        # a wrong value of a scalar field, which a conversion used to hide
        {"finkelstein": {"enforce_constraint": "false"}},
        {"finkelstein": {"enforce_constraint": 0}},
        {"signature": {"eps4": 1.9}},
        {"signature": {"eps4": True}},
        {"signature": {"eps5": "-1"}},
        {"rep": {"samples": 2.9}},
        {"rep": {"seed": False}},
        {"finkelstein": {"N": 3.5}},
        {"finkelstein": {"chi": True}},
        {"finkelstein": {"hbar": "1/0"}},
        {"rep": {"sigma": True}},
        {"rep": {"sigma": "0.3"}},
        {"rep": {"tolerance": True}},
        {"rep": {"tolerance": "1e-3"}},
        # a key no block field is named by, which used to be dropped
        {"signature": {"eps_4": -1}},
        {"finkelstein": {"n_cell": 3}},
        {"rep": {"sigmaa": 1}},
    ], ids=json.dumps)
    def test_wrong_type_exits_two(self, tmp_path, capsys, doc):
        from ncspacetime import cli
        spec = write_spec(tmp_path, doc)
        assert cli.main(["--spec", spec, "commute", "p0", "x0"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert out.err.startswith("ncst: spec error: ")
        (block, fields), = doc.items()
        for key in ("eps_4", "n_cell", "sigmaa"):
            if isinstance(fields, dict) and key in fields:
                assert block in out.err and repr(key) in out.err

    def test_zero_denominator_hbar_is_a_finkelstein_error(self, tmp_path,
                                                          capsys):
        from ncspacetime import cli
        spec = write_spec(tmp_path, {"finkelstein": {"hbar": "1/0"}})
        assert cli.main(["--spec", spec, "clifford"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert out.err.startswith("ncst: spec error: bad finkelstein block: ")


    @pytest.mark.parametrize("block", ["signature", "parameters",
                                       "finkelstein", "rep"])
    def test_empty_block_is_the_absent_block(self, block):
        from ncspacetime.specfile import load_specfile
        absent, empty = load_specfile({}), load_specfile({block: {}})
        empty.raw = absent.raw
        assert empty == absent

    def test_empty_finkelstein_block_is_the_default_clifford(self, tmp_path):
        spec = write_spec(tmp_path, {"finkelstein": {}})
        default, empty = run_cli("clifford"), run_cli("--spec", spec,
                                                      "clifford")
        assert empty.returncode == default.returncode == 0
        assert json.loads(empty.stdout)["result"] == \
            json.loads(default.stdout)["result"]
        assert json.loads(empty.stdout)["result"]["constraint"][
            "n_cells"] == 3

    def test_n_cells_wins_over_its_alias(self):
        from ncspacetime.specfile import load_specfile
        sf = load_specfile({"finkelstein": {"N": 4, "n_cells": 3}})
        assert sf.finkelstein.n_cells == 3

    def test_strict_fields_keep_their_valid_forms(self):
        from ncspacetime.specfile import load_specfile
        sf = load_specfile({"signature": {"eps4": -1, "eps5": 1},
                            "finkelstein": {"N": 3,
                                            "enforce_constraint": False},
                            "rep": {"epsilon": 1, "samples": 7, "seed": 5,
                                    "sigma": 2, "tolerance": 1e-6}})
        assert (sf.signature.eps4, sf.signature.eps5) == (-1, 1)
        assert sf.finkelstein.n_cells == 3
        assert sf.finkelstein.enforce_constraint is False
        assert (sf.rep.epsilon, sf.rep.samples, sf.rep.seed) == (1, 7, 5)
        # a JSON integer is a number too
        assert sf.rep.sigma == 2.0 and sf.rep.sigma.__class__ is float
        assert sf.rep.tolerance == 1e-6


class TestCasimirBuiltOnce:
    @pytest.mark.parametrize("args, kinds", [
        (["casimir", "1"], ["C1"]),
        (["casimir", "2"], ["C2"]),
        (["casimir", "3", "--deep"], ["C3"]),
        (["verify", "--deep"], ["C1", "C2", "C3"]),
    ], ids=" ".join)
    def test_one_build_per_kind(self, monkeypatch, capsys, args, kinds):
        from ncspacetime import cli
        built = []
        real = cli.casimir

        def counting(kind, *rest):
            built.append(kind)
            return real(kind, *rest)

        monkeypatch.setattr(cli, "casimir", counting)
        assert cli.main(args) == 0
        capsys.readouterr()
        assert sorted(built) == kinds


class TestSpecsBuiltOnce:
    """verify builds the spec file's table and each clean table once."""

    @pytest.mark.parametrize("regime", ["full", "tangent"])
    @pytest.mark.parametrize("deep", [[], ["--deep"]], ids=["", "deep"])
    def test_one_build_per_table(self, monkeypatch, capsys, tmp_path,
                                 regime, deep):
        from ncspacetime import cli, specfile
        built = []
        real = cli.build_deformed_algebra

        def counting(sig, regime, *rest):
            built.append(regime)
            return real(sig, regime, *rest)

        for module in (cli, specfile):
            monkeypatch.setattr(module, "build_deformed_algebra", counting)
        spec = write_spec(tmp_path, {"regime": regime})
        assert cli.main(["--spec", spec, "verify"] + deep) == 0
        capsys.readouterr()
        assert sorted(built) == sorted([regime, "full", "tangent"])


def main_in_process(argv, capsys) -> tuple:
    """cli.main(argv) in this process: (exit code, stdout, stderr)."""
    from ncspacetime import cli
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestParserReuse:
    """main() builds its parser on the first call and reuses it; no call
    leaves anything in it that a later call sees."""

    SEQUENCES = {
        "seed-then-spec-seed": [
            ["--spec", "{spec}", "--seed", "5", "rep", "so32"],
            ["--spec", "{spec}", "rep", "so32"]],
        "tolerance-then-default": [
            ["--tolerance", "1e-3", "verify"], ["verify"]],
        "usage-error-between": [
            ["commute", "p0", "x0"], ["commute", "p0"], ["diff", "x0"],
            ["--tolerance", "nan", "casimir", "1"], ["casimir", "1"],
            ["fnord"], ["curvature", "--zero"]],
        "json-then-stdout-only": [
            ["--json", "{json}", "commute", "x0", "M01"],
            ["commute", "x0", "M01"]],
    }

    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_each_call_matches_a_fresh_process(self, tmp_path, capsys, name):
        from ncspacetime import cli
        spec = write_spec(tmp_path, {"rep": {"seed": 11, "samples": 20}})
        json_out = str(tmp_path / "report.json")
        for argv in self.SEQUENCES[name]:
            argv = [a.format(spec=spec, json=json_out) for a in argv]
            got = main_in_process(argv, capsys)
            fresh = run_cli(*argv)
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert cli._build_parser() is cli._build_parser()

    def test_spec_seed_is_echoed_after_a_seed_option(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"rep": {"seed": 11, "samples": 20}})
        seeds = []
        for argv in (["--spec", spec, "--seed", "5", "rep", "so32"],
                     ["--spec", spec, "rep", "so32"]):
            rc, out, _ = main_in_process(argv, capsys)
            assert rc == 0
            seeds.append(json.loads(out)["seed"])
        assert seeds == [5, 11]

    def test_import_builds_no_parser(self):
        code = ("import ncspacetime.cli as c; "
                "print(c._build_parser.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True)
        assert out.stdout == "0\n"


class TestCommands:
    def test_commute_p0_x0(self):
        out = run_cli("commute", "p0", "x0")
        report = json.loads(out.stdout)
        assert report["result"]["commutator"] == "i*Im"

    def test_commute_self_is_zero(self):
        out = run_cli("commute", "x0", "x0")
        assert json.loads(out.stdout)["result"]["commutator"] == "0"

    def test_commute_matches_matrix_oracle(self):
        import numpy as np
        from ncspacetime.algebra import (Signature, build_deformed_algebra,
                                         physical_rep)
        from ncspacetime.minilang import parse_element
        out = run_cli("commute", "x0*p1", "M01")
        text = json.loads(out.stdout)["result"]["commutator"]
        sig = Signature(1, 1)
        spec = build_deformed_algebra(sig, "full")
        elem = parse_element(text, spec)
        rep = physical_rep(sig, 1.0, 0.5)
        env = {"ell": 1.0, "R_inv": 0.5, "phi": 0.25}
        lhs = parse_element("x0*p1", spec).evaluate_matrix(rep, env)
        rhs = rep[8]  # M01
        want = lhs @ rhs - rhs @ lhs
        assert np.abs(elem.evaluate_matrix(rep, env) - want).max() <= 1e-12

    def test_commute_in_spacetime_regime(self, tmp_path):
        spec = write_spec(tmp_path, {"regime": "spacetime"})
        out = run_cli("--spec", spec, "commute", "X0", "X1")
        assert out.returncode == 0
        assert json.loads(out.stdout)["result"]["commutator"] == "-i*M01"
        bad = run_cli("--spec", spec, "commute", "p0", "x0")
        assert bad.returncode == 2

    def test_commute_iminv_in_tangent_regime(self, tmp_path):
        spec = write_spec(tmp_path, {"regime": "tangent"})
        out = run_cli("--spec", spec, "commute", "ImInv", "x0")
        assert out.returncode == 0
        text = json.loads(out.stdout)["result"]["commutator"]
        assert text == "i*ell^2*p0*ImInv^2"
        full = run_cli("commute", "ImInv", "x0")
        assert full.returncode == 2  # not a name in the full regime

    def test_commute_iminv_keeps_central_bracket(self, tmp_path):
        # [ImInv, x0] = ImInv [x0, Im] ImInv = ImInv^2 when [x0, Im] = 1
        spec = write_spec(tmp_path, {"regime": "tangent",
                                     "structure_overrides": {"[x0,Im]": "1"}})
        out = run_cli("--spec", spec, "commute", "ImInv", "x0")
        assert out.returncode == 0
        assert json.loads(out.stdout)["result"]["commutator"] == "ImInv^2"

    def test_diff_x0_reports_four_sectors(self):
        out = run_cli("diff", "x0")
        comps = json.loads(out.stdout)["result"]["differential"]
        assert comps["theta0"] == "Im"
        assert comps["theta4"] == "-ell*p0"
        assert comps["theta01"] == "-x1"
        assert comps["theta_x1"] == "ell^2*M01"

    def test_diff_p0_includes_phi_over_ell(self):
        out = run_cli("diff", "p0")
        comps = json.loads(out.stdout)["result"]["differential"]
        assert comps["theta4"] == "ell^-1*phi*x0"

    def test_diff_tangent_regime(self, tmp_path):
        spec = write_spec(tmp_path, {"regime": "tangent"})
        out = run_cli("--spec", spec, "diff", "x0")
        comps = json.loads(out.stdout)["result"]["differential"]
        assert comps == {"theta0": "Im", "theta4": "-ell*p0*Im"}

    def test_diff_reads_the_spec_parameters(self, tmp_path):
        # the table has ell = 2, and so has the scale -i/ell of the
        # derivation d^4: theta4 = -ell*p0 reads -2*p0
        spec = write_spec(tmp_path, {"parameters": {"ell": "2"}})
        out = run_cli("--spec", spec, "diff", "x0")
        assert out.returncode == 0
        comps = json.loads(out.stdout)["result"]["differential"]
        assert comps == {"theta0": "Im", "theta01": "-x1", "theta02": "-x2",
                         "theta03": "-x3", "theta4": "-2*p0",
                         "theta_x1": "4*M01", "theta_x2": "4*M02",
                         "theta_x3": "4*M03"}

    @pytest.mark.parametrize("gen", ["x0", "p1", "Im", "M23"])
    def test_diff_with_bound_parameters_is_the_symbolic_result_bound(
            self, tmp_path, capsys, gen):
        from ncspacetime import cli
        from ncspacetime.algebra import build_deformed_algebra
        from ncspacetime.minilang import format_env, parse_element
        from ncspacetime.specfile import load_specfile
        bound = {"ell": "1/2*i", "phi": "3", "R_inv": "2"}
        results = []
        for params in ({}, bound):
            spec = write_spec(tmp_path, {"parameters": params})
            assert cli.main(["--spec", spec, "diff", gen]) == 0
            results.append(json.loads(capsys.readouterr().out)["result"])
        symbolic, numeric = (r["differential"] for r in results)
        spec = load_specfile({"parameters": bound})
        clean = build_deformed_algebra(spec.signature, "full")
        want = {}
        for theta, text in symbolic.items():
            elem = parse_element(text, clean).map_scalars(
                lambda c: c.substitute(spec.numeric))
            if not elem.is_zero:
                want[theta] = format_env(elem, "full")
        assert numeric == want
        assert all("ell" not in text and "phi" not in text
                   for text in numeric.values())

    def test_diff_rejects_a_negative_power_of_zero(self, tmp_path):
        # theta4 of d(p0) is ell^-1*phi*x0
        spec = write_spec(tmp_path, {"parameters": {"ell": "0"}})
        out = run_cli("--spec", spec, "diff", "p0")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == ("ncst: d(p0) holds a negative power of a "
                              "parameter bound to 0\n")

    def test_diff_on_a_clean_spec_binds_nothing(self, tmp_path, capsys,
                                               monkeypatch):
        """A spec with no numeric binding prints the symbolic result and
        substitutes nothing."""
        from ncspacetime import cli, scalars
        calls = []
        substitute = scalars.Scalar.substitute
        monkeypatch.setattr(scalars.Scalar, "substitute",
                            lambda *a: calls.append(1) or substitute(*a))
        outs = []
        for doc in ({}, {"parameters": {"ell": "symbolic"}}):
            spec = write_spec(tmp_path, doc)
            assert cli.main(["--spec", spec, "diff", "p0"]) == 0
            outs.append(json.loads(capsys.readouterr().out)["result"])
        assert outs[0] == outs[1]
        assert outs[0]["differential"]["theta4"] == "ell^-1*phi*x0"
        assert calls == []

    def test_diff_reads_the_spec_overrides(self, tmp_path):
        # theta0 is d^0(x0), read from [p0, x0], which the spec sets to 0
        clean = json.loads(run_cli("diff", "x0").stdout)
        spec = write_spec(tmp_path, {"structure_overrides": {"[p0,x0]": "0"}})
        out = run_cli("--spec", spec, "diff", "x0")
        assert out.returncode == 0
        comps = json.loads(out.stdout)["result"]["differential"]
        want = dict(clean["result"]["differential"])
        del want["theta0"]
        assert comps == want

    def test_diff_rejects_spacetime_regime(self, tmp_path):
        spec = write_spec(tmp_path, {"regime": "spacetime"})
        out = run_cli("--spec", spec, "diff", "X0")
        assert out.returncode == 2

    def test_tangent_spec_reports_translation_sector(self, tmp_path):
        spec = write_spec(tmp_path, {"regime": "tangent"})
        out = run_cli("--spec", spec, "verify")
        report = json.loads(out.stdout)
        entry = next(c for c in report["checks"]
                     if c["name"] == "tangent_translation_sector")
        assert entry["status"] == "pass"
        assert entry["details"]["entries"]["[p0,p1]"] == "0"
        assert entry["details"]["entries"]["[p0,Im]"] == "0"
        assert entry["details"]["entries"]["[x0,Im]"] != "0"

    def test_curvature_zero_reports_sign(self):
        out = run_cli("curvature", "--zero")
        report = json.loads(out.stdout)
        assert report["result"]["phi_term_sign"] == -1
        assert report["result"]["phi_term_on_x0_d0_d1"] == "phi*x1"
        assert out.returncode == 0

    def test_curvature_with_connection_file(self, tmp_path):
        conn = tmp_path / "conn.json"
        conn.write_text(json.dumps({"0": "p0", "1": "x1*Im", "4": "M03"}),
                        encoding="utf-8")
        out = run_cli("curvature", "--connection", str(conn))
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_rep_5d_exact(self):
        out = run_cli("rep", "5d")
        report = json.loads(out.stdout)
        check = next(c for c in report["checks"]
                     if c["name"] == "rep_5d_brackets")
        assert check["status"] == "pass"
        assert check["max_residual"] == "exact-zero"

    def test_rep_so32_tolerance_flag(self, tmp_path):
        """rep.tolerance, and --tolerance over it, set the boost_group_law
        threshold; the bracket check is exact and reads neither."""
        def checks(tolerance, *flags):
            spec = write_spec(tmp_path, {"rep": {
                "sigma": 1.5, "samples": 60, "seed": 3,
                "tolerance": tolerance}}, f"t{tolerance!r}.json")
            out = run_cli(*flags, "--spec", spec, "rep", "so32")
            return out.returncode, {c["name"]: c for c in
                                    json.loads(out.stdout)["checks"]}

        rc, got = checks(1e-8)
        assert rc == 0
        assert got["rep_so32_brackets"]["max_residual"] == "exact-zero"
        law = got["boost_group_law"]["max_residual"]
        assert 0 < law <= 1e-8
        rc, got = checks(law / 2)
        assert rc == 1
        assert got["boost_group_law"]["status"] == "fail"
        assert got["rep_so32_brackets"]["status"] == "pass"
        rc, got = checks(law / 2, "--tolerance", repr(law))
        assert rc == 0
        assert got["boost_group_law"]["status"] == "pass"
        rc, got = checks(1e-8, "--tolerance", repr(law / 2))
        assert rc == 1
        assert got["boost_group_law"]["status"] == "fail"

    @pytest.mark.parametrize("sigma", [1e160, 1e300])
    def test_rep_so32_huge_sigma_fails_with_report(self, tmp_path, sigma):
        spec = write_spec(tmp_path, {"rep": {"sigma": sigma, "samples": 20}})
        out = run_cli("--spec", spec, "rep", "so32")
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        checks = {c["name"]: c for c in json.loads(out.stdout)["checks"]}
        assert checks["boost_group_law"]["status"] == "fail"
        assert checks["boost_group_law"]["max_residual"] == "inf"
        # the brackets are exact at any finite sigma
        assert checks["rep_so32_brackets"]["max_residual"] == "exact-zero"

    def test_rep_so32_singular_boost_point_fails_the_check(
            self, monkeypatch, capsys):
        """A BoundaryPointError at one sample point fails the boost check
        that met it and names the point; it does not escape main."""
        from ncspacetime import cli, reps
        boost = reps.boost_14_point
        calls = []

        def singular_third(t, phi1, phi2, theta1):
            calls.append((phi1, phi2, theta1))
            if len(calls) == 3:
                raise reps.BoundaryPointError("boosted ray collapses")
            return boost(t, phi1, phi2, theta1)

        monkeypatch.setattr(reps, "boost_14_point", singular_third)
        assert cli.main(["rep", "so32"]) == 1
        checks = {c["name"]: c for c in
                  json.loads(capsys.readouterr().out)["checks"]}
        law = checks["boost_group_law"]
        assert law["status"] == "fail"
        assert law["max_residual"] == "inf"
        assert f"boost singular at (phi1, phi2, theta1) = {calls[2]!r}" \
            in law["details"]
        assert checks["boost_identity_at_zero"]["status"] == "pass"
        assert checks["rep_so32_brackets"]["status"] == "pass"

    def test_rep_so32_explicit_seed_zero_wins(self, tmp_path):
        def residuals(rep_seed, *flags):
            spec = write_spec(tmp_path, {"rep": {
                "samples": 20, "seed": rep_seed}}, f"s{rep_seed}.json")
            report = json.loads(run_cli(*flags, "--spec", spec,
                                        "rep", "so32").stdout)
            checks = {c["name"]: c["max_residual"] for c in report["checks"]}
            assert checks["rep_so32_brackets"] == "exact-zero"
            # the seed picks the boost check's points and test function
            return report["seed"], checks["boost_group_law"]

        seed, forced = residuals(7, "--seed", "0")
        assert seed == 0
        assert forced == residuals(0)[1]
        spec_seed, own = residuals(7)
        assert spec_seed == 7 and own != forced

    def test_casimir_deep_centrality(self):
        out = run_cli("casimir", "2", "--deep")
        assert out.returncode == 0
        report = json.loads(out.stdout)
        names = {c["name"]: c["status"] for c in report["checks"]}
        assert names["casimir_c2_centrality"] == "pass"
        assert names["casimir_c2_centrality_oracle"] == "pass"

    def test_casimir_echoes_and_applies_the_tolerance(self, monkeypatch,
                                                       capsys):
        """--tolerance reaches the Casimir matrix oracle and is echoed, as
        under verify; without it the report has no tolerance field."""
        from ncspacetime import cli
        oracle, seen = cli.check_casimir_oracle, []

        def recorded(sig, kind, elem, tol=None):
            seen.append(tol)
            return oracle(sig, kind, elem, tol)

        monkeypatch.setattr(cli, "check_casimir_oracle", recorded)
        rc, out, _ = main_in_process(
            ["--tolerance", "1e-300", "casimir", "2"], capsys)
        assert (rc, json.loads(out)["tolerance"], seen) == (0, 1e-300,
                                                            [1e-300])
        rc, out, _ = main_in_process(["casimir", "2"], capsys)
        assert (rc, seen[1:]) == (0, [None])
        assert "tolerance" not in json.loads(out)

    def test_rep_so32_echoes_the_tolerance_flag(self, capsys):
        rc, out, _ = main_in_process(
            ["--tolerance", "1e-3", "rep", "so32"], capsys)
        assert (rc, json.loads(out)["tolerance"]) == (0, 1e-3)
        rc, out, _ = main_in_process(["rep", "so32"], capsys)
        assert rc == 0 and "tolerance" not in json.loads(out)

    @pytest.mark.parametrize("argv", [
        ["commute", "x0", "p0"], ["diff", "x0"], ["curvature", "--zero"],
        ["clifford"], ["rep", "5d"]], ids=" ".join)
    def test_tolerance_is_refused_where_no_check_reads_it(self, capsys,
                                                          argv):
        """These reports have no threshold, so --tolerance exits 2 with one
        line naming the command and prints no report."""
        name = " ".join(argv[:2]) if argv[0] == "rep" else argv[0]
        rc, out, err = main_in_process(["--tolerance", "1e-3"] + argv,
                                       capsys)
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith(f"ncst: {name} ")
        assert "--tolerance" in err
        assert main_in_process(argv, capsys)[0] == 0
