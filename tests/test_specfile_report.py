import json
from pathlib import Path

import pytest

from ncspacetime.algebra import P_IDS, X_IDS
from ncspacetime.report import Check, Report, canonical_dumps
from ncspacetime.scalars import QQi, Scalar
from ncspacetime.specfile import SpecFile, SpecFileError, load_specfile


class TestSpecFile:
    def test_defaults(self):
        sf = load_specfile("{}")
        assert sf.signature.eps4 == 1 and sf.signature.eps5 == 1
        assert sf.regime == "full"
        spec = sf.build()
        assert len(spec.basis) == 15

    def test_signature_and_regime(self):
        sf = load_specfile(json.dumps(
            {"signature": {"eps4": -1, "eps5": 1}, "regime": "tangent"}))
        assert sf.signature.eps4 == -1
        assert sf.build().regime == "tangent"

    def test_invalid_signature(self):
        with pytest.raises(SpecFileError):
            load_specfile('{"signature": {"eps4": 2}}')

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecFileError):
            load_specfile('{"flavor": "strange"}')

    def test_unknown_regime(self):
        with pytest.raises(SpecFileError):
            load_specfile('{"regime": "lightcone"}')

    def test_parameter_bindings(self):
        sf = load_specfile(json.dumps(
            {"parameters": {"ell": "1", "phi": "symbolic"}}))
        spec = sf.build()
        # [x0, x1] = -i*eps4*ell^2*M01 becomes -i*M01 with ell = 1
        from ncspacetime.scalars import S_MINUS_I
        got = spec.bracket_ids(X_IDS[0], X_IDS[1])
        assert got.terms[(8,)] == S_MINUS_I

    def test_bad_binding(self):
        with pytest.raises(SpecFileError):
            load_specfile('{"parameters": {"ell": "x0"}}')
        with pytest.raises(SpecFileError):
            load_specfile('{"parameters": {"zeta": "1"}}')

    def test_finkelstein_block(self):
        sf = load_specfile(json.dumps({"finkelstein": {
            "n_cells": 3, "chi": "1/2", "phi_cell": "1/2"}}))
        assert sf.finkelstein.constraint_holds()
        sf2 = load_specfile(json.dumps({"finkelstein": {
            "n_cells": 3, "chi": "1/2*i", "phi_cell": "-1/2*i"}}))
        assert sf2.finkelstein.chi == QQi(0, "1/2")
        assert sf2.finkelstein.constraint_holds()

    def test_rep_block_validation(self):
        for tolerance in ("-1", "NaN", "Infinity", "1e999"):
            with pytest.raises(SpecFileError):
                load_specfile(f'{{"rep": {{"tolerance": {tolerance}}}}}')
        for sigma in ("NaN", "Infinity"):
            with pytest.raises(SpecFileError):
                load_specfile(f'{{"rep": {{"sigma": {sigma}}}}}')
        with pytest.raises(SpecFileError):
            load_specfile('{"rep": {"epsilon": 3}}')

    def test_structure_override(self):
        sf = load_specfile(json.dumps(
            {"structure_overrides": {"[p0,x0]": "0"}}))
        spec = sf.build()
        assert spec.bracket_ids(P_IDS[0], X_IDS[0]).is_zero

    def test_override_key_validation(self):
        with pytest.raises(SpecFileError):
            load_specfile(json.dumps(
                {"structure_overrides": {"p0 x0": "0"}})).build()
        with pytest.raises(SpecFileError):
            load_specfile(json.dumps(
                {"structure_overrides": {"[q0,x0]": "0"}})).build()

    def test_override_degree_limit(self):
        sf = load_specfile(json.dumps(
            {"structure_overrides": {"[p0,x0]": "x0*x0"}}))
        with pytest.raises(SpecFileError):
            sf.build()

    def test_invalid_json(self):
        with pytest.raises(SpecFileError):
            load_specfile("{nope")

    def test_readme_example_loads(self):
        # the example under "### Spec files" in README.md, so that a
        # misspelt field there fails here
        readme = (Path(__file__).parent.parent / "README.md").read_text(
            encoding="utf-8")
        section = readme[readme.index("### Spec files"):]
        example = section[section.index("```json") + len("```json"):]
        sf = load_specfile(example[:example.index("```")])
        assert sf.finkelstein.n_cells == 3
        assert sf.structure_overrides == {"[p0,x0]": "0"}
        sf.build()


class TestCanonicalJson:
    def test_sorted_keys_and_floats(self):
        text = canonical_dumps({"b": 1.5, "a": [1, 2.0], "c": "x"})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert "1.5" in text and "2" in text

    def test_seventeen_digit_floats(self):
        text = canonical_dumps(1.0 / 3.0)
        assert text == "0.33333333333333331"

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_dumps(float("nan"))

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            canonical_dumps(Scalar.one())
        # exact values are printed as rational strings before they get here
        with pytest.raises(TypeError):
            canonical_dumps(1 + 2j)

    def test_valid_json_output(self):
        obj = {"checks": [{"name": "a", "residual": 0.0}], "n": 3}
        parsed = json.loads(canonical_dumps(obj))
        assert parsed["n"] == 3


class TestReport:
    def test_status_summary_and_failure_flag(self):
        rep = Report("test", {})
        rep.add(Check("one", "pass"))
        rep.add(Check("two", "fail", 0.5))
        rep.add(Check("three", "skip"))
        d = rep.as_dict()
        assert d["summary"] == {"pass": 1, "fail": 1, "skip": 1}
        assert rep.failed

    def test_checks_sorted_by_name(self):
        rep = Report("test", {})
        rep.add(Check("zeta", "pass"))
        rep.add(Check("alpha", "pass"))
        names = [c["name"] for c in rep.as_dict()["checks"]]
        assert names == sorted(names)

    def test_dumps_deterministic(self):
        rep = Report("test", {"k": 1}, seed=7)
        rep.add(Check("c", "pass", 1.25e-13, {"note": "x"}))
        assert rep.dumps() == rep.dumps()
        parsed = json.loads(rep.dumps())
        assert parsed["seed"] == 7
        assert parsed["schema_version"] == "3"
        assert "constants" in parsed
