"""Golden digest of the `ncst clifford` reports.

One SHA-256 over the exit code and the stdout bytes of `ncst --spec S
clifford` for every spec document of closure_reference.CELL_DOCS (four
signatures; N from 2 to 50; the cell workload's on- and off-locus values;
Gaussian-rational prefactors; a zero prefactor; classes that share a
prefactor value) and of `ncst clifford` on the default spec.  The pinned
value was computed while closure_report still computed every coefficient
once per match, so a change that moves any byte of these reports fails
this test.
"""

import hashlib
import json

from closure_reference import CELL_DOCS
from ncspacetime import cli

GOLDEN = "238e84d7e4b559e7baff0b139e294b871ea7b326f0f556cb746c1a2a7718614f"


def report_digest(tmp_path, capsys) -> str:
    digest = hashlib.sha256()
    for k, doc in enumerate((None,) + CELL_DOCS):
        argv = ["clifford"]
        if doc is not None:
            path = tmp_path / f"spec{k}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["--spec", str(path)] + argv
        code = cli.main(argv)
        digest.update(f"{code}\n".encode())
        digest.update(capsys.readouterr().out.encode())
    return digest.hexdigest()


def test_clifford_report_digest(tmp_path, capsys):
    assert report_digest(tmp_path, capsys) == GOLDEN
