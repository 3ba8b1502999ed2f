"""The conventions every report prints (report.MODULE_CONSTANTS) against
the constants the code runs with.

report states them as literals, so that loading it loads neither reps nor
connections; this test is what keeps each literal equal to its code
constant.
"""

import subprocess
import sys

import pytest

from ncspacetime import connections, reps
from ncspacetime.report import MODULE_CONSTANTS

PRINTED = [
    ("phi_term_sign", connections.PHI_TERM_SIGN),
    ("boost_generator_sign", reps.BOOST_GENERATOR_SIGN),
    ("boost_exponent_factor", reps.BOOST_EXPONENT_FACTOR),
]


@pytest.mark.parametrize("key, value", PRINTED, ids=[k for k, _ in PRINTED])
def test_printed_constant_is_the_code_constant(key, value):
    printed = MODULE_CONSTANTS[key]
    assert (type(printed), printed) == (type(value), value)


def test_report_loads_neither_reps_nor_connections():
    code = ("import sys, ncspacetime.report; "
            "print(sorted(m for m in ('ncspacetime.reps', "
            "'ncspacetime.connections') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
