"""Fuzz gate for the CLI: argv values of the right argparse type, malformed JSONL.

Whatever the values, ``main`` exits 0, 2, 3 or 4; a nonzero exit prints
exactly one ``error:`` line to stderr and leaves --out unwritten, and exit 0
prints nothing there.  The size cap is small, so huge sizes exit 4 before
any work is done.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtorus.cli import main

#: The cap every example runs under, unless it sets its own.
CAP = "64"

HUGE = (10**6, 10**9, 2**62, 10**30)
ints = st.one_of(st.integers(1, 12), st.integers(-3, 40), st.sampled_from(HUGE))
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((1.0, 1.0001, 1.25, 2.0, 1e30, 1e300)),
)
m_ranges = st.one_of(
    st.builds("{}..{}".format, ints, ints),
    ints.map(str),
    st.sampled_from(("", "..", "2..", "..5", "a..b", "1.5..2", "2...4", " 2..3 ")),
)
z0s = st.lists(
    st.sampled_from(
        ("1", "-1", "1j", "-1j", "0.6+0.8j", "(0.6-0.8j)", "2", "0", "nan", "inf", "x", "")
    ),
    max_size=4,
).map(",".join)
family_values = st.one_of(
    ints.map(str),
    floats.map(str),
    st.sampled_from(("factorial", "constant", "", "x")),
)
family_params = st.one_of(
    st.builds(
        "{}={}".format, st.sampled_from(("a", "s", "K", "rule", "Jmax", "x")), family_values
    ),
    st.sampled_from(("", "noequals", "=", "K")),
)
families = st.one_of(
    st.sampled_from(
        (
            "analytic:a=1:K=2",
            "gevrey:s=2:K=3",
            "profile:rule=factorial:s=1:Jmax=30",
            "profile:rule=constant:Jmax=10",
        )
    ),
    st.builds(
        lambda kind, params: ":".join((kind, *params)),
        st.sampled_from(("analytic", "gevrey", "profile", "bogus", "")),
        st.lists(family_params, max_size=4),
    ),
)
malformed_lines = st.sampled_from(
    (
        "{",
        "null",
        "[]",
        "garbage",
        '{"k": [1]}',
        '{"k": [], "re": 1, "im": 0}',
        '{"k": [1.5], "re": 1, "im": 0}',
        '{"k": [true], "re": 1, "im": 0}',
        '{"k": "1", "re": 1, "im": 0}',
        '{"k": [1], "re": "x", "im": 0}',
        '{"k": [1], "re": NaN, "im": 0}',
        '{"k": [1], "re": 1e400, "im": 0}',
        '{"k": [99999999999999999999], "re": 1, "im": 0}',
        '{"k": [1, 2], "re": 1, "im": 0}',
        '{"k": [1], "re": 1, "im": 0, "extra": 1}',
    )
)


@st.composite
def jsonl_files(draw):
    """Lines of a coefficient file: valid lines of one dimension, and malformed ones.

    A valid line's real part may be near the float max, so that each modulus
    is finite and two of them sum past it.
    """
    near_max = st.floats(sys.float_info.max / 2, sys.float_info.max)
    valid = st.builds(
        lambda k, re_, im: json.dumps({"k": k, "re": re_, "im": im}),
        st.lists(st.integers(-6, 6), min_size=(dim := draw(st.integers(1, 3))), max_size=dim),
        st.floats(-1e3, 1e3) | near_max | near_max.map(float.__neg__),
        st.floats(-1e3, 1e3),
    )
    return draw(st.lists(st.one_of(valid, valid, malformed_lines), max_size=8))


#: Each option a command accepts and the values it is drawn from.
SHARED = {"--n": ints, "--Jmax": ints, "--seed": ints}
OPTIONS = {
    "norms": SHARED,
    "tau": {**SHARED, "--m": m_ranges, "--rmax": ints},
    "verdict": {**SHARED, "--m": m_ranges, "--rmax": ints},
    "interp": {
        **SHARED,
        "--m": m_ranges,
        "--samples": ints,
        "--t": floats,
        "--z0": z0s,
        "--engine": st.sampled_from(("alias", "diagonal")),
    },
}


@st.composite
def cli_cases(draw):
    """(argv without --input and --out, JSONL lines for --input or None)."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for flag, values in OPTIONS[command].items():
        # interp's default of 256 samples is past the cap: give --samples always.
        if draw(st.booleans()) or (command, flag) == ("interp", "--samples"):
            # --flag=value, so values that start with '-' stay values.
            argv.append(f"{flag}={draw(values)}")
    if command == "interp" and draw(st.booleans()):
        argv.append("--tm")
    source = draw(st.sampled_from(("family", "family", "input", "input", "both", "neither")))
    if source in ("family", "both"):
        argv.append(f"--family={draw(families)}")
    lines = draw(jsonl_files()) if source in ("input", "both") else None
    return argv, lines


def run_main(argv, lines, cap):
    """(exit code, stderr, whether --out exists) of one ``main`` call in a fresh directory."""
    env = {"QTORUS_GRID_CAP": cap}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env):
        args = list(argv)
        if lines is not None:
            path = Path(tmp) / "c.jsonl"
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            args.append(f"--input={path}")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*args, f"--out={out}"])
        return code, err.getvalue(), out.exists()


#: Explicit cases: --samples below 1, a non-finite --t, samples past the
#: float range (t^64 at the default --m), a malformed cap, a huge --n, a
#: family box of 3^100000 modes at the default cap, a huge --rmax, a
#: verdict --rmax past the float range, two moduli that sum past it and one
#: modulus near it.
ONE_MODE = ['{"k": [1], "re": 1, "im": 0}']
NEAR_MAX = ['{"k": [1], "re": 1.5e308, "im": 0}', '{"k": [-1], "re": -1.5e308, "im": 1}']
FAMILY = "--family=analytic:a=1:K=2"


@settings(max_examples=200, deadline=None)
@given(case=cli_cases(), cap=st.just(CAP))
@example(case=(["interp", "--samples=0", FAMILY, "--m=2..3"], None), cap=CAP)
@example(case=(["interp", "--samples=-3", "--m=2..3"], ONE_MODE), cap=CAP)
@example(case=(["interp", "--t=inf", "--samples=8", FAMILY, "--m=2..3"], None), cap=CAP)
@example(case=(["interp", "--t=nan", "--samples=8", FAMILY, "--m=2..3"], None), cap=CAP)
@example(case=(["interp", "--t=104942.0", "--samples=1", FAMILY], None), cap=CAP)
@example(case=(["norms", FAMILY], None), cap="1e6")
@example(case=(["norms", FAMILY, "--n=1000000000"], None), cap=CAP)
@example(case=(["norms", "--family=analytic:a=1:K=1", "--n=100000"], None), cap="1000000")
@example(case=(["tau", FAMILY, "--rmax=1000000000"], None), cap=CAP)
@example(case=(["verdict", FAMILY, "--m=2..3", f"--rmax={10**400}"], None), cap=CAP)
@example(case=(["interp", "--samples=1", "--m=2..3"], NEAR_MAX), cap=CAP)
@example(case=(["norms"], NEAR_MAX[:1]), cap=CAP)
def test_main_exits_with_a_contract_code_and_one_error_line(case, cap):
    argv, lines = case
    code, err, wrote = run_main(argv, lines, cap)
    assert code in (0, 2, 3, 4)
    if code:
        assert err.count("error:") == 1
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
        assert not wrote
    else:
        assert err == ""
