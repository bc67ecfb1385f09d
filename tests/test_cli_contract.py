"""Contract of ``cli.main`` over generated command lines.

Every argv either succeeds, fails verification, is rejected as input or
reports an internal inconsistency (exit 0, 1, 2 or 3), never escapes as an
exception, prints nothing on stdout when it exits 2 or 3, and prints the
same bytes when run again.  The argv follow the documented flag grammar,
with values drawn from ordinary, extreme and malformed numbers; ``--out``
is left out, since it writes a file.
"""

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracjunction.cli import main

NUMBERS = [
    "0", "1", "-1", "0.5", "2", "10", "1e-11", "1e11", "1e-200", "1e200",
    "1e-308", "1e308", "1.5e308", "5e-324", "nan", "inf", "-inf", "+infinity", "foo", "",
    # the bound B = 2^255 of every magnitude, and the next double above it
    "5.78960446186581e+76", "5.789604461865811e+76",
]
COMPLEX = NUMBERS + ["i", "-i", "1+i", "0.6+0.8i", "1.5e308+1.5e308i", "[1,0]", "[0.6, 0.8]", "[1]", "[1,0,3]", "{}"]
ALPHAS = ["0,1,1,0", "1,0,0,1", "-i,0,0,-i", "1,0,1,0", "1e15,0,0,1e-15", "1e-11,0,0,1e11"]
RHOS = ["0,0", "inf,inf", "inf,0.5", "0.7,-2.5", "1e300,-1e300"]
GAMMAS = ["1,0,1", "0,-i,i", "0.6+0.8i,0,1", "1,1e200,0"]
MATRICES = ["[[[0,0],[-1,0]],[[1,0],[0,0]]]", "[[[1,0],[0,0]],[[0,0],[1,0]]]", "[[[0.6,0],[0,0.8]],[[0,0.8],[0.6,0]]]"]
BAD_MATRICES = [
    "[[[1,0],[1,0]],[[0,0],[1,0]]]", "[[[2,0],[0,0]],[[0,0],[2,0]]]", "[[1,2]]",
    "[[{},[0,0]],[[0,0],[1,0]]]", "[[[1,0,5],[0,0]],[[0,0],[1,0]]]", "null", "{}", "nope",
]
#: a JSON integer too large for a float
HUGE_INT = "1" + "0" * 400


def _listed(items, count: int):
    """A comma list of ``count`` entries, sometimes one short or one over."""
    n = st.sampled_from([count, count, count, count - 1, count + 1])
    return n.flatmap(lambda k: st.lists(st.sampled_from(items), min_size=k, max_size=k)).map(",".join)


def _rarely():
    """True one draw in ten."""
    return st.sampled_from([False] * 9 + [True])


def _mostly(usual, wild):
    """Nine draws in ten from ``usual``."""
    return _rarely().flatmap(lambda rare: wild if rare else usual)


PAYLOADS = {
    "alpha": _mostly(st.sampled_from(ALPHAS), _listed(COMPLEX, 4)),
    "rho": _mostly(st.sampled_from(RHOS), _listed(NUMBERS, 2)),
    "gamma": _mostly(st.sampled_from(GAMMAS), _listed(COMPLEX, 3)),
    "matrix": _mostly(st.sampled_from(MATRICES), st.sampled_from(BAD_MATRICES)),
    "diag": _mostly(st.sampled_from(["1,-1", "i,1", "-1,-1"]), _listed(COMPLEX, 2)),
    "bd": _mostly(st.sampled_from(["pi/2,0,1,1,0", "0,2,0,0,0.5"]), _listed(NUMBERS, 5)),
    "fuzz": _mostly(st.sampled_from(["1", "3"]), st.sampled_from(["-1", "0", "x", "99999999999999999999"])),
}
#: payload flags each command, or convert direction, accepts
ACCEPTS = {
    "decompose": ["matrix"],
    "verify": ["alpha", "rho", "gamma", "matrix", "fuzz"],
    "scatter": ["alpha", "rho", "gamma", "matrix"],
    "demo-switch": [],
}
CONVERT = {
    "u2-to-bc": ["gamma", "matrix", "diag"],
    "bc-to-u2": ["alpha"],
    "alpha-to-bd": ["alpha"],
    "bd-to-alpha": ["bd"],
    "rho-to-u2": ["rho"],
}
MASS = _mostly(st.sampled_from(["0", "0.5", "1", "10"]), st.sampled_from(["1e200", "1e308", "-1", "nan", "inf"]))
TOL = _mostly(st.sampled_from(["1e-10", "1e-16", "1e-17"]), st.sampled_from(["1e-3", "1e-300", "0", "-1", "inf", "nan"]))
OPTIONS = {
    "decompose": {"tol": TOL},
    "convert": {"mass": MASS, "tol": TOL},
    "verify": {"mass": MASS, "tol": TOL, "seed": st.sampled_from(["0", "7", "-1"])},
    "scatter": {
        "mass": MASS,
        "tol": TOL,
        "face": _mostly(st.sampled_from(["left", "right"]), st.just("up")),
        "format": st.sampled_from(["csv", "json"]),
    },
    "demo-switch": {"phase": st.sampled_from(["pi/2", "-3pi/4", "0.3", "nan", "inf", "pi/0", "nope", ".pi", "-.pi/2"])},
}
GRID = {
    "emin": _mostly(st.sampled_from(["10.5", "12", "100"]), st.sampled_from(NUMBERS)),
    "emax": _mostly(st.sampled_from(["1e3", "1e4"]), st.sampled_from(NUMBERS)),
    "steps": _mostly(st.sampled_from(["2", "3", "5"]), st.sampled_from(["-1", "0", "1", "x"])),
}


@st.composite
def argvs(draw):
    """One command line: a subcommand, usually one accepted payload flag,
    then optional flags, all in drawn order."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    if command == "convert":
        direction = draw(st.sampled_from(sorted(CONVERT)))
        argv, accepts = [command, direction], CONVERT[direction]
    else:
        argv, accepts = [command], ACCEPTS[command]
    flags = {}
    if accepts:
        # one accepted payload, sometimes none or a second, possibly unaccepted one
        extra = st.lists(st.sampled_from(sorted(PAYLOADS)), max_size=1)
        payloads = draw(_mostly(st.lists(st.sampled_from(accepts), min_size=1, max_size=1), extra))
        if draw(_rarely()):
            payloads += draw(extra)
        flags.update((name, PAYLOADS[name]) for name in payloads)
    if command == "scatter":
        flags.update((name, GRID[name]) for name in GRID if not draw(_rarely()))
    options = OPTIONS[command]
    flags.update((name, options[name]) for name in draw(st.lists(st.sampled_from(sorted(options)), unique=True)))
    for name in draw(st.permutations(sorted(flags))):
        argv += [f"--{name}", draw(flags[name])]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # a usage error returns 2 as well: the parser raises ValidationError
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(argv=argvs())
@example(argv=["scatter", "--alpha", "1e15,0,0,1e-15", "--mass", "0",
               "--emin", "1.5", "--emax", "2", "--steps", "3"])
@example(argv=["scatter", "--alpha", "1e200,0,0,1e-200", "--mass", "1",
               "--emin", "1.5", "--emax", "2", "--steps", "3"])
@example(argv=["scatter", "--alpha", "1e7,0,0,1e-7", "--mass", "1",
               "--emin", "1.0000000000000002", "--emax", "1.000000000000001", "--steps", "4"])
@example(argv=["convert", "alpha-to-bd", "--alpha", "1e-11,0,0,1e11"])
@example(argv=["convert", "bc-to-u2", "--alpha", "1e-11,0,0,1e11"])
@example(argv=["convert", "alpha-to-bd", "--alpha", "1.5e308+1.5e308i,0,0,0"])
@example(argv=["verify", "--alpha", "1.5e308+1.5e308i,0,0,1e-308"])
@example(argv=["verify", "--alpha", "1.5e308+1.5e308i,0,0,1"])
@example(argv=["verify", "--alpha", "1.5e200,0,0,1e108-1e108i"])
@example(argv=["convert", "u2-to-bc", "--gamma", "1e308,-1,[1,0]"])
@example(argv=["verify", "--gamma", "1,1e200,0", "--mass", "1"])
@example(argv=["verify", "--alpha", "1e200,0,-1,i"])
@example(argv=["decompose", "--matrix", "[[[2,0],[0,0]],[[0,0],[2,0]]]", "--tol", "inf"])
@example(argv=["verify", "--rho", "inf,1e-300", "--mass", "1", "--tol", "nan"])
@example(argv=["convert", "bd-to-alpha", "--bd", "0,2,10,0,nan"])
@example(argv=["convert", "bd-to-alpha", "--bd", "+.pi/2,1,0,0,1"])
@example(argv=["scatter", "--rho", "0,0", "--mass", "1e308",
               "--emin", "1.5e308", "--emax", "1.7e308", "--steps", "2"])
@example(argv=["scatter", "--alpha", "1,1e308,1,1", "--emin", "1", "--emax", "2", "--steps", "2"])
@example(argv=["scatter", "--alpha", "1,0,0,1", "--emin", "1", "--emax", "2", "--steps", "1000000000000000"])
@example(argv=["verify", "--rho", "5.78960446186581e+76,0.5", "--mass", "5.78960446186581e+76"])
@example(argv=["verify", "--alpha", "5.78960446186581e+76,5.78960446186581e+76i,0,1.7272337110188889e-77"])
@example(argv=["scatter", "--rho", "0,0", "--mass", "1", "--emin", "2", "--emax", "5.789604461865811e+76",
               "--steps", "2"])
@example(argv=["verify", "--alpha", "0,1,1,0", "--seed", "-1"])
@example(argv=["demo-switch", "--phase", "nan"])
@example(argv=["demo-switch", "--phase", "pi/0"])
@example(argv=["decompose", "--matrix", "[[{},[0,0]],[[0,0],[1,0]]]"])
@example(argv=["decompose", "--matrix", "[[[1,0,5],[0,0]],[[0,0],[1,0]]]"])
@example(argv=["verify", "--alpha", "{},0,0,1"])
@example(argv=["verify", "--alpha", "[1,0,3],0,0,1"])
@example(argv=["verify", "--fuzz", "99999999999999999999"])
@example(argv=["convert", "rho-to-u2", "--rho", "+infinity,0"])
@example(argv=["decompose", "--matrix", "null"])
@example(argv=["decompose", "--matrix", "{}"])
@example(argv=["decompose", "--matrix", "nope"])
@example(argv=["decompose", "--matrix", f"[[[{HUGE_INT},0],[0,0]],[[0,0],[1,0]]]"])
@example(argv=["verify", "--alpha", f"[{HUGE_INT},0],0,0,1"])
def test_main_keeps_its_exit_code_contract(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, argv
    if code in (2, 3):
        assert out == "", argv
    assert _run(argv)[:2] == (code, out), argv
