import errno
import json
import math
import os
import re
import struct
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracjunction.cli import (
    _COMMANDS,
    _PAYLOADS,
    _PART_INSTANCES,
    _PART_ROWS,
    FMT17,
    _rows_text,
    main,
    parse_angle,
    parse_args,
    parse_complex,
    to_json,
)
from diracjunction.boundary import AlphaBC, BDForm, ClassReport, Island, RhoBC, bd_to_alpha
from diracjunction.correspondence import Separating, Transmitting
from diracjunction.errors import InternalInconsistencyError, ValidationError
from diracjunction.matrix2 import DEFAULT_TOL, QuaternionForm
from diracjunction.scattering import ScatteringColumns, ScatteringResult
from helpers import B, BOUND_MATCH, BOUND_TEXT, leaving_the_class, rows_text

CSV_HEADER_FIELDS = "E,k,lambda,re_r,im_r,re_t,im_t,R,T,phase_t,flag".split(",")

ROT_JSON = "[[[0,0],[-1,0]],[[1,0],[0,0]]]"
IDENTITY_JSON = "[[[1,0],[0,0]],[[0,0],[1,0]]]"
SHEAR_JSON = "[[[1,0],[1,0]],[[0,0],[1,0]]]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_process(*args):
    """Run a fresh interpreter with the package's source tree on its path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def _reject_constant(token):
    raise ValueError(f"non-finite JSON value {token}")


class TestParsers:
    def test_parse_complex_shorthand(self):
        assert parse_complex("1+2i") == 1 + 2j
        assert parse_complex("-i") == -1j
        assert parse_complex("i") == 1j
        assert parse_complex("2.5e-3") == 2.5e-3
        assert parse_complex("[1.5,-0.25]") == 1.5 - 0.25j

    def test_parse_complex_rejects_garbage(self):
        for bad in ("foo", "1+2", "[1]", "inf"):
            with pytest.raises(ValidationError):
                parse_complex(bad)

    def test_json_pair_has_exactly_two_entries(self, capsys):
        # a three-entry [re, im] or a string was read by its first two entries, and a
        # matrix entry that is a JSON object ended in a KeyError traceback; an integer too
        # large for a float, in an OverflowError traceback
        for bad in ("[1,0,3]", "[]", "[1,0,[]]", f"[1{'0' * 400},0]"):
            with pytest.raises(ValidationError, match="bad complex literal"):
                parse_complex(bad)
        code, out, err = run(capsys, "verify", "--alpha", "[1,0,3],0,0,1")
        assert code == 2 and out == "" and "bad complex literal '[1,0,3]'" in err
        for matrix in (
            "[[{},[0,0]],[[0,0],[1,0]]]",
            '[[{"0": 1, "1": 0},[0,0]],[[0,0],[1,0]]]',
            "[[[1,0,5],[0,0]],[[0,0],[1,0]]]",
            '[["10",[0,0]],[[0,0],[1,0]]]',
        ):
            code, out, err = run(capsys, "decompose", "--matrix", matrix)
            assert code == 2 and out == "" and "bad matrix literal" in err

    def test_parse_rho(self):
        parse_rho = _PAYLOADS["rho"][1]
        r = parse_rho("inf,0.5", DEFAULT_TOL).rho
        assert math.isinf(r.rho_plus) and r.rho_minus == 0.5
        with pytest.raises(ValidationError):
            parse_rho("-inf,0", DEFAULT_TOL)
        with pytest.raises(ValidationError):
            parse_rho("1,2,3", DEFAULT_TOL)

    def test_parse_angle(self):
        assert parse_angle("pi/2") == pytest.approx(math.pi / 2)
        assert parse_angle("-pi/4") == pytest.approx(-math.pi / 4)
        assert parse_angle("3pi/2") == pytest.approx(3 * math.pi / 2)
        assert parse_angle("0.75") == 0.75
        assert [parse_angle(t) for t in ("2.5pi", ".5pi", "2.pi")] == [2.5 * math.pi, 0.5 * math.pi, 2.0 * math.pi]
        for text in (".pi", "-.pi/2", "+.pi/2"):  # a coefficient needs a digit
            with pytest.raises(ValidationError, match="bad angle"):
                parse_angle(text)

    def test_bracketed_entries_in_comma_lists(self, capsys):
        for flag, bracketed, plain in (
            ("--gamma", "[1,0],0,1", "1,0,1"),
            ("--gamma", "[0.6, 0.8],[0,0],[1,0]", "0.6+0.8i,0,1"),
            ("--diag", "[-1,0],-1", "-1,-1"),
            ("--alpha", "[0,0],[1,0],1,[0, 0]", "0,1,1,0"),
        ):
            direction = "bc-to-u2" if flag == "--alpha" else "u2-to-bc"
            code, out, err = run(capsys, "convert", direction, flag, bracketed)
            assert (code, err) == (0, "")
            assert out == run(capsys, "convert", direction, flag, plain)[1]

    def test_bracketed_list_still_counts_entries(self, capsys):
        code, out, err = run(capsys, "convert", "u2-to-bc", "--gamma", "[1,0],0")
        assert code == 2 and out == ""
        assert "needs 3 comma-separated values, got 2" in err

    @pytest.mark.parametrize(
        "direction, flag, text, message",
        [
            ("bc-to-u2", "--alpha", "0,1,1", "--alpha needs 4 comma-separated values, got 3"),
            ("u2-to-bc", "--gamma", "1,0,1,0", "--gamma needs 3 comma-separated values, got 4"),
            ("u2-to-bc", "--diag", "1", "--diag needs 2 comma-separated values, got 1"),
            ("rho-to-u2", "--rho", "1,2,3", "--rho needs 2 comma-separated values, got 3"),
            ("bd-to-alpha", "--bd", "1,2", "--bd needs 5 comma-separated values, got 2"),
            # every list flag keeps a bracketed pair whole; a rho is not a pair
            ("rho-to-u2", "--rho", "[1,2],3", "bad separating parameter '[1,2]'"),
        ],
    )
    def test_list_flags_count_their_values_in_one_wording(self, capsys, direction, flag, text, message):
        assert run(capsys, "convert", direction, flag, text) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "matrix",
        [
            "null", "{}", "nope", "[[1,2]]",
            "[[[1],[0,0]],[[0,0],[1,0]]]", "[[{},[0,0]],[[0,0],[1,0]]]", "[[[1,0,5],[0,0]],[[0,0],[1,0]]]",
            # an integer too large for a float was an OverflowError traceback
            pytest.param(f"[[[1{'0' * 400},0],[0,0]],[[0,0],[1,0]]]", id="integer-above-float-range"),
        ],
    )
    def test_malformed_matrix_names_the_literal_and_the_pair_form(self, capsys, matrix):
        code, out, err = run(capsys, "decompose", "--matrix", matrix)
        assert (code, out) == (2, "")
        assert err == f"error: bad matrix literal {matrix!r}: need two rows of two [re, im] pairs\n"
        assert not any(word in err for word in ("unpack", "iterable", "Expecting value"))

    def test_non_finite_matrix_entry_is_named(self, capsys):
        matrix = "[[[1,0],[0,0]],[[0,0],[NaN,0]]]"
        assert run(capsys, "decompose", "--matrix", matrix) == (
            2, "", "error: complex value must be finite, got [nan, 0]\n")

    @pytest.mark.parametrize("argv, literal", [
        (["decompose", "--matrix", "[" * 100_000], "bad matrix literal '[[["),
        (["verify", "--alpha", "[" * 100_000 + ",0,0,1"], "bad complex literal '[[["),
    ], ids=["matrix", "alpha"])
    def test_json_nested_too_deep_exits_2(self, capsys, argv, literal):
        # the decoder's RecursionError was a traceback with exit 1
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith(f"error: {literal}")

    def test_a_bad_bd_value_is_named_in_its_own_words(self, capsys):
        assert run(capsys, "convert", "bd-to-alpha", "--bd", "pi/2,x,1,1,0") == (2, "", "error: bad --bd value 'x'\n")

    @pytest.mark.parametrize("spelling", ["+infinity", "+Infinity"])
    def test_signed_infinity_is_the_pole(self, capsys, spelling):
        want = run(capsys, "convert", "rho-to-u2", "--rho", "infinity,0")
        assert want[0] == 0
        assert run(capsys, "convert", "rho-to-u2", "--rho", f"{spelling},0") == want

    def test_fmt17_roundtrips_bit_exactly(self):
        rng = np.random.default_rng(71)
        values = list(rng.standard_normal(200)) + [
            0.1,
            1 / 3,
            math.pi,
            1e-300,
            4.715,
        ]
        for v in values:
            assert float(FMT17 % v) == v


class TestDecompose:
    def test_rotation(self, capsys):
        code, out, _ = run(capsys, "decompose", "--matrix", ROT_JSON)
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma1"] == [0.0, 0.0]
        assert payload["gamma2"] == pytest.approx([1.0, 0.0])
        assert payload["gamma3"] == pytest.approx([1.0, 0.0])
        assert payload["branch"] == "u21_nonzero"

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "decompose", "--matrix", IDENTITY_JSON)
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma1"] == pytest.approx([1.0, 0.0])
        assert payload["branch"] == "u21_zero"

    def test_shear_exits_2_with_residual_on_stderr(self, capsys):
        code, out, err = run(capsys, "decompose", "--matrix", SHEAR_JSON)
        assert code == 2
        assert out == ""
        assert "residual" in err


class TestConvert:
    def test_u2_to_bc_transmitting(self, capsys):
        code, out, _ = run(
            capsys, "convert", "u2-to-bc", "--gamma", "0,-i,i", "--mass", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["type"] == "transmitting"
        np.testing.assert_allclose(
            np.array(payload["alpha"], dtype=float),
            [[1, 0], [0, 0], [0, 0], [1, 0]],
            atol=1e-15,
        )

    def test_u2_to_bc_separating_infinite(self, capsys):
        code, out, _ = run(capsys, "convert", "u2-to-bc", "--diag", "-1,-1")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "type": "separating",
            "rho_plus": "inf",
            "rho_minus": "inf",
        }

    def test_alpha_to_bd(self, capsys):
        code, out, _ = run(capsys, "convert", "alpha-to-bd", "--alpha", "0,1,1,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["theta"] == pytest.approx(3 * math.pi / 2)
        assert payload["a"] == pytest.approx([0, 1, 1, 0])

    def test_bd_to_alpha(self, capsys):
        code, out, _ = run(
            capsys, "convert", "bd-to-alpha", "--bd", "3pi/2,0,1,1,0"
        )
        assert code == 0
        payload = json.loads(out)
        np.testing.assert_allclose(
            np.array(payload["alpha"], dtype=float),
            [[0, 0], [1, 0], [1, 0], [0, 0]],
            atol=1e-15,
        )

    def test_bc_to_u2_with_comparison_block(self, capsys):
        code, out, _ = run(
            capsys, "convert", "bc-to-u2", "--alpha", "1,0,0,1", "--mass", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma1"] == pytest.approx([0.0, 0.0])
        assert payload["gamma2"] == pytest.approx([0.0, -1.0], abs=1e-15)
        assert payload["gamma3"] == pytest.approx([0.0, 1.0], abs=1e-15)
        block = payload["closed_form_comparison"]
        assert block["disagrees"] is True
        assert block["agrees_exactly"] is False

    def test_rho_to_u2(self, capsys):
        code, out, _ = run(capsys, "convert", "rho-to-u2", "--rho", "inf,inf")
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma_left"] == [-1.0, 0.0]
        assert payload["gamma_right"] == [-1.0, 0.0]

    def test_out_of_class_exits_2(self, capsys):
        code, _, err = run(capsys, "convert", "alpha-to-bd", "--alpha", "1,1,0,1")
        assert code == 2
        assert "class" in err

    def test_missing_payload_exits_2(self, capsys):
        code, _, err = run(capsys, "convert", "bc-to-u2")
        assert code == 2


class TestVerify:
    def test_valid_alpha_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--alpha", "0,1,1,0")
        assert code == 0
        assert out.strip().endswith("PASS")
        assert "class-constraints" in out

    def test_invalid_alpha_fails_with_residual(self, capsys):
        code, out, _ = run(capsys, "verify", "--alpha", "1,1,0,1")
        assert code == 1
        assert "FAIL class-constraints residual=1.000000e+00" in out

    def test_rho_payload(self, capsys):
        code, out, _ = run(capsys, "verify", "--rho", "0,inf", "--mass", "1")
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_matrix_payload(self, capsys):
        code, out, _ = run(capsys, "verify", "--matrix", ROT_JSON)
        assert code == 0
        assert "decomposition-round-trip" in out

    @pytest.mark.parametrize("payload", [
        ["--gamma", "0.6006,-0.8008,1"],
        ["--matrix", "[[[0.6006,0],[0.8008,0]],[[-0.8008,0],[0.6006,0]]]"],
    ])
    def test_a_unitary_the_tol_accepts_gets_a_verdict(self, capsys, payload):
        # |g1|^2 + |g2|^2 = 1.002001: inside --tol 0.01, as convert and
        # scatter read it, so verify measures its recomposition, not refuses it
        for argv in (["convert", "u2-to-bc"], ["scatter", "--emin", "0.5", "--emax", "1", "--steps", "2"]):
            assert run(capsys, *argv, *payload, "--tol", "0.01")[0] == 0
        code, out, err = run(capsys, "verify", *payload, "--tol", "0.01")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert lines[0] == "PASS decomposition-round-trip residual=0.000000e+00"
        assert "FAIL current-conservation residual=1.562109e-03" in lines
        assert lines[-1] == "FAIL"

    def test_fuzz(self, capsys):
        code, out, _ = run(capsys, "verify", "--fuzz", "50", "--mass", "1")
        assert code == 0
        assert "closed-form-inverse" in out
        assert out.strip().endswith("PASS")

    def test_no_payload_exits_2(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2

    @pytest.mark.parametrize("rho", ["1e10", "2e10", "1e12", "1e16", repr(B), repr(-B), "1e100", "1e300", "-1e300"])
    @pytest.mark.parametrize("mass", ["0", "1", "1e3"])
    def test_large_finite_rho_round_trips(self, capsys, rho, mass):
        # the unitary's phase is within tol of -1, not -1: it maps back to rho,
        # not to inf, up to |rho| = B; a larger rho is refused
        code, out, err = run(capsys, "verify", "--rho", f"{rho},0.5", "--mass", mass)
        if abs(float(rho)) > B:
            assert (code, out) == (2, "") and BOUND_TEXT in err
            return
        assert code == 0
        assert [line.split(" residual")[0] for line in out.splitlines()] == self.RHO_CHECKS + ["PASS"]

    ALPHA_CHECKS = [
        "PASS class-constraints",
        "PASS extension-round-trip",
        "PASS defining-identities",
        "PASS current-conservation",
        "PASS boundary-form-symmetry",
    ]
    RHO_CHECKS = [
        "PASS extension-round-trip",
        "PASS boundary-ratio-oracle",
        "PASS boundary-form-symmetry",
    ]

    @pytest.mark.parametrize(
        "argv, lines, code",
        [
            (["--alpha", "0,1,1,0", "--mass", "1"],
             ALPHA_CHECKS + ["INFO closed-form-inverse classification=sign_pair", "PASS"], 0),
            (["--rho", "0,inf", "--mass", "1"], RHO_CHECKS + ["PASS"], 0),
            (["--matrix", ROT_JSON],
             ["PASS decomposition-round-trip", *ALPHA_CHECKS,
              "INFO closed-form-inverse classification=sign_pair", "PASS"], 0),
            (["--gamma", "0,-i,i"],
             ["PASS decomposition-round-trip", *ALPHA_CHECKS,
              "INFO closed-form-inverse classification=mismatch", "PASS"], 0),
            (["--gamma", "1,0,1", "--mass", "0.5"],
             ["PASS decomposition-round-trip", *RHO_CHECKS, "PASS"], 0),
            (["--fuzz", "20", "--mass", "1"],
             ["PASS fuzz-class", "PASS fuzz-round-trip", "PASS fuzz-current",
              "PASS fuzz-scatter-unitarity", "PASS fuzz-rho-round-trip",
              "PASS fuzz-rho-reflection",
              "INFO closed-form-inverse exact=0 sign_pair=0 mismatch=20", "PASS"], 0),
            (["--alpha", "1,1,0,1"], ["FAIL class-constraints", "FAIL"], 1),
        ],
    )
    def test_output_structure(self, capsys, argv, lines, code):
        got_code, out, err = run(capsys, "verify", *argv)
        assert (got_code, err) == (code, "")
        got = out.splitlines()
        for line in got:
            if " residual=" in line:
                assert re.fullmatch(r".* residual=\d\.\d{6}e[+-]\d\d", line), line
        assert [line.split(" residual=")[0] for line in got] == lines

    def test_fuzz_solves_each_instance_once(self, capsys, monkeypatch):
        # each instance is mapped once, by the closed form; the linear-solve
        # oracle lives in ``deficiency``, which this path never imports
        # (TestNumpyFreeStart)
        from diracjunction import correspondence

        calls = 0
        original = correspondence.alpha_to_u2

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(correspondence, "alpha_to_u2", counted)
        code, out, _ = run(capsys, "verify", "--fuzz", "30", "--mass", "1")
        assert code == 0 and "mismatch=30" in out
        assert calls == 30

    def test_fuzz_instance_outside_tight_tolerance_fails(self, capsys, monkeypatch):
        from diracjunction import checks

        # under NORM_FLOOR every drawn member passes, so instance 1 is moved off the class
        monkeypatch.setattr(checks, "draw_fuzz", leaving_the_class(checks.draw_fuzz, 1))
        code, out, err = run(capsys, "verify", "--fuzz", "3", "--tol", "1e-20")
        assert (code, err) == (1, "")
        assert [line.split(" residual=")[0] for line in out.splitlines()] == [
            "FAIL fuzz-class", "FAIL"
        ]

    def test_report_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code, out, _ = run(capsys, "verify", "--rho", "0,inf", "--out", str(path))
        assert (code, out) == (0, "")
        assert path.read_text() == run(capsys, "verify", "--rho", "0,inf")[1]

    def test_fuzz_needs_positive_count(self, capsys):
        for n in ("-3", "0"):
            code, out, err = run(capsys, "verify", "--fuzz", n)
            assert code == 2
            assert out == "" and "N >= 1" in err

    def test_fuzz_count_above_maxsize_exits_2(self, capsys):
        # no part can slice so many instances from the stream; this was a ValueError traceback
        code, out, err = run(capsys, "verify", "--fuzz", "99999999999999999999")
        assert code == 2 and out == ""
        assert f"N <= {sys.maxsize} instances, got 99999999999999999999" in err


class TestPayloadFlags:
    """A command takes exactly one payload flag, and only one it reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["convert", "alpha-to-bd", "--alpha", "0,1,1,0", "--rho", "0,0"],
            ["convert", "u2-to-bc", "--gamma", "0,-i,i", "--matrix", ROT_JSON],
            ["convert", "rho-to-u2", "--rho", "0,0", "--diag", "1,1"],
            ["convert", "bd-to-alpha", "--bd", "0,1,0,0,1", "--alpha", "1,0,0,1"],
            ["verify", "--alpha", "0,1,1,0", "--rho", "0,0"],
            ["verify", "--matrix", ROT_JSON, "--fuzz", "5"],
            ["scatter", "--alpha", "0,1,1,0", "--gamma", "0,-i,i",
             "--emin", "0.5", "--emax", "2", "--steps", "2"],
        ],
    )
    def test_conflicting_payloads_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "takes exactly one of" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["demo-switch", "--mass", "5"],
            ["demo-switch", "--tol", "1e-3"],
            ["decompose", "--matrix", ROT_JSON, "--mass", "1"],
        ],
    )
    def test_undeclared_flags_exit_2(self, argv):
        p = run_process("-m", "diracjunction.cli", *argv)
        assert (p.returncode, p.stdout) == (2, "")
        assert "Traceback" not in p.stderr and "unrecognized arguments" in p.stderr


_GRID = ["--emin", "1.5", "--emax", "2", "--steps", "3"]


class TestFlagTable:
    """The command line is read word by word against one flag table: the word
    after a flag is its value, whatever it begins with."""

    @pytest.mark.parametrize(
        "argv, same_as, expected",
        [
            (["verify", "--alpha", "-1,0,0,-1"], ["verify", "--alpha=-1,0,0,-1"], "PASS\n"),
            (["convert", "u2-to-bc", "--diag", "-1,-1"], ["convert", "u2-to-bc", "--diag=-1,-1"],
             '{"type": "separating", "rho_plus": "inf", "rho_minus": "inf"}\n'),
            (["demo-switch", "--phase", "-pi/2"], ["demo-switch", "--phase=-pi/2"], "theta=-1.57079632679"),
            (["verify", "--alpha", "0,1,1,0", "--mass=0.5"],
             ["verify", "--alpha", "0,1,1,0", "--mass", "0.5"], "PASS\n"),
            (["verify", "--alpha", "0,1,1,0", "--mass", "3", "--mass", "0.5"],
             ["verify", "--alpha", "0,1,1,0", "--mass", "0.5"], "PASS\n"),
            (["scatter", "--rho=0,0", "--format", "csv", "--format", "json", *_GRID],
             ["scatter", "--rho", "0,0", "--format", "json", *_GRID], '"flag": ""}]\n'),
            (["convert", "--alpha", "0,1,1,0", "alpha-to-bd"], ["convert", "alpha-to-bd", "--alpha", "0,1,1,0"],
             '"theta"'),
        ],
    )
    def test_values_and_spellings(self, capsys, argv, same_as, expected):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and expected in out
        assert (code, out, err) == run(capsys, *same_as)

    def test_negative_mass_is_a_value_refused_by_check_mass(self, capsys):
        code, out, err = run(capsys, "verify", "--alpha", "0,1,1,0", "--mass", "-1")
        assert (code, out) == (2, "") and err == "error: mass must be finite and >= 0, got -1.0\n"

    def test_last_repeat_wins(self):
        args = parse_args(["scatter", "--rho", "0,0", "--mass", "3", *_GRID, "--mass=0.5", "--steps", "7"])
        assert (args.mass, args.steps, args.face, args.format, args.tol) == (0.5, 7, "left", "csv", 1e-10)

    @pytest.mark.parametrize(
        "argv",
        [["-h"], ["--help"], *([command, flag] for command in _COMMANDS for flag in ("-h", "--help")),
         ["verify", "--alpha", "0,1,1,0", "--help"], ["convert", "alpha-to-bd", "-h", "--no-such-flag"]],
    )
    def test_help_exits_0_on_stdout(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("usage: diracjunction ")
        if argv[0] in _COMMANDS:  # every flag of the command
            assert all(f"  --{name} " in out for name in _COMMANDS[argv[0]][3])
        else:
            assert all(f"  {name} " in out for name in _COMMANDS)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--alpha", "0,1,1,0", "--no-such-flag", "1"], "unrecognized arguments: --no-such-flag"),
            (["scatter", "--alpha", "0,1,1,0", *_GRID, "--form", "json"], "unrecognized arguments: --form"),
            (["scatter", "--alpha", "0,1,1,0", "--emax", "2", "--steps", "3"], "required: --emin"),
            (["convert", "--alpha", "0,1,1,0"], "required: direction"),
            (["convert", "alpha-to-bc", "--alpha", "0,1,1,0"], "invalid choice: 'alpha-to-bc'"),
            (["scatter", "--alpha", "0,1,1,0", *_GRID, "--face", "up"], "invalid choice: 'up'"),
            (["scatter", "--alpha", "0,1,1,0", "--emin", "1.5", "--emax", "2", "--steps", "2.5"],
             "invalid int value: '2.5'"),
            (["verify", "--alpha"], "argument --alpha: expected one argument"),
            (["verify", "--alpha", "0,1,1,0", "extra"], "unrecognized arguments: extra"),
            (["verify", "-m", "1", "--alpha", "0,1,1,0"], "unrecognized arguments: -m"),
            ([], "expected a command, one of decompose, convert, verify, scatter, demo-switch; got none"),
            (["--alpha", "0,1,1,0"], "expected a command"),
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1


class TestExitCodeContract:
    """Whole-process runs: exit code, stdout and a traceback-free stderr."""

    def test_negative_mass_exits_2(self):
        p = run_process("-m", "diracjunction.cli", "verify", "--alpha", "0,1,1,0", "--mass", "-1")
        assert p.returncode == 2
        assert p.stdout == ""
        assert "Traceback" not in p.stderr and "mass must be finite" in p.stderr

    #: a class member at m = 0 whose closed-form norms carry one rounding
    #: (2.2e-16), once held to a tol of 1e-16 and reported as exit 3
    TIGHT_ALPHA = (
        "0.524919988679781-0.336841435365076i,-0.619677463890008-0.9656801485176898i,"
        "1.0907096408775294+1.6997175294714997i,4.476319061761026-2.8724563179769653i"
    )

    #: a composed unitary whose unitarity residual (one rounding, 1.1e-16) a
    #: tol of 1e-16 once refused as input, with exit 2
    TIGHT_MATRIX = (
        "[[[0.5437037349174141, -0.46177395410113176], [-0.6489561939564392, 0.2645882126555009]], "
        "[[0.5206159760958524, 0.46915889566800595], [0.35468038611754155, 0.6189109465446959]]]"
    )

    @pytest.mark.parametrize(
        "argv",
        [
            ["--alpha", TIGHT_ALPHA],
            ["--matrix", TIGHT_MATRIX, "--mass", "1"],
            ["--fuzz", "3600", "--seed", "1"],
            ["--fuzz", "3600", "--seed", "2"],
        ],
    )
    def test_a_tol_of_1e_16_gets_a_verdict(self, argv):
        p = run_process("-m", "diracjunction.cli", "verify", *argv, "--tol", "1e-16")
        assert p.returncode in (0, 1), p.stderr
        assert p.stderr == "" and p.stdout.splitlines()[-1] in ("PASS", "FAIL")

    @pytest.mark.parametrize("argv, code, last", [
        (["verify", "--alpha", "1.00001,0,0,1"], 1, "FAIL"),
        (["convert", "bc-to-u2", "--alpha", "1.00001,0,0,1"], 0, '"max_abs_difference": 1.999999999975}}'),
    ])
    def test_closed_form_comparison_takes_the_tol(self, argv, code, last):
        # a class residual of 1e-5, inside a tol of 1e-3
        p = run_process("-m", "diracjunction.cli", *argv, "--tol", "1e-3")
        assert (p.returncode, p.stderr) == (code, "")
        assert p.stdout.splitlines()[-1].endswith(last)
        if code == 1:
            assert "FAIL defining-identities residual=1.000000e-05" in p.stdout

    @pytest.mark.parametrize("argv, codes", [
        (["verify", "--mass", repr(B)], (0, 1)),
        (["scatter", "--mass", repr(B / 2), "--emin", repr(0.75 * B), "--emax", repr(B), "--steps", "3"], (0,)),
        (["convert", "u2-to-bc", "--mass", repr(B)], (0,)),
    ])
    def test_a_class_member_at_a_huge_mass_has_no_nan_residual(self, argv, codes):
        # its parameters are near 0.75 B, where the products Re(a1 a2*) is
        # formed from are near B^2: no residual may come out as -inf + inf
        p = run_process("-m", "diracjunction.cli", *argv, "--gamma", "0.6,0.8i,i")
        assert p.returncode in codes and p.stderr == ""
        assert "nan" not in p.stdout.lower()
        if argv == ["verify"]:
            assert "PASS class-constraints residual=0.000000e+00" in p.stdout.splitlines()

    @pytest.mark.parametrize("argv", [
        ["convert", "alpha-to-bd"], ["scatter", "--emin", "1.5", "--emax", "3", "--steps", "3"],
    ])
    def test_b_form_rounding_passes_below_the_floor(self, argv):
        # draw 69 of checks._Draws(1): its b's carry 8.9e-16 of imaginary
        # rounding, over a tol of 1e-16 but inside matrix2.NORM_FLOOR
        alpha = ("-0.20796515407260754+0.26569379593430464i,-1.6604210814562612-1.2996529513088i,"
                 "0.5697121778539922+0.44592791648677299i,-4.613548701955518+5.8942146958061103i")
        p = run_process("-m", "diracjunction.cli", *argv, "--alpha", alpha, "--tol", "1e-16")
        assert (p.returncode, p.stderr) == (0, "")

    @pytest.mark.parametrize("where, reason", [("", "Is a directory"), ("missing/out.txt", "No such file")])
    def test_unwritable_out_exits_2(self, tmp_path, where, reason):
        path = tmp_path / where
        p = run_process("-m", "diracjunction.cli", "demo-switch", "--out", str(path))
        assert (p.returncode, p.stdout) == (2, "")
        assert "Traceback" not in p.stderr and f"cannot write --out {str(path)!r}: {reason}" in p.stderr
        assert not (tmp_path / "missing").exists()

    def test_negative_fuzz_count_exits_2(self):
        p = run_process("-m", "diracjunction.cli", "verify", "--fuzz", "-3")
        assert p.returncode == 2
        assert p.stdout == ""
        assert "Traceback" not in p.stderr

    def test_huge_mass_gives_finite_json(self):
        p = run_process(
            "-m", "diracjunction.cli", "convert", "bc-to-u2", "--alpha", "0,1,1,0", "--mass", repr(B)
        )
        assert p.returncode == 0
        assert p.stderr == ""
        payload = json.loads(p.stdout, parse_constant=_reject_constant)
        assert math.isfinite(payload["closed_form_comparison"]["max_abs_difference"])

    @pytest.mark.parametrize("condition", [["--alpha", "0,1,1,0"], ["--rho", "0,0"]])
    def test_huge_mass_scatter_rows_are_finite(self, condition):
        p = run_process(
            "-m", "diracjunction.cli", "scatter", *condition, "--mass", repr(B / 3),
            "--emin", repr(B * 2 / 3), "--emax", repr(B), "--steps", "2",
        )
        assert p.returncode == 0
        assert p.stderr == ""
        rows = [line.split(",") for line in p.stdout.splitlines()[1:]]
        assert len(rows) == 2
        assert all(math.isfinite(float(x)) for row in rows for x in row[:-1])

    @pytest.mark.parametrize(
        "mass, code", [("2.3e76", 0), (repr(B), 2), ("1e300", 2), ("1e307", 2), ("1e308", 2), ("1.7e308", 2)]
    )
    def test_overflowing_parameters_exit_2(self, capsys, mass, code):
        # at m = B the mass is in range but the parameters, near 2 B, are not,
        # and must not print as Infinity; above B the mass is refused
        got, out, err = run(capsys, "convert", "u2-to-bc", "--gamma", "0.6,0.8,1", "--mass", mass)
        assert got == code
        if code == 0:
            alpha = json.loads(out, parse_constant=_reject_constant)["alpha"]
            assert all(abs(x) <= B for pair in alpha for x in pair)
        else:
            assert out == "" and BOUND_TEXT in err

    def test_huge_alpha_converts_without_overflow(self):
        p = run_process(
            "-m", "diracjunction.cli", "convert", "alpha-to-bd", "--alpha", f"{B!r},0,0,{1 / B!r}"
        )
        assert p.returncode == 0
        assert "Traceback" not in p.stderr
        payload = json.loads(p.stdout, parse_constant=_reject_constant)
        assert payload == {"theta": 0.0, "a": [B, 0.0, 0.0, 1 / B]}

    def test_huge_class_member_converts_without_overflow(self):
        p = run_process(
            "-m", "diracjunction.cli", "convert", "alpha-to-bd", "--alpha", f"{B!r},{B!r}i,0,{1 / B!r}"
        )
        assert (p.returncode, p.stderr) == (0, "")
        payload = json.loads(p.stdout, parse_constant=_reject_constant)
        assert payload == {"theta": 0.0, "a": [B, B, 0.0, 1 / B]}

    def test_theta_zero_prints_positive_zero(self):
        p = run_process("-m", "diracjunction.cli", "convert", "alpha-to-bd", "--alpha", "0,i,i,0")
        assert (p.returncode, p.stderr) == (0, "")
        assert p.stdout == '{"theta": 0.0, "a": [0.0, 1.0, 1.0, 0.0]}\n'

    def test_overflowing_inverse_map_exits_2(self):
        # entries whose w overflows the inverse map are refused; at B it runs
        p = run_process(
            "-m", "diracjunction.cli", "convert", "bc-to-u2", "--alpha", "1e308,1e308i,0,1e-308",
            "--mass", "1",
        )
        assert (p.returncode, p.stdout) == (2, "")
        assert "Traceback" not in p.stderr and BOUND_TEXT in p.stderr
        p = run_process(
            "-m", "diracjunction.cli", "convert", "bc-to-u2", "--alpha", f"{B!r},{B!r}i,0,{1 / B!r}", "--mass", "1"
        )
        assert (p.returncode, p.stderr) == (0, "")
        json.loads(p.stdout, parse_constant=_reject_constant)

    def test_huge_out_of_class_alpha_exits_2(self):
        # max |a_i| = B; the class check must still see Im b2 = -B 1e-5
        p = run_process(
            "-m", "diracjunction.cli", "convert", "alpha-to-bd", "--alpha", f"{B!r},{B * 1e-5!r},0,{1 / B!r}"
        )
        assert p.returncode == 2
        assert p.stdout == ""
        assert "Traceback" not in p.stderr and "not in the class: distance 1.000e-05" in p.stderr

    def test_imaginary_part_beside_a_large_entry_exits_2(self):
        # Im b4 = 1e-6 is 1e-12 of max |a_i| but all of b1 b4's imaginary part;
        # no command takes the real parts diag(1e6, 1e-6) in its place
        alpha = "1e6,0,0,1e-6+1e-6i"
        for argv in (["convert", "alpha-to-bd"], ["scatter", "--emin", "1.5", "--emax", "3", "--steps", "2"]):
            p = run_process("-m", "diracjunction.cli", *argv, "--alpha", alpha)
            assert (p.returncode, p.stdout) == (2, "")
            assert "Traceback" not in p.stderr and "not in the class: distance 7.071e-01" in p.stderr
        p = run_process("-m", "diracjunction.cli", "verify", "--alpha", alpha)
        assert (p.returncode, p.stdout) == (1, "FAIL class-constraints residual=7.071068e-01\nFAIL\n")

    def test_tiny_a1_class_member_converts(self):
        # b = (1e-11, 0, 0, 1e11): a1 is below tol but a3 = 0, so pivot on a1
        p = run_process("-m", "diracjunction.cli", "convert", "alpha-to-bd", "--alpha", "1e-11,0,0,1e11")
        assert (p.returncode, p.stderr) == (0, "")
        assert p.stdout == '{"theta": 0.0, "a": [1e-11, 0.0, 0.0, 100000000000.0]}\n'
        p = run_process("-m", "diracjunction.cli", "convert", "bc-to-u2", "--alpha", "1e-11,0,0,1e11")
        assert (p.returncode, p.stderr) == (0, "")

    @pytest.mark.parametrize(
        "argv",
        [
            # b = (1e-11, 0, 0, 1e11): g2 = 2e-11 is small, not zero
            ["verify", "--alpha", "1e-11,0,0,1e11"],
            # |g2| of each instance is of order 1/m
            ["verify", "--fuzz", "5", "--mass", "1e38"],
            # ... and sqrt(1+m^2)/g2 is near B^2: the round trip fails
            ["verify", "--fuzz", "5", "--mass", repr(B / 2)],
        ],
    )
    def test_small_g2_is_a_transmitting_extension(self, argv):
        p = run_process("-m", "diracjunction.cli", *argv)
        assert p.returncode in (0, 1) and p.stderr == ""
        assert p.stdout.splitlines()[-1] in ("PASS", "FAIL")
        assert "INFO closed-form-inverse" in p.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ["convert", "alpha-to-bd", "--alpha", "1.5e308+1.5e308i,0,0,0"],
            ["verify", "--alpha", "1.5e308+1.5e308i,0,0,1e-308"],
            ["convert", "u2-to-bc", "--gamma", "1e308,-1,[1,0]"],
            ["verify", "--gamma", "1,1e200,0", "--mass", "1"],
            # a1 a4* would overflow abs() before the moduli were looked at
            ["verify", "--alpha", "1.5e308+1.5e308i,0,0,1"],
            # finite moduli, a determinant residual beyond the float range
            ["convert", "alpha-to-bd", "--alpha", "1.5e200,0,0,1e108-1e108i"],
        ],
    )
    def test_out_of_range_moduli_exit_2(self, argv):
        p = run_process("-m", "diracjunction.cli", *argv)
        assert (p.returncode, p.stdout) == (2, "")
        assert "Traceback" not in p.stderr and p.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--matrix", "[[[2,0],[0,0]],[[0,0],[2,0]]]", "--tol", "inf"],
            ["verify", "--rho", "inf,1e-300", "--mass", "1", "--tol", "nan"],
            ["scatter", "--rho", "0,0", "--emin", "1", "--emax", "2", "--steps", "2", "--tol", "0"],
            ["convert", "bd-to-alpha", "--bd", "0,2,10,0,nan"],
            ["demo-switch", "--phase", "nan"],
            # JSON [re, im] pairs, which json.loads reads as NaN/inf
            ["verify", "--alpha", "[NaN,0],0,0,1"],
            ["verify", "--gamma", "[Infinity,0],0,1"],
            ["decompose", "--matrix", "[[[1,0],[0,0]],[[0,0],[NaN,0]]]"],
            # a1 a4 - a2 a3 = 0: a tolerance of 1 or more would admit the non-member
            ["scatter", "--alpha", "1,0,1,0", "--tol", "1e300", "--emin", "1.2", "--emax", "3", "--steps", "3"],
            ["convert", "alpha-to-bd", "--alpha", "1,0,1,0", "--tol", "2"],
        ],
    )
    def test_non_finite_numbers_exit_2(self, argv):
        p = run_process("-m", "diracjunction.cli", *argv)
        assert (p.returncode, p.stdout) == (2, "")
        assert "Traceback" not in p.stderr and "must be finite" in p.stderr

    @pytest.mark.parametrize(
        "argv, code, stdout",
        [
            # b1 b4 + b2 b3 = 0: no class member, whatever the scale of a1
            (["convert", "alpha-to-bd", "--alpha", "1e5,0,0,0"], 2, ""),
            (["verify", "--alpha", "1e6,0,0,0"], 1,
             "FAIL class-constraints residual=1.000000e+00\nFAIL\n"),
            # b1 b4 + b2 b3 = 0 at the bound: the distance is still 1
            (["verify", "--alpha", f"{B!r},0,-1,i"], 1,
             "FAIL class-constraints residual=1.000000e+00\nFAIL\n"),
            # above B an entry is refused
            (["verify", "--alpha", "1e200,0,-1,i"], 2, ""),
            (["scatter", "--alpha", "1,1e308,1,1", "--emin", "1", "--emax", "2", "--steps", "2"], 2, ""),
        ],
        ids=["alpha-to-bd-1e5", "verify-1e6", "verify-B", "verify-1e200", "scatter-1e308"],
    )
    def test_determinant_constraints_take_the_scale_of_their_products(self, argv, code, stdout):
        p = run_process("-W", "error", "-m", "diracjunction.cli", *argv)
        assert (p.returncode, p.stdout) == (code, stdout), p.stderr
        assert "Traceback" not in p.stderr and "Warning" not in p.stderr

    def test_cli_import_leaves_scipy_out(self):
        # neither scipy nor numpy: the commands that need numpy import it
        p = run_process(
            "-c", "import sys, diracjunction.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
        )
        assert p.returncode == 0, p.stderr
        assert p.stdout.strip() == "[]"


#: Runs the CLI as ``python -m diracjunction.cli ARGS`` does, then prints its
#: exit code and which of numpy, scipy, dataclasses and inspect it loaded as
#: the last stderr line.
_MODULES_PROBE = """
import runpy, sys
try:
    runpy.run_module("diracjunction.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(code, sorted({"numpy", "scipy", "dataclasses", "inspect"} & set(sys.modules)), file=sys.stderr)
"""
_SWEEP = ["--emin", "1.2", "--emax", "3", "--steps", "16"]


def _big_sweep(steps: int) -> list[str]:
    return ["--emin", "1.2", "--emax", "3", "--steps", str(steps), "--out", os.devnull]


class TestNumpyFreeStart:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["decompose", "--matrix", ROT_JSON], 0),
            (["decompose", "--matrix", SHEAR_JSON], 2),
            (["convert", "u2-to-bc", "--gamma", "0,-i,i", "--mass", "1"], 0),
            (["convert", "u2-to-bc", "--matrix", ROT_JSON, "--mass", "10"], 0),
            (["convert", "u2-to-bc", "--diag", "-1,i", "--mass", "0.5"], 0),
            (["convert", "u2-to-bc", "--gamma", "1,1,1"], 2),
            (["convert", "bc-to-u2", "--alpha", "0,1,1,0", "--mass", "0.5"], 0),
            (["convert", "alpha-to-bd", "--alpha", "0,1,1,0"], 0),
            (["convert", "alpha-to-bd", "--alpha", "1,0,1,0"], 2),
            (["convert", "bd-to-alpha", "--bd", "3pi/2,0,1,1,0"], 0),
            (["convert", "rho-to-u2", "--rho", "inf,0.5", "--mass", "1"], 0),
            (["demo-switch"], 0),
            (["demo-switch", "--phase", "pi/2"], 0),
            (["demo-switch", "--phase", "nan"], 2),
            (["verify", "--alpha", "0,1,1,0", "--mass", "1"], 0),
            (["verify", "--rho", "inf,0.5", "--mass", "1"], 0),
            (["verify", "--gamma", "0,-i,i", "--mass", "10"], 0),
            (["verify", "--matrix", ROT_JSON], 0),
            (["verify", "--matrix", SHEAR_JSON], 2),
            (["verify", "--alpha", "1,1,0,1"], 1),
            (["verify", "--fuzz", "50"], 0),
            (["scatter", "--alpha", "0,1,1,0", "--mass", "1", *_SWEEP], 0),
            (["scatter", "--rho", "inf,0.5", "--mass", "1", "--face", "right", *_SWEEP, "--format", "json"], 0),
            (["scatter", "--gamma", "0,-i,i", "--mass", "0.5", *_SWEEP], 0),
            (["scatter", "--alpha", "0,1,1,0", "--mass", "0", *_SWEEP, "--format", "json"], 0),
            (["scatter", "--alpha", "1,1,0,1", *_SWEEP], 2),
            (["scatter", "--rho", "0,0", "--mass", "2", *_SWEEP], 2),
            # sweeps of any size run on lists
            (["scatter", "--alpha", "0,1,1,0", "--mass", "1", *_big_sweep(16_001)], 0),
            (["scatter", "--alpha", "0,1,1,0", "--mass", "1", *_big_sweep(40_000), "--format", "json"], 0),
            (["scatter", "--rho", "inf,0.5", "--mass", "1", *_big_sweep(16_001), "--format", "json"], 0),
            (["scatter", "--rho", "inf,0.5", "--mass", "1", "--face", "right", *_big_sweep(40_000)], 0),
            (["scatter", "--gamma", "0,-i,i", "--mass", "0.5", *_big_sweep(16_001)], 0),
            (["scatter", "--gamma", "0,-i,i", "--mass", "0.5", *_big_sweep(40_000), "--format", "json"], 0),
            (["scatter", "--alpha", "1,0,0,1", *_big_sweep(1_000_000_000_000_000)], 2),
        ],
    )
    def test_scalar_commands_leave_numpy_out(self, argv, code):
        p = run_process("-c", _MODULES_PROBE, *argv)
        assert p.stderr.splitlines()[-1] == f"{code} []", p.stderr

    def test_package_import_loads_no_submodule(self):
        p = run_process(
            "-c",
            "import sys, diracjunction; "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('diracjunction.')))",
        )
        assert p.returncode == 0, p.stderr
        assert p.stdout.strip() == "[]"

    def test_lazy_names_are_the_submodules_objects(self):
        import diracjunction
        from diracjunction import boundary, correspondence, deficiency, matrix2, scattering

        modules = (boundary, correspondence, deficiency, matrix2, scattering)
        assert set(diracjunction.__all__) <= set(dir(diracjunction))
        for name in diracjunction.__all__:
            value = getattr(diracjunction, name)
            owners = [module for module in modules if name in vars(module)]
            assert owners and all(vars(module)[name] is value for module in owners), name
            assert vars(diracjunction)[name] is value, name  # resolved once, then a dict hit
        with pytest.raises(AttributeError):
            getattr(diracjunction, "no_such_name")


#: Runs the CLI on ARGS by ROUTE: a plain ``sys.exit(main())``, ``python -m
#: diracjunction.cli`` (``-m``) or a console script's ``module:function``, called
#: as the script that installers generate calls it.  At exit, an ``atexit`` hook
#: prints as the last stderr line whether any object was frozen.
_ENTRY_PROBE = """
import atexit, gc, importlib, runpy, sys
route = sys.argv.pop(1)
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0, file=sys.stderr))
if route == "main":
    from diracjunction.cli import main
    sys.exit(main())
elif route == "-m":
    runpy.run_module("diracjunction.cli", run_name="__main__", alter_sys=True)
else:
    module, _, function = route.partition(":")
    sys.exit(getattr(importlib.import_module(module), function)())
"""


def _script_target() -> str:
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), "rb") as f:
        return tomllib.load(f)["project"]["scripts"]["diracjunction"]


class TestProcessEntry:
    """Both process entries exit with main's code and output, after freezing the
    heap so that shutdown does not collect it; main called in process freezes nothing."""

    def test_the_console_script_is_the_module_entry(self):
        assert _script_target() == "diracjunction.cli:run"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["verify", "--alpha", "0,1,1,0"], 0),
            (["verify", "--alpha", "1,1,0,1"], 1),
            (["verify", "--alpha", "0,1,1,0", "--fuzz", "5"], 2),
        ],
    )
    @pytest.mark.parametrize("route", ["-m", "script"])
    def test_entry_exits_as_main_does_after_a_freeze(self, route, argv, code):
        plain = run_process("-c", _ENTRY_PROBE, "main", *argv)
        entry = run_process("-c", _ENTRY_PROBE, _script_target() if route == "script" else "-m", *argv)
        *plain_err, plain_frozen = plain.stderr.splitlines()
        *entry_err, entry_frozen = entry.stderr.splitlines()
        assert (plain.returncode, plain_frozen) == (code, "frozen False")
        assert (entry.returncode, entry_frozen) == (code, "frozen True")
        assert entry.stdout == plain.stdout and entry_err == plain_err


class TestScatter:
    def test_csv_massless_spin_flip(self, capsys):
        code, out, _ = run(
            capsys,
            "scatter",
            "--alpha",
            "0,1,1,0",
            "--mass",
            "0",
            "--emin",
            "0.5",
            "--emax",
            "2",
            "--steps",
            "4",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "E,k,lambda,re_r,im_r,re_t,im_t,R,T,phase_t,flag"
        assert len(lines) == 5
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[7]) == pytest.approx(0.0, abs=1e-14)  # R
            assert float(cells[8]) == pytest.approx(1.0)  # T
            assert cells[10] == ""

    def test_csv_deterministic(self, capsys):
        args = (
            "scatter", "--alpha", "0,1,1,0", "--mass", "1",
            "--emin", "1.1", "--emax", "2.1", "--steps", "7",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_csv_values_roundtrip(self, capsys):
        code, out, _ = run(
            capsys,
            "scatter", "--alpha", "0,1,1,0", "--mass", "1",
            "--emin", "1.4142135", "--emax", "1.4142137", "--steps", "3",
        )
        assert code == 0
        row = out.strip().split("\n")[2].split(",")
        assert float(row[8]) == pytest.approx(0.5, abs=1e-6)

    def test_rho_rows_never_transmit(self, capsys):
        code, out, _ = run(
            capsys,
            "scatter", "--rho", "0,0", "--mass", "0",
            "--emin", "0.5", "--emax", "2", "--steps", "4",
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert float(line.split(",")[8]) == 0.0

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "scatter", "--alpha", "1,0,0,1", "--mass", "0",
            "--emin", "0.5", "--emax", "1.5", "--steps", "3",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3
        assert rows[0]["T"] == pytest.approx(1.0)
        assert set(rows[0]) == {
            "E", "k", "lambda", "re_r", "im_r", "re_t", "im_t", "R", "T",
            "phase_t", "flag",
        }

    def test_bad_grid_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "scatter", "--alpha", "0,1,1,0", "--mass", "0",
            "--emin", "2", "--emax", "1", "--steps", "4",
        )
        assert code == 2

    def test_out_of_class_alpha_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "scatter", "--alpha", "1,1,0,1", "--mass", "0",
            "--emin", "0.5", "--emax", "2", "--steps", "4",
        )
        assert code == 2

    def test_large_and_near_gap_conditions_give_finite_rows(self):
        # class members whose rows an absolute determinant threshold used to
        # blank out as resonances
        for alpha, mass, emin, emax, steps in (
            ("1e15,0,0,1e-15", "0", "1.5", "2", 3),
            (f"{B!r},0,0,{1 / B!r}", "1", "1.5", "2", 3),
            ("1e7,0,0,1e-7", "1", "1.0000000000000002", "1.000000000000001", 4),
        ):
            p = run_process(
                "-m", "diracjunction.cli", "scatter", "--alpha", alpha, "--mass", mass,
                "--emin", emin, "--emax", emax, "--steps", str(steps),
            )
            assert (p.returncode, p.stderr) == (0, "")
            lines = p.stdout.splitlines()
            assert lines[0] == ",".join(CSV_HEADER_FIELDS) and len(lines) == steps + 1
            for line in lines[1:]:
                *values, flag = line.split(",")
                values = [float(x) for x in values]
                assert flag == "" and all(map(math.isfinite, values))
                R, T = values[7], values[8]
                assert abs(R + T - 1.0) <= 1e-12
                if alpha == "1e7,0,0,1e-7":  # next to the gap
                    assert T == pytest.approx(4.0e-14, rel=1e-3)

    def test_json_text_matches_json_dumps(self):
        from diracjunction.cli import _rows_text, _sweep_bytes
        from diracjunction.scattering import ScatteringColumns, sweep_columns

        def dumps(cols):
            return json.dumps([dict(zip(CSV_HEADER_FIELDS, (*row, ""))) for row in zip(*cols)])

        for bc, m in (
            (Transmitting(AlphaBC(0, 1, 1, 0)), 1e-14),
            (Separating(RhoBC(math.inf, 0.5)), 1.0),
        ):
            cols = sweep_columns(bc, m + 0.4, 2.0, 7, m)
            args = _sweep_args("--mass", repr(m), "--emin", repr(m + 0.4), "--emax", "2.0", "--steps", "7",
                               "--format", "json")
            for parts in (1, 2):
                assert _sweep_bytes(bc, args, parts) == (dumps(cols) + "\n").encode()
        # json's spellings of signed zeros, subnormals and large floats
        cols = ScatteringColumns(*[[-0.0, 5e-324, 1e300, -1e300]] * 10)
        assert "[" + _rows_text(cols, "json") + "]" == dumps(cols)

    def test_infinite_grid_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            "scatter", "--rho", "0,0", "--mass", "0",
            "--emin", "0.5", "--emax", "inf", "--steps", "3",
        )
        assert code == 2 and out == ""

    def test_unallocatable_grid_exits_2(self):
        # 1e15 energies ask for a list of 7 PiB, which is refused at once
        p = run_process(
            "-m", "diracjunction.cli", "scatter", "--alpha", "1,0,0,1",
            "--emin", "1", "--emax", "2", "--steps", "1000000000000000",
        )
        assert (p.returncode, p.stdout) == (2, "")
        assert "Traceback" not in p.stderr and "no energy grid of 1000000000000000 steps" in p.stderr

    @pytest.mark.parametrize("steps", [str(2**63 - 1), "1" + "0" * 30])
    def test_grid_beyond_the_index_range_exits_2(self, capsys, steps):
        # refused by the size check before anything is allocated; 2^63 - 1
        # ended in numpy's IndexError traceback
        code, out, err = run(capsys, "scatter", "--alpha", "1,0,0,1", "--emin", "1", "--emax", "2", "--steps", steps)
        assert (code, out) == (2, "") and f"no energy grid of {steps} steps" in err

    def test_write_to_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys,
            "scatter", "--rho", "inf,inf", "--mass", "0",
            "--emin", "0.5", "--emax", "2", "--steps", "3",
            "--out", str(path),
        )
        assert code == 0
        assert out == ""
        text = path.read_text()
        assert text.startswith("E,k,lambda")
        assert text.endswith("\n")


def _sweep_args(*argv):
    return parse_args(["scatter", *argv])


def _parsed_rows(text: str, fmt: str) -> list[list[str]]:
    """The ten numeric fields of each output row, as ``repr`` of the float."""
    if fmt == "csv":
        header, *lines = text.splitlines()
        assert header == ",".join(CSV_HEADER_FIELDS)
        rows = [line.split(",") for line in lines]
        assert all(row[-1] == "" for row in rows)
        return [[repr(float(x)) for x in row[:-1]] for row in rows]
    records = json.loads(text)
    assert all(list(record) == CSV_HEADER_FIELDS and record["flag"] == "" for record in records)
    return [[repr(float(record[key])) for key in CSV_HEADER_FIELDS[:-1]] for record in records]


#: A condition per kind: transmitting (theta, b = 0.7, 2, 0.5, 1, 0.25),
#: separating, rho = inf at the left face, and the right face of a
#: separating condition.
_PART_CONDITIONS = [
    ("--alpha", "1.529684374568977+1.288435374475382i,-0.3221088436188455+0.38242109364224425i,"
     "-0.644217687237691+0.7648421872844885i,0.19121054682112212+0.16105442180942275i"),
    ("--rho", "0.3,-2"),
    ("--rho", "0.5,inf"),
    ("--rho", "0.7,-1.5", "--face", "right"),
]


class TestSweepParts:
    """A sweep cut into grid parts, the later ones rendered in forked
    workers, prints what one part prints, byte for byte."""

    def _check_parts(self, args, part_counts=(1, 2, 3, 4)):
        from diracjunction.cli import _CONDITION, _payload, _sweep_bytes
        from diracjunction.scattering import check_sweep, sweep_columns

        bc = _payload(args, _CONDITION)
        check_sweep(bc, args.emin, args.emax, args.steps, args.mass, args.tol)
        texts = [_sweep_bytes(bc, args, parts).decode() for parts in part_counts]
        assert all(text == texts[0] for text in texts)
        cols = sweep_columns(bc, args.emin, args.emax, args.steps, args.mass, Island(args.face), args.tol)
        assert _parsed_rows(texts[0], args.format) == [list(map(repr, row)) for row in zip(*cols)]
        return cols

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("m", [0.0, 0.5, 10.0, B / 4, 1e200])
    @pytest.mark.parametrize("condition", _PART_CONDITIONS)
    def test_parts_join_to_the_one_part_text(self, condition, m, fmt):
        grid = ["--emin", repr(1.2 * m + 0.1), "--emax", repr(3.0 * m + 2.0)]
        args = _sweep_args(*condition, "--mass", repr(m), *grid, "--steps", "11", "--format", fmt)
        if m > B:  # refused before any part runs
            with pytest.raises(ValidationError, match=BOUND_MATCH):
                self._check_parts(args)
            return
        self._check_parts(args)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("offset", [-1, 1])
    def test_parts_at_the_part_size(self, n, offset):
        fmt = ("csv", "json")[(n + offset) % 4 // 2]
        condition = _PART_CONDITIONS[n - 1]
        steps = _PART_ROWS * n + offset
        args = _sweep_args(
            *condition, "--mass", "10", "--emin", "10.5", "--emax", "13", "--steps", str(steps), "--format", fmt
        )
        assert len(self._check_parts(args).E) == steps

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_parts_of_a_grid_whose_step_underflows(self, fmt):
        # adjacent floats: the step (e_max - e_min) / 8 rounds to 0
        args = _sweep_args("--alpha", "0,1,1,0", "--emin", "5e-324", "--emax", "1e-323", "--steps", "9", "--format", fmt)
        cols = self._check_parts(args)
        assert cols.E == np.linspace(5e-324, 1e-323, 9).tolist()

    def test_part_count(self, monkeypatch, tmp_path):
        from diracjunction import cli

        monkeypatch.setattr(cli, "_CPU_MAX", str(tmp_path / "missing"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        for size in (_PART_ROWS, _PART_INSTANCES):  # sweep rows, fuzz instances
            for n in range(1, 9):
                assert cli._part_count(size * n - 1, size) == max(1, n - 1)
                assert cli._part_count(size * n + 1, size) == n
            assert cli._part_count(10**9, size) == 8
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._part_count(10**9, _PART_INSTANCES) == 3
        monkeypatch.delattr(os, "fork")
        assert cli._part_count(10**9, _PART_ROWS) == 1

    @pytest.mark.parametrize(
        "cpu_max, parts",
        [("max 100000\n", 8), ("150000 100000\n", 2), ("50000 100000\n", 1), ("", 8), ("garbage", 8), (None, 8)],
    )
    def test_part_count_keeps_to_the_cgroup_cpu_quota(self, monkeypatch, tmp_path, cpu_max, parts):
        from diracjunction import cli

        path = tmp_path / "cpu.max"
        if cpu_max is not None:  # else the file is missing
            path.write_text(cpu_max)
        monkeypatch.setattr(cli, "_CPU_MAX", str(path))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert cli._part_count(10**9, _PART_ROWS) == parts
        monkeypatch.setattr(cli, "_CPU_MAX", str(tmp_path))  # a directory: unreadable as a file
        assert cli._part_count(10**9, _PART_ROWS) == 8


#: values whose text is special: signed zeros, the non-finite values, and
#: floats near the ends of the range
SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.0, 5e-324, -1.7976931348623157e308, 0.1]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _columns(draw):
    """Ten columns of one length: constant (one object repeated, or equal
    bits in distinct objects), zeros of mixed sign, or anything."""
    n = draw(st.integers(1, 6))
    every_constant = draw(st.booleans())
    cols = []
    for _ in range(10):
        kind = "constant" if every_constant else draw(st.sampled_from(["constant", "copies", "zeros", "any"]))
        if kind == "constant":
            col = [draw(VALUES)] * n
        elif kind == "copies":  # distinct float objects with the same bits
            bits = struct.pack("d", draw(VALUES))
            col = [struct.unpack("d", bits)[0] for _ in range(n)]
        elif kind == "zeros":
            col = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n))
        else:
            col = draw(st.lists(VALUES, min_size=n, max_size=n))
        cols.append(col)
    return ScatteringColumns(*cols)


class TestConstantColumns:
    """The formatter writes a column whose values have one bit pattern once;
    its text is the text of formatting every row."""

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(cols=_columns())
    @example(cols=ScatteringColumns(*[[0.0, -0.0]] * 10))
    @example(cols=ScatteringColumns(*[[-0.0, 0.0, -0.0]] * 10))
    @example(cols=ScatteringColumns(*[[math.nan] * 3] * 10))
    @example(cols=ScatteringColumns(*[[math.nan, math.inf]] * 10))
    @example(cols=ScatteringColumns(*[[-math.inf]] * 10))
    def test_same_text_as_formatting_every_row(self, cols):
        for fmt in ("csv", "json"):
            assert _rows_text(cols, fmt) == rows_text(cols, fmt)

    @pytest.mark.parametrize("bc, mass, face", [
        (Transmitting(AlphaBC(0, 1, 1, 0)), "0", "left"),
        (Transmitting(bd_to_alpha(BDForm(0.7, 1.3, -0.4, 2.1, (1.0 + 0.4 * 2.1) / 1.3))), "0", "left"),
        (Transmitting(AlphaBC(1, 0, 0, 1)), "0.5", "left"),
        (Separating(RhoBC(math.inf, math.inf)), "0", "left"),
        (Separating(RhoBC(-0.0, 0.3)), "2", "right"),
        (Separating(RhoBC(0.3, -0.0)), "0", "left"),
    ])
    def test_sweeps_are_the_rows_formatted_one_by_one(self, bc, mass, face):
        from diracjunction.cli import _LAYOUT, _sweep_bytes
        from diracjunction.scattering import sweep_columns

        cols = sweep_columns(bc, 2.5, 4.0, 50, float(mass), Island(face))
        for fmt in ("csv", "json"):
            args = _sweep_args("--mass", mass, "--emin", "2.5", "--emax", "4", "--steps", "50", "--face", face,
                               "--format", fmt)
            _, _, _, head, tail = _LAYOUT[fmt]
            expected = (head + rows_text(cols, fmt) + tail).encode()
            assert _sweep_bytes(bc, args, 1) == _sweep_bytes(bc, args, 2) == expected


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked, with as many CPUs as parts wanted."""
    pids, fork = [], os.fork

    def counted_fork():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    return pids


#: The call that starts the second worker: the token pipe is the first pipe, the first worker's the second.
SECOND_WORKER = {"pipe": 3, "fork": 2}


def _second_fails(monkeypatch, failing):
    """Make the second worker's ``os.pipe`` or ``os.fork`` fail, as at a descriptor or process limit;
    returns the calls counted and the pipes made."""
    pipes, calls, pipe = [], {"pipe": 0, "fork": 0}, os.pipe

    def second_fails(name, call):
        def wrapped():
            calls[name] += 1
            if name == failing and calls[name] == SECOND_WORKER[name]:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return call()

        return wrapped

    monkeypatch.setattr(os, "fork", second_fails("fork", os.fork))
    monkeypatch.setattr(os, "pipe", second_fails("pipe", lambda: pipes.append(pipe()) or pipes[-1]))
    return calls, pipes


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSweepWorkers:
    def _big(self, *extra):
        return ("scatter", "--rho", "inf,0.3", "--mass", "1", "--emin", "1.2", "--emax", "3",
                "--steps", str(3 * _PART_ROWS + 5), *extra)

    def test_main_leaves_no_worker_behind(self, capsys, forks):
        code, out, err = run(capsys, *self._big("--format", "json"))
        assert (code, err) == (0, "") and len(json.loads(out)) == 3 * _PART_ROWS + 5
        assert len(forks) == 2
        _no_child_left()

    @pytest.mark.parametrize("to_file", [False, True])
    def test_failed_worker_exits_3_and_writes_nothing(self, capsys, monkeypatch, tmp_path, forks, to_file):
        import diracjunction.scattering as scattering

        parent, columns = os.getpid(), scattering._columns

        def failing_in_workers(*args):
            if os.getpid() != parent:
                raise RuntimeError("worker failure")
            return columns(*args)

        monkeypatch.setattr(scattering, "_columns", failing_in_workers)
        path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, *self._big(*(["--out", str(path)] if to_file else [])))
        assert (code, out) == (3, "") and "internal inconsistency" in err
        assert not path.exists() and len(forks) == 2
        _no_child_left()

    @pytest.mark.parametrize("failing", ["pipe", "fork"])
    def test_failed_pipe_or_fork_renders_the_parts_left_here(self, capsys, monkeypatch, forks, failing):
        # the second pipe or fork fails, as at a descriptor or process limit
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one_part = run(capsys, *self._big("--format", "json"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        calls, pipes = _second_fails(monkeypatch, failing)
        assert run(capsys, *self._big("--format", "json")) == one_part
        assert one_part[0] == 0 and calls[failing] == SECOND_WORKER[failing] and len(forks) == 1
        for fd in (fd for fds in pipes for fd in fds):  # every descriptor made is closed
            with pytest.raises(OSError):
                os.fstat(fd)
        _no_child_left()

    def test_failed_token_pipe_renders_every_chunk_here(self, capsys, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one_part = run(capsys, *self._big("--format", "json"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

        def no_pipe():  # the token pipe fails, as at a descriptor limit
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

        monkeypatch.setattr(os, "pipe", no_pipe)
        assert run(capsys, *self._big("--format", "json")) == one_part and forks == []
        _no_child_left()

    def test_one_cpu_forks_nothing(self, capsys, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        code, out, _ = run(capsys, *self._big())
        assert code == 0 and len(out.splitlines()) == 3 * _PART_ROWS + 6
        assert forks == []

    def test_unallocatable_grid_forks_nothing(self, capsys, forks):
        code, out, err = run(capsys, "scatter", "--alpha", "1,0,0,1", "--emin", "1", "--emax", "2",
                             "--steps", "1000000000000000")
        assert (code, out) == (2, "") and "no energy grid" in err
        assert forks == []


def _recording(path, call, slow):
    """``call`` that first appends this process's id and its chunk's ``(lo, hi)``, the last two arguments,
    to the ``O_APPEND`` file ``path`` and sleeps 50 ms in a process that ``slow(pid)`` names slow."""

    def recorded(*args):
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{os.getpid()} {args[-2]} {args[-1]}\n".encode())
        finally:
            os.close(fd)
        if slow(os.getpid()):
            time.sleep(0.05)
        return call(*args)

    return recorded


def _chunks_by_process(path, n):
    """The recorded chunks, asserted to cover ``range(n)`` once each, counted by process id."""
    records = [tuple(map(int, line.split())) for line in path.read_text().splitlines()]
    ranges = sorted((lo, hi) for _, lo, hi in records)
    assert [lo for lo, _ in ranges] == [0, *(hi for _, hi in ranges[:-1])] and ranges[-1][1] == n
    assert all(lo < hi for lo, hi in ranges)
    counts = {}
    for pid, _, _ in records:
        counts[pid] = counts.get(pid, 0) + 1
    return counts


class TestChunkScheduler:
    """``_in_parts`` hands each chunk to exactly one process, whichever asks first, and gives the
    chunks back in order, so the output does not depend on which process was faster."""

    @pytest.mark.parametrize("n, parts", [(1, 1), (40, 1), (7, 2), (48, 3), (1000, 2), (4097, 4), (100000, 3), (20000, 8)])
    def test_every_chunk_is_rendered_once(self, tmp_path, n, parts):
        from diracjunction.cli import _CHUNKS_PER_PART, _in_parts

        path = tmp_path / "chunks"
        pieces = _in_parts(n, parts, _recording(path, lambda lo, hi: f"{lo}:{hi};".encode(), lambda pid: False))
        counts = _chunks_by_process(path, n)
        chunks = min(n, parts * _CHUNKS_PER_PART) if parts > 1 else 1
        assert sum(counts.values()) == len(pieces) == chunks and len(counts) <= parts
        bounds = [n * i // chunks for i in range(chunks + 1)]
        assert b"".join(pieces) == "".join(f"{lo}:{hi};" for lo, hi in zip(bounds, bounds[1:])).encode()
        _no_child_left()

    @pytest.mark.parametrize("slow_side", ["workers", "process"])
    @pytest.mark.parametrize("argv, n", [
        (("scatter", "--rho", "inf,0.3", "--mass", "1", "--emin", "1.2", "--emax", "3",
          "--steps", str(3 * _PART_ROWS + 5), "--format", "json"), 3 * _PART_ROWS + 5),
        (("scatter", "--gamma", "0.6,0.8i,i", "--mass", "1", "--emin", "1.5", "--emax", "3",
          "--steps", str(3 * _PART_ROWS)), 3 * _PART_ROWS),
        (("verify", "--fuzz", "1000", "--mass", "1", "--seed", "7"), 1000),
    ])
    def test_uneven_speeds_give_the_one_part_output(self, capsys, monkeypatch, tmp_path, forks, argv, n, slow_side):
        from diracjunction import cli

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one_part = run(capsys, *argv)
        parent, path, in_parts = os.getpid(), tmp_path / "chunks", cli._in_parts
        slow = (lambda pid: pid != parent) if slow_side == "workers" else (lambda pid: pid == parent)
        monkeypatch.setattr(cli, "_in_parts", lambda n, parts, render: in_parts(n, parts, _recording(path, render, slow)))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert run(capsys, *argv) == one_part and one_part[0] == 0 and len(forks) == 2
        counts = _chunks_by_process(path, n)
        mine = counts.pop(parent)
        assert len(counts) == 2  # each worker rendered at least its first chunk
        # the fast side took the chunks that the slow one left
        assert (mine > sum(counts.values())) == (slow_side == "workers")
        _no_child_left()


class TestFuzzWorkers:
    """``verify --fuzz`` checked in parts, the earlier ones in forked workers,
    prints what the one run over every instance prints."""

    @staticmethod
    def _fuzz(count, m, tol, seed, parts):
        from diracjunction.cli import _fuzz

        args = parse_args(["verify", "--fuzz", str(count), "--mass", repr(m), "--tol", repr(tol), "--seed", str(seed)])
        return _fuzz(args, parts)

    @pytest.mark.parametrize("tol", [1e-10, 1e-16])
    @pytest.mark.parametrize("m", [0.0, 0.5, 1.0, 10.0])
    def test_parts_merge_to_the_one_run(self, m, tol):
        from diracjunction.checks import verify_fuzz

        for seed in range(1, 6):
            expected = verify_fuzz(400, m, tol, seed)
            for parts in (1, 2, 3, 4):
                assert self._fuzz(400, m, tol, seed, parts) == expected, (seed, parts)
        _no_child_left()

    @pytest.mark.parametrize("count", [12, 24])
    def test_first_instance_outside_the_class_decides(self, count, monkeypatch):
        # instances 10 and 12 are moved off the class: the first is in the
        # process's half of 12 instances, in the worker's half of 24
        from diracjunction import checks

        monkeypatch.setattr(checks, "draw_fuzz", leaving_the_class(checks.draw_fuzz, 10, 12))
        check_fuzz, tol = checks.check_fuzz, 1e-16
        draws = list(checks.draw_fuzz(24, 1.0, 13))
        assert check_fuzz(draws[:10], 1.0, tol)[-1] == {"exact": 0, "sign_pair": 0, "mismatch": 10}
        assert [len(check_fuzz(draws[i : i + 1], 1.0, tol)) for i in (10, 11, 12)] == [2, 7, 2]
        (record,) = self._fuzz(count, 1.0, tol, 13, 2).records
        assert record == checks.verify_fuzz(count, 1.0, tol, 13).records[0]
        assert record.name == "fuzz-class" and not record.passed
        assert (record.residual, record.limit) == check_fuzz(draws[10:11], 1.0, tol)

    @pytest.mark.parametrize("argv", [
        ["--fuzz", "3600", "--tol", "1e-16", "--seed", "3"],  # every instance passes under NORM_FLOOR
        ["--fuzz", "800", "--mass", repr(B / 2)],  # every instance's round trip fails
        ["--fuzz", "1000", "--mass", "1", "--seed", "7"],
    ])
    def test_main_prints_the_one_part_output(self, capsys, monkeypatch, forks, argv):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one_part = run(capsys, "verify", *argv)
        assert forks == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert run(capsys, "verify", *argv) == one_part and len(forks) == 2
        _no_child_left()

    @pytest.mark.parametrize("leaving", [0, 3599])
    def test_main_prints_the_one_part_early_exit(self, capsys, monkeypatch, forks, leaving):
        # one instance off the class, in the first worker's part or in the process's own
        from diracjunction import checks

        monkeypatch.setattr(checks, "draw_fuzz", leaving_the_class(checks.draw_fuzz, leaving))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one_part = run(capsys, "verify", "--fuzz", "3600", "--seed", "3")
        assert one_part[0] == 1 and one_part[1].startswith("FAIL fuzz-class residual=")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert run(capsys, "verify", "--fuzz", "3600", "--seed", "3") == one_part and len(forks) == 2
        _no_child_left()

    @staticmethod
    def _counting(monkeypatch, *leaving):
        """``checks.draw_fuzz`` with ``leaving`` moved off the class, counting the instances drawn."""
        from diracjunction import checks

        draw_fuzz, drawn = leaving_the_class(checks.draw_fuzz, *leaving), []

        def counted(*args):
            for instance in draw_fuzz(*args):
                drawn.append(instance)
                yield instance

        monkeypatch.setattr(checks, "draw_fuzz", counted)
        return drawn

    def test_one_part_draws_up_to_the_first_instance_outside_the_class(self, monkeypatch):
        drawn = self._counting(monkeypatch, 10)
        (record,) = self._fuzz(3600, 1.0, 1e-10, 3, 1).records
        assert record.name == "fuzz-class" and not record.passed and len(drawn) == 11

    def test_a_later_chunk_starts_where_it_should_after_an_early_stop(self, monkeypatch):
        # one process takes chunks [0, 5) and [8, 12), another [5, 8): the first stops at instance 2
        import marshal

        from diracjunction import checks, cli

        draws = list(leaving_the_class(checks.draw_fuzz, 2)(24, 1.0, 13))
        drawn, replies = self._counting(monkeypatch, 2), []

        def in_parts(n, parts, render):
            replies.extend(render(lo, hi) for lo, hi in ((0, 5), (8, 12)))
            return replies

        monkeypatch.setattr(cli, "_in_parts", in_parts)
        self._fuzz(24, 1.0, 1e-10, 13, 2)
        assert [marshal.loads(reply) for reply in replies] == [
            checks.check_fuzz(draws[0:3], 1.0, 1e-10), checks.check_fuzz(draws[8:12], 1.0, 1e-10)
        ]
        assert len(marshal.loads(replies[0])) == 2 and len(drawn) == 12

    @pytest.mark.parametrize("to_file", [False, True])
    def test_failed_worker_exits_3_and_writes_nothing(self, capsys, monkeypatch, tmp_path, forks, to_file):
        from diracjunction import checks

        parent, check_fuzz = os.getpid(), checks.check_fuzz

        def failing_in_workers(*args):
            if os.getpid() != parent:
                raise RuntimeError("worker failure")
            return check_fuzz(*args)

        monkeypatch.setattr(checks, "check_fuzz", failing_in_workers)
        path = tmp_path / "report.txt"
        code, out, err = run(capsys, "verify", "--fuzz", "1000", *(["--out", str(path)] if to_file else []))
        assert (code, out) == (3, "") and "internal inconsistency" in err
        assert not path.exists() and len(forks) == 2
        _no_child_left()

    @pytest.mark.parametrize("error, code", [(ValidationError, 2), (InternalInconsistencyError, 3)])
    def test_typed_error_in_a_worker_exits_as_in_one_part(self, capsys, monkeypatch, forks, error, code):
        from diracjunction import checks

        parent, check_fuzz = os.getpid(), checks.check_fuzz

        def failing_in_workers(*args):
            if os.getpid() != parent:
                raise error("no verdict on this part")
            return check_fuzz(*args)

        monkeypatch.setattr(checks, "check_fuzz", failing_in_workers)
        exit_code, out, err = run(capsys, "verify", "--fuzz", "1000")
        assert (exit_code, out) == (code, "") and err.endswith(": no verdict on this part\n")
        assert len(forks) == 2
        _no_child_left()

    @pytest.mark.parametrize("failing", ["pipe", "fork"])
    def test_failed_pipe_or_fork_checks_the_parts_left_here(self, capsys, monkeypatch, forks, failing):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one_part = run(capsys, "verify", "--fuzz", "1000", "--mass", "0.5")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        calls, pipes = _second_fails(monkeypatch, failing)
        assert run(capsys, "verify", "--fuzz", "1000", "--mass", "0.5") == one_part
        assert one_part[0] == 0 and calls[failing] == SECOND_WORKER[failing] and len(forks) == 1
        for fd in (fd for fds in pipes for fd in fds):  # every descriptor made is closed
            with pytest.raises(OSError):
                os.fstat(fd)
        _no_child_left()


class TestOutputBytes:
    """Output goes to stdout's binary layer, to a stdout without one as text,
    and to ``--out``, the same bytes each way."""

    ARGVS = [
        ["scatter", "--rho", "inf,0.3", "--mass", "1", "--emin", "1.2", "--emax", "3",
         "--steps", str(2 * _PART_ROWS + 3), "--format", "json"],
        ["scatter", "--alpha", "0,1,1,0", "--emin", "0.5", "--emax", "2", "--steps", "5"],
        ["verify", "--fuzz", "600", "--mass", "1"],
        ["demo-switch"],
    ]

    @pytest.mark.parametrize("argv", ARGVS)
    def test_binary_text_and_file_output_agree(self, tmp_path, argv):
        import contextlib
        import io

        p = run_process("-m", "diracjunction.cli", *argv)
        assert p.returncode == 0 and p.stderr == ""
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert main(argv) == 0
        path = tmp_path / "out"
        assert main([*argv, "--out", str(path)]) == 0
        assert text.getvalue() == p.stdout and path.read_bytes() == p.stdout.encode()


class TestDemoSwitch:
    def test_default_run(self, capsys):
        code, out, _ = run(capsys, "demo-switch")
        assert code == 0
        assert "spin preserved: True" in out
        assert "spin swapped: True" in out
        payload = json.loads(out.strip().split("\n")[-1])
        assert payload["ok"] is True
        assert payload["unit0"]["preserves_spin"] is True
        assert payload["unit1"]["swaps_spin"] is True

    @pytest.mark.parametrize("phase", ["1e5", "1e10"])
    def test_large_phase_is_verified(self, capsys, phase):
        # theta mod the double 2 pi is not theta mod 2 pi within 1e-12 here
        code, out, _ = run(capsys, "demo-switch", "--phase", phase)
        assert code == 0
        request = json.loads(out.strip().split("\n")[-1], parse_constant=_reject_constant)["phase_request"]
        assert request["theta"] == float(phase) and request["verified"] is True

    def test_phase_variant(self, capsys):
        code, out, _ = run(capsys, "demo-switch", "--phase", "pi/2")
        assert code == 0
        payload = json.loads(out.strip().split("\n")[-1])
        assert payload["phase_request"]["transmission_phase"] == pytest.approx(
            math.pi / 2
        )
        assert payload["phase_request"]["verified"] is True

    @pytest.mark.parametrize("extra", [[], ["--phase", "pi/3"]])
    def test_out_writes_everything_to_the_file(self, capsys, tmp_path, extra):
        code, expected, _ = run(capsys, "demo-switch", *extra)
        path = tmp_path / "demo.txt"
        assert run(capsys, "demo-switch", *extra, "--out", str(path)) == (code, "", "")
        assert path.read_text() == expected


#: What the JSON commands emit, for the writer's test: floats with their extremes (a negative zero, the
#: smallest subnormal, the largest powers, not finite), complex numbers, printable ASCII names, any text,
#: records, and dicts, lists and tuples of them.
EMIT_FLOAT = st.floats() | st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan])
EMIT_COMPLEX = st.builds(complex, EMIT_FLOAT, EMIT_FLOAT)
EMIT_NAME = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=12)
EMIT_RECORD = (
    st.builds(AlphaBC, *[EMIT_COMPLEX] * 4)
    | st.builds(QuaternionForm, *[EMIT_COMPLEX] * 3)
    | st.builds(ClassReport, EMIT_FLOAT, EMIT_FLOAT, st.none() | st.builds(BDForm, *[EMIT_FLOAT] * 5),
                st.none() | EMIT_COMPLEX)
    | st.builds(ScatteringResult, *[EMIT_FLOAT] * 3, EMIT_COMPLEX, EMIT_COMPLEX, *[EMIT_FLOAT] * 3)
)
EMIT_LEAF = (st.none() | st.booleans() | st.integers() | EMIT_FLOAT | EMIT_COMPLEX | EMIT_NAME | st.text(max_size=8)
             | EMIT_RECORD)
EMIT_TREE = st.recursive(EMIT_LEAF, lambda kids: st.lists(kids, max_size=4) | st.tuples(kids, kids)
                         | st.dictionaries(EMIT_NAME, kids, max_size=4), max_leaves=24)


class TestJsonBytes:
    """The JSON commands print exactly these bytes: one separating and one
    transmitting ``u2-to-bc``, every other ``convert`` direction, ``decompose``
    and ``demo-switch`` with and without ``--phase``."""

    CASES = [
        (["demo-switch"],
         'Unit0 (spin-preserving): T=1, up->up |1.000|, spin preserved: True\n'
         'Unit1 (spin-interchanging): T=1, up->down |1.000|, spin swapped: True\n'
         '{"unit0": {"alpha": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], "r": [0.0, 0.0], '
         '"t": [1.0, 0.0], "T": 1.0, "transmission_phase": 0.0, "up_maps_to": [[1.0, 0.0], [0.0, '
         '0.0]], "down_maps_to": [[0.0, 0.0], [1.0, 0.0]], "preserves_spin": true, '
         '"swaps_spin": false}, "unit1": {"alpha": [[0.0, -0.0], [1.0, -1.8369701987210297e-16], '
         '[1.0, -1.8369701987210297e-16], [0.0, -0.0]], "r": [0.0, 0.0], "t": [1.0, '
         '-1.8369701987210297e-16], "T": 1.0, "transmission_phase": -1.8369701987210297e-16, '
         '"up_maps_to": [[0.0, 0.0], [1.0, -1.8369701987210297e-16]], "down_maps_to": [[1.0, '
         '-1.8369701987210297e-16], [0.0, 0.0]], "preserves_spin": false, "swaps_spin": true}, '
         '"phase_variants": [{"theta": 0.7853981633974483, "t": [0.7071067811865476, '
         '0.7071067811865475], "T": 1.0, "transmission_phase": 0.7853981633974483}, '
         '{"theta": 1.5707963267948966, "t": [6.123233995736766e-17, 1.0], "T": 1.0, '
         '"transmission_phase": 1.5707963267948966}], "ok": true}\n'
        ),
        (["demo-switch", "--phase", "pi/3"],
         'Unit0 (spin-preserving): T=1, up->up |1.000|, spin preserved: True\n'
         'Unit1 (spin-interchanging): T=1, up->down |1.000|, spin swapped: True\n'
         'Phase variant theta=1.0471975512: transmitted phase 1.0471975512, T=1\n'
         '{"unit0": {"alpha": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], "r": [0.0, 0.0], '
         '"t": [1.0, 0.0], "T": 1.0, "transmission_phase": 0.0, "up_maps_to": [[1.0, 0.0], [0.0, '
         '0.0]], "down_maps_to": [[0.0, 0.0], [1.0, 0.0]], "preserves_spin": true, '
         '"swaps_spin": false}, "unit1": {"alpha": [[0.0, -0.0], [1.0, -1.8369701987210297e-16], '
         '[1.0, -1.8369701987210297e-16], [0.0, -0.0]], "r": [0.0, 0.0], "t": [1.0, '
         '-1.8369701987210297e-16], "T": 1.0, "transmission_phase": -1.8369701987210297e-16, '
         '"up_maps_to": [[0.0, 0.0], [1.0, -1.8369701987210297e-16]], "down_maps_to": [[1.0, '
         '-1.8369701987210297e-16], [0.0, 0.0]], "preserves_spin": false, "swaps_spin": true}, '
         '"phase_variants": [{"theta": 0.7853981633974483, "t": [0.7071067811865476, '
         '0.7071067811865475], "T": 1.0, "transmission_phase": 0.7853981633974483}, '
         '{"theta": 1.5707963267948966, "t": [6.123233995736766e-17, 1.0], "T": 1.0, '
         '"transmission_phase": 1.5707963267948966}], "phase_request": {"theta": 1.0471975511965976, '
         '"transmission_phase": 1.0471975511965976, "T": 1.0, "verified": true}, "ok": true}\n'
        ),
        (["decompose", "--matrix", "[[[0.6,0],[0,0.8]],[[0,0.8],[0.6,0]]]"],
         '{"gamma1": [0.6, 0.0], "gamma2": [0.0, 0.8], "gamma3": [1.0, 0.0], '
         '"branch": "u21_nonzero"}\n'
        ),
        (["convert", "u2-to-bc", "--diag", "-1,1", "--mass", "0.5"],
         '{"type": "separating", "rho_plus": 0.4472135954999579, "rho_minus": "inf"}\n'
        ),
        (["convert", "u2-to-bc", "--gamma", "0.6,0.8i,i", "--mass", "0.5"],
         '{"type": "transmitting", "alpha": [[-0.8750000000000002, 5.3578297462696714e-17], '
         '[-5.1344877962269005e-17, -0.8385254915624213], [-1.7114959320756337e-17, '
         '-0.27950849718747384], [-0.8749999999999999, 5.3578297462696695e-17]]}\n'
        ),
        (["convert", "bc-to-u2", "--alpha", "0,1,1,0", "--mass", "1"],
         '{"gamma1": [0.0, 0.0], "gamma2": [1.0, 0.0], "gamma3": [0.7071067811865475, '
         '0.7071067811865475], "closed_form_comparison": {"agrees_exactly": false, '
         '"agrees_up_to_sign_pair": true, "disagrees": false, '
         '"max_abs_difference": 1.5700924586837752e-16}}\n'
        ),
        (["convert", "alpha-to-bd", "--alpha", "1,0,0,1"],
         '{"theta": 0.0, "a": [1.0, 0.0, 0.0, 1.0]}\n'
        ),
        (["convert", "bd-to-alpha", "--bd", "pi/2,0,1,1,0"],
         '{"alpha": [[0.0, 0.0], [-1.0, 6.123233995736766e-17], [-1.0, 6.123233995736766e-17], [0.0, '
         '0.0]]}\n'
        ),
        (["convert", "rho-to-u2", "--rho", "inf,0.5", "--mass", "1"],
         '{"gamma_left": [-0.4890416764108682, 0.872260419102717], "gamma_right": [-1.0, 0.0]}\n'
        ),
    ]

    @pytest.mark.parametrize("argv, expected", CASES)
    def test_stdout_is_pinned(self, capsys, argv, expected):
        assert run(capsys, *argv) == (0, expected, "")

    @settings(max_examples=400, deadline=None)
    @given(EMIT_TREE)
    @example({"a": [1.5, -0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, True, False, None, 7, "x"]})
    @example(AlphaBC(1j, complex(math.nan, -0.0), complex(-math.inf, 5e-324), 0j))
    @example('quote " backslash \\ tab \t e-acute \u00e9 emoji \U0001f600')
    def test_the_writer_is_json_dumps(self, obj):
        assert to_json(obj) == json.dumps(obj, default=lambda z: [z.real, z.imag])


def test_internal_inconsistency_exits_3(capsys, monkeypatch):
    import diracjunction.cli as cli
    from diracjunction.errors import InternalInconsistencyError

    def boom(*args, **kwargs):
        raise InternalInconsistencyError("solved matrix failed unitarity")

    monkeypatch.setattr(cli.correspondence, "compare_closed_form", boom)
    code, out, err = run(capsys, "convert", "bc-to-u2", "--alpha", "1,0,0,1")
    assert code == 3
    assert "internal inconsistency" in err


def _shorthand(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def test_cli_complex_print_parse_roundtrip(capsys):
    # values emitted as JSON [re, im] parse back bit-exactly
    from diracjunction.boundary import BDForm, bd_to_alpha
    from diracjunction.correspondence import alpha_to_u2

    a = bd_to_alpha(BDForm(0.7, 1.25, -0.5, 0.4, 0.96))
    text = ",".join(_shorthand(z) for z in a.as_tuple())
    for z in a.as_tuple():  # the shorthand itself is bit-exact
        assert parse_complex(_shorthand(z)) == z
    code, out, _ = run(capsys, "convert", "bc-to-u2", "--alpha", text, "--mass", "0.7")
    assert code == 0
    payload = json.loads(out)
    q = alpha_to_u2(a, 0.7)
    for key, value in (("gamma1", q.g1), ("gamma2", q.g2), ("gamma3", q.g3)):
        assert parse_complex(json.dumps(payload[key])) == complex(value)
