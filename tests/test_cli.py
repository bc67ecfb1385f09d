import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from diracjunction.cli import (
    FMT17,
    main,
    parse_angle,
    parse_complex,
    parse_rho,
)
from diracjunction.boundary import AlphaBC, RhoBC
from diracjunction.correspondence import Separating, Transmitting
from diracjunction.errors import ValidationError

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

    def test_parse_rho(self):
        r = parse_rho("inf,0.5")
        assert math.isinf(r.rho_plus) and r.rho_minus == 0.5
        with pytest.raises(ValidationError):
            parse_rho("-inf,0")
        with pytest.raises(ValidationError):
            parse_rho("1,2,3")

    def test_parse_angle(self):
        assert parse_angle("pi/2") == pytest.approx(math.pi / 2)
        assert parse_angle("-pi/4") == pytest.approx(-math.pi / 4)
        assert parse_angle("3pi/2") == pytest.approx(3 * math.pi / 2)
        assert parse_angle("0.75") == 0.75

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
        assert "FAIL class-constraints re_a1_a2" in out
        assert "1.0" in out

    def test_rho_payload(self, capsys):
        code, out, _ = run(capsys, "verify", "--rho", "0,inf", "--mass", "1")
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_matrix_payload(self, capsys):
        code, out, _ = run(capsys, "verify", "--matrix", ROT_JSON)
        assert code == 0
        assert "decomposition-round-trip" in out

    def test_fuzz(self, capsys):
        code, out, _ = run(capsys, "verify", "--fuzz", "50", "--mass", "1")
        assert code == 0
        assert "closed-form-inverse" in out
        assert out.strip().endswith("PASS")

    def test_no_payload_exits_2(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2

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
            (["--alpha", "1,1,0,1"], ["FAIL class-constraints re_a1_a2", "FAIL"], 1),
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
        # oracle stays out of the CLI path
        from diracjunction import correspondence

        calls = {"alpha_to_u2": 0, "solve_u2_matrix": 0}

        def counting(name):
            original = getattr(correspondence, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(correspondence, name, counted)

        counting("alpha_to_u2")
        counting("solve_u2_matrix")
        code, out, _ = run(capsys, "verify", "--fuzz", "30", "--mass", "1")
        assert code == 0 and "mismatch=30" in out
        assert calls == {"alpha_to_u2": 30, "solve_u2_matrix": 0}

    def test_fuzz_instance_outside_tight_tolerance_fails(self, capsys):
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


class TestExitCodeContract:
    """Whole-process runs: exit code, stdout and a traceback-free stderr."""

    def test_negative_mass_exits_2(self):
        p = run_process("-m", "diracjunction.cli", "verify", "--alpha", "0,1,1,0", "--mass", "-1")
        assert p.returncode == 2
        assert p.stdout == ""
        assert "Traceback" not in p.stderr and "mass must be finite" in p.stderr

    def test_negative_fuzz_count_exits_2(self):
        p = run_process("-m", "diracjunction.cli", "verify", "--fuzz", "-3")
        assert p.returncode == 2
        assert p.stdout == ""
        assert "Traceback" not in p.stderr

    def test_huge_mass_gives_finite_json(self):
        p = run_process(
            "-m", "diracjunction.cli", "convert", "bc-to-u2", "--alpha", "0,1,1,0", "--mass", "1e200"
        )
        assert p.returncode == 0
        assert p.stderr == ""
        payload = json.loads(p.stdout, parse_constant=_reject_constant)
        assert math.isfinite(payload["closed_form_comparison"]["max_abs_difference"])

    @pytest.mark.parametrize("condition", [["--alpha", "0,1,1,0"], ["--rho", "0,0"]])
    def test_huge_mass_scatter_rows_are_finite(self, condition):
        p = run_process(
            "-m", "diracjunction.cli", "scatter", *condition, "--mass", "1e200",
            "--emin", "2e200", "--emax", "3e200", "--steps", "2",
        )
        assert p.returncode == 0
        assert p.stderr == ""
        rows = [line.split(",") for line in p.stdout.splitlines()[1:]]
        assert len(rows) == 2
        assert all(math.isfinite(float(x)) for row in rows for x in row[:-1])

    def test_huge_alpha_converts_without_overflow(self):
        p = run_process(
            "-m", "diracjunction.cli", "convert", "alpha-to-bd", "--alpha", "1e200,0,0,1e-200"
        )
        assert p.returncode == 0
        assert "Traceback" not in p.stderr
        payload = json.loads(p.stdout, parse_constant=_reject_constant)
        assert payload == {"theta": 0.0, "a": [1e200, 0.0, 0.0, 1e-200]}

    def test_huge_class_member_converts_without_overflow(self):
        p = run_process(
            "-m", "diracjunction.cli", "convert", "alpha-to-bd", "--alpha", "1e200,1e200i,0,1e-200"
        )
        assert (p.returncode, p.stderr) == (0, "")
        payload = json.loads(p.stdout, parse_constant=_reject_constant)
        assert payload == {"theta": 0.0, "a": [1e200, 1e200, 0.0, 1e-200]}

    def test_theta_zero_prints_positive_zero(self):
        p = run_process("-m", "diracjunction.cli", "convert", "alpha-to-bd", "--alpha", "0,i,i,0")
        assert (p.returncode, p.stderr) == (0, "")
        assert p.stdout == '{"theta": 0.0, "a": [0.0, 1.0, 1.0, 0.0]}\n'

    def test_overflowing_inverse_map_exits_2(self):
        p = run_process(
            "-m", "diracjunction.cli", "convert", "bc-to-u2", "--alpha", "1e308,1e308i,0,1e-308",
            "--mass", "1",
        )
        assert (p.returncode, p.stdout) == (2, "")
        assert "Traceback" not in p.stderr and "overflow" in p.stderr

    def test_huge_out_of_class_alpha_exits_2(self):
        # |a|^2 overflows; the class check must still see Re(a1 a2*) != 0
        p = run_process(
            "-m", "diracjunction.cli", "convert", "alpha-to-bd", "--alpha", "1e155,1e150,0,1e-155"
        )
        assert p.returncode == 2
        assert p.stdout == ""
        assert "Traceback" not in p.stderr and "class constraint" in p.stderr

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
            ["convert", "alpha-to-bd", "--alpha", "1.5e308+1.5e308i,0,0,0"],
            ["verify", "--alpha", "1.5e308+1.5e308i,0,0,1e-308"],
            ["convert", "u2-to-bc", "--gamma", "1e308,-1,[1,0]"],
            ["verify", "--gamma", "1,1e200,0", "--mass", "1"],
            ["verify", "--alpha", "1e200,0,-1,i"],
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
        ],
    )
    def test_non_finite_numbers_exit_2(self, argv):
        p = run_process("-m", "diracjunction.cli", *argv)
        assert (p.returncode, p.stdout) == (2, "")
        assert "Traceback" not in p.stderr and "must be finite" in p.stderr

    def test_cli_import_leaves_scipy_out(self):
        p = run_process(
            "-c", "import sys, diracjunction.cli; print('scipy' in sys.modules)"
        )
        assert p.returncode == 0, p.stderr
        assert p.stdout.strip() == "False"


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
            ("1e200,0,0,1e-200", "1", "1.5", "2", 3),
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
        from diracjunction.cli import _json_text, _sweep_fields
        from diracjunction.scattering import sweep_columns

        keys = CSV_HEADER_FIELDS
        for bc, m in (
            (Transmitting(AlphaBC(0, 1, 1, 0)), 1e-14),
            (Separating(RhoBC(math.inf, 0.5)), 1.0),
        ):
            fields = _sweep_fields(sweep_columns(bc, m + 0.4, 2.0, 7, m))
            records = [dict(zip(keys, values)) for values in zip(*fields)]
            assert _json_text(fields) == json.dumps(records) + "\n"
        # json's spellings of the non-finite floats
        fields = [[math.inf, -math.inf, math.nan, -0.0]] * 10 + [["", "RESONANCE", "", ""]]
        records = [dict(zip(keys, values)) for values in zip(*fields)]
        assert _json_text(fields) == json.dumps(records) + "\n"

    def test_infinite_grid_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            "scatter", "--rho", "0,0", "--mass", "0",
            "--emin", "0.5", "--emax", "inf", "--steps", "3",
        )
        assert code == 2 and out == ""

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
