"""Command-line front end.

Subcommands: ``decompose`` (unitary -> three-parameter form), ``convert``
(all parameter maps), ``verify`` (constraint/round-trip/self-adjointness
checks, optionally fuzzing random instances), ``scatter`` (energy sweeps to
CSV or JSON), ``demo-switch`` (the two-unit spin/phase switch).

Exit codes are a stable contract: 0 success, 1 verification failure,
2 input validation error, 3 internal inconsistency.  Identical inputs
produce byte-identical output; fuzzing uses a fixed default seed.
Complex flag values accept ``a+bi`` shorthand or JSON ``[re, im]``;
the infinite separating parameter is spelled ``inf``.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import boundary, correspondence, deficiency, matrix2, scattering
from .boundary import AlphaBC, BDForm, Island, RhoBC
from .correspondence import Separating, Transmitting
from .errors import InternalInconsistencyError, JunctionError, ValidationError
from .matrix2 import DEFAULT_TOL

DEFAULT_SEED = 20177

CSV_HEADER = "E,k,lambda,re_r,im_r,re_t,im_t,R,T,phase_t,flag"


# ---------------------------------------------------------------------------
# Parsing and formatting
# ---------------------------------------------------------------------------


def parse_complex(token: str) -> complex:
    """Parse 'a+bi' shorthand or a JSON [re, im] pair."""
    s = token.strip()
    if s.startswith("["):
        try:
            pair = json.loads(s)
            re_, im_ = float(pair[0]), float(pair[1])
            return complex(re_, im_)
        except (ValueError, TypeError, IndexError) as exc:
            raise ValidationError(f"bad complex literal {token!r}") from exc
    t = s.replace(" ", "").replace("i", "j")
    try:
        z = complex(t)
    except ValueError as exc:
        raise ValidationError(f"bad complex literal {token!r}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(f"complex value must be finite, got {token!r}")
    return z


def parse_complex_list(text: str, count: int, what: str) -> list[complex]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValidationError(f"{what} needs {count} comma-separated values, got {len(parts)}")
    return [parse_complex(p) for p in parts]


def parse_matrix(text: str) -> np.ndarray:
    """Parse a JSON 2x2 matrix of [re, im] pairs."""
    try:
        rows = json.loads(text)
        m = np.array(
            [[complex(float(e[0]), float(e[1])) for e in row] for row in rows],
            dtype=complex,
        )
    except (ValueError, TypeError, IndexError) as exc:
        raise ValidationError(f"bad matrix literal: {exc}") from exc
    if m.shape != (2, 2):
        raise ValidationError(f"matrix must be 2x2, got shape {m.shape}")
    return m


def parse_rho_component(token: str) -> float:
    s = token.strip().lower()
    if s in {"inf", "+inf", "infinity"}:
        return math.inf
    try:
        v = float(s)
    except ValueError as exc:
        raise ValidationError(f"bad separating parameter {token!r}") from exc
    if math.isnan(v) or math.isinf(v):
        raise ValidationError("separating parameters are finite reals or 'inf'")
    return v


def parse_rho(text: str) -> RhoBC:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError("--rho needs two comma-separated values (rho_plus,rho_minus)")
    return RhoBC(rho_plus=parse_rho_component(parts[0]), rho_minus=parse_rho_component(parts[1]))


def parse_angle(text: str) -> float:
    """Parse an angle: plain float or a pi expression like 'pi/2', '-3pi/4'."""
    s = text.strip().lower().replace(" ", "").replace("*", "")
    m = re.fullmatch(r"([+-]?\d*\.?\d*)pi(?:/([+-]?\d*\.?\d+))?", s)
    if m:
        coef_text = m.group(1)
        if coef_text in ("", "+"):
            coef = 1.0
        elif coef_text == "-":
            coef = -1.0
        else:
            coef = float(coef_text)
        den = float(m.group(2)) if m.group(2) else 1.0
        return coef * math.pi / den
    try:
        return float(s)
    except ValueError as exc:
        raise ValidationError(f"bad angle {text!r}") from exc


def fmt17(x: float) -> str:
    """17-significant-digit decimal; round-trips float64 exactly."""
    return f"{float(x):.17g}"


def cjson(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def alpha_json(a: AlphaBC) -> list[list[float]]:
    return [cjson(c) for c in a.as_tuple()]


def rho_json_value(v: float):
    return "inf" if math.isinf(v) else float(v)


def emit(obj, out=None) -> None:
    text = json.dumps(obj)
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def cmd_decompose(args) -> int:
    m = parse_matrix(args.matrix)
    try:
        q = matrix2.decompose_u2(m, args.tol)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(
        {
            "gamma1": cjson(q.g1),
            "gamma2": cjson(q.g2),
            "gamma3": cjson(q.g3),
            "branch": matrix2.decompose_branch(m, args.tol),
        },
        args.out,
    )
    return 0


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------


def _gamma_from_args(args) -> matrix2.QuaternionForm:
    g1, g2, g3 = parse_complex_list(args.gamma, 3, "--gamma")
    return matrix2.QuaternionForm(g1, g2, g3)


def _alpha_from_args(args) -> AlphaBC:
    a1, a2, a3, a4 = parse_complex_list(args.alpha, 4, "--alpha")
    return AlphaBC(a1, a2, a3, a4)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def cmd_convert(args) -> int:
    m = args.mass
    if args.direction == "u2-to-bc":
        if args.diag is not None:
            gl, gr = parse_complex_list(args.diag, 2, "--diag")
            u = np.diag([gl, gr])
        elif args.gamma is not None:
            u = matrix2.compose(_gamma_from_args(args), args.tol)
        elif args.matrix is not None:
            u = parse_matrix(args.matrix)
        else:
            raise ValidationError("u2-to-bc needs --gamma, --matrix or --diag")
        bc = correspondence.classify(u, m, args.tol)
        if isinstance(bc, Separating):
            emit(
                {
                    "type": "separating",
                    "rho_plus": rho_json_value(bc.rho.rho_plus),
                    "rho_minus": rho_json_value(bc.rho.rho_minus),
                },
                args.out,
            )
        else:
            emit({"type": "transmitting", "alpha": alpha_json(bc.alpha)}, args.out)
    elif args.direction == "bc-to-u2":
        _require(args.alpha is not None, "bc-to-u2 needs --alpha (use rho-to-u2 for separating)")
        a = _alpha_from_args(args)
        comparison = correspondence.compare_closed_form(a, m)
        q = comparison.primary
        emit(
            {
                "gamma1": cjson(q.g1),
                "gamma2": cjson(q.g2),
                "gamma3": cjson(q.g3),
                "closed_form_comparison": {
                    "agrees_exactly": comparison.agrees_exactly,
                    "agrees_up_to_sign_pair": comparison.agrees_up_to_sign_pair,
                    "disagrees": comparison.disagrees,
                    "max_abs_difference": min(
                        comparison.difference, comparison.difference_flipped
                    ),
                },
            },
            args.out,
        )
    elif args.direction == "alpha-to-bd":
        _require(args.alpha is not None, "alpha-to-bd needs --alpha")
        f = boundary.alpha_to_bd(_alpha_from_args(args), args.tol)
        emit({"theta": f.theta, "a": [f.b1, f.b2, f.b3, f.b4]}, args.out)
    elif args.direction == "bd-to-alpha":
        _require(args.bd is not None, "bd-to-alpha needs --bd theta,b1,b2,b3,b4")
        parts = args.bd.split(",")
        _require(len(parts) == 5, "--bd needs five comma-separated values")
        theta = parse_angle(parts[0])
        try:
            bs = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise ValidationError(f"bad --bd values: {exc}") from exc
        a = boundary.bd_to_alpha(
            BDForm(theta % (2.0 * math.pi), *bs), args.tol
        )
        emit({"alpha": alpha_json(a)}, args.out)
    else:  # rho-to-u2
        _require(args.rho is not None, "rho-to-u2 needs --rho")
        gl, gr = correspondence.rho_to_diagonal_u2(parse_rho(args.rho), m)
        emit({"gamma_left": cjson(gl), "gamma_right": cjson(gr)}, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _print_check(name: str, ok: bool, residual: float) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name} residual={residual:.6e}")
    return ok


def _verify_alpha(a: AlphaBC, m: float, tol: float, seed: int) -> bool:
    report = boundary.validate_class(a, tol)
    name, worst = report.worst()
    if not report.valid:
        print(f"FAIL class-constraints {name} residual={worst:.6e}")
        return False
    ok = _print_check("class-constraints", True, worst)

    q = correspondence.alpha_to_u2(a, m, tol)
    back = correspondence.u2_to_alpha(q, m, tol)
    scale = max(1.0, max(abs(x) for x in a.as_tuple()))
    diff = max(abs(x - y) for x, y in zip(a.as_tuple(), back.as_tuple())) / scale
    ok &= _print_check("extension-round-trip", diff <= 1e-10, diff)

    ident = max(correspondence.inverse_identity_residuals(q, a, m))
    ok &= _print_check("defining-identities", ident <= 1e-10 * scale, ident)

    rng = np.random.default_rng(seed)
    b = a.matrix()
    cur = 0.0
    for _ in range(100):
        v = boundary.random_spinor(rng)
        cur = max(
            cur,
            abs(boundary.current(b @ v) - boundary.current(v))
            / max(1.0, float(np.abs(v).max()) ** 2 * scale**2),
        )
    ok &= _print_check("current-conservation", cur <= 1e-12, cur)

    sa = deficiency.verify_selfadjoint_domain(Transmitting(a), samples=50, seed=seed)
    ok &= _print_check("boundary-form-symmetry", sa.passed, sa.max_symmetry_residual)

    comparison = correspondence.compare_closed_form(a, m)
    print(f"INFO closed-form-inverse classification={comparison.classification}")
    return ok


def _verify_rho(r: RhoBC, m: float, tol: float, seed: int) -> bool:
    gl, gr = correspondence.rho_to_diagonal_u2(r, m)
    back = correspondence.diagonal_u2_to_rho(gl, gr, m, tol)
    diff = _rho_distance(r, back)
    ok = _print_check("extension-round-trip", diff <= 1e-12, diff)

    oracle = correspondence.oracle_rho_from_diagonal(gl, gr, m, tol=tol)
    diff2 = _rho_distance(r, oracle)
    ok &= _print_check("boundary-ratio-oracle", diff2 <= 1e-12, diff2)

    sa = deficiency.verify_selfadjoint_domain(Separating(r), samples=50, seed=seed)
    ok &= _print_check("boundary-form-symmetry", sa.passed, sa.max_symmetry_residual)
    return ok


def _rho_distance(a: RhoBC, b: RhoBC) -> float:
    def comp(x: float, y: float) -> float:
        if math.isinf(x) or math.isinf(y):
            return 0.0 if x == y else math.inf
        return abs(x - y) / max(1.0, abs(x), abs(y))

    return max(comp(a.rho_plus, b.rho_plus), comp(a.rho_minus, b.rho_minus))


def _verify_fuzz(count: int, m: float, tol: float, seed: int) -> bool:
    if count < 1:
        raise ValidationError(f"--fuzz needs N >= 1 instances, got {count}")
    rng = np.random.default_rng(seed)
    worst = {
        "class": 0.0,
        "round-trip": 0.0,
        "current": 0.0,
        "scatter-unitarity": 0.0,
        "rho-round-trip": 0.0,
        "rho-reflection": 0.0,
    }
    counts = {"exact": 0, "sign_pair": 0, "mismatch": 0}
    for _ in range(count):
        a = boundary.random_alpha(rng)
        report = boundary.validate_class(a, tol)
        _, w = report.worst()
        worst["class"] = max(worst["class"], w / report.scale)
        if not report.valid:
            print("FAIL fuzz generated instance outside the class")
            return False
        scale = max(1.0, max(abs(x) for x in a.as_tuple()))
        q = correspondence.alpha_to_u2(a, m, tol)
        back = correspondence.u2_to_alpha(q, m, tol)
        worst["round-trip"] = max(
            worst["round-trip"],
            max(abs(x - y) for x, y in zip(a.as_tuple(), back.as_tuple())) / scale,
        )
        v = boundary.random_spinor(rng)
        worst["current"] = max(
            worst["current"],
            abs(boundary.current(a.matrix() @ v) - boundary.current(v))
            / max(1.0, float(np.abs(v).max()) ** 2 * scale**2),
        )
        E = m + math.exp(rng.uniform(math.log(0.05), math.log(3.0)))
        res = scattering.scatter_alpha(a, E, m)
        worst["scatter-unitarity"] = max(worst["scatter-unitarity"], abs(res.R + res.T - 1.0))
        counts[correspondence.compare_closed_form(a, m).classification] += 1

        r = boundary.random_rho(rng)
        gl, gr = correspondence.rho_to_diagonal_u2(r, m)
        worst["rho-round-trip"] = max(
            worst["rho-round-trip"],
            _rho_distance(r, correspondence.diagonal_u2_to_rho(gl, gr, m, tol)),
        )
        rr = scattering.scatter_rho(r, E, m)
        worst["rho-reflection"] = max(worst["rho-reflection"], abs(abs(rr.r) - 1.0) + rr.T)
    limits = {
        "class": 1e-12,
        "round-trip": 1e-10,
        "current": 1e-12,
        "scatter-unitarity": 1e-12,
        "rho-round-trip": 1e-12,
        "rho-reflection": 1e-12,
    }
    ok = True
    for name, value in worst.items():
        ok &= _print_check(f"fuzz-{name}", value <= limits[name], value)
    print(
        "INFO closed-form-inverse "
        f"exact={counts['exact']} sign_pair={counts['sign_pair']} mismatch={counts['mismatch']}"
    )
    return ok


def cmd_verify(args) -> int:
    ok = True
    ran = False
    if args.alpha is not None:
        ok &= _verify_alpha(_alpha_from_args(args), args.mass, args.tol, args.seed)
        ran = True
    if args.rho is not None:
        ok &= _verify_rho(parse_rho(args.rho), args.mass, args.tol, args.seed)
        ran = True
    if args.gamma is not None or args.matrix is not None:
        if args.matrix is not None:
            u = parse_matrix(args.matrix)
        else:
            u = matrix2.compose(_gamma_from_args(args), args.tol)
        q = matrix2.decompose_u2(u, args.tol)
        diff = float(np.abs(matrix2.compose(q) - u).max())
        ok &= _print_check("decomposition-round-trip", diff <= 1e-12, diff)
        bc = correspondence.classify(u, args.mass, args.tol)
        if isinstance(bc, Transmitting):
            ok &= _verify_alpha(bc.alpha, args.mass, args.tol, args.seed)
        else:
            ok &= _verify_rho(bc.rho, args.mass, args.tol, args.seed)
        ran = True
    if args.fuzz is not None:
        ok &= _verify_fuzz(args.fuzz, args.mass, args.tol, args.seed)
        ran = True
    if not ran:
        raise ValidationError("verify needs a payload (--alpha/--rho/--gamma/--matrix) or --fuzz N")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# scatter
# ---------------------------------------------------------------------------


def _scatter_rows_payload(rows) -> list[dict]:
    payload = []
    for row in rows:
        payload.append(
            {
                "E": row.E,
                "k": row.k,
                "lambda": row.lam,
                "re_r": complex(row.r).real,
                "im_r": complex(row.r).imag,
                "re_t": complex(row.t).real,
                "im_t": complex(row.t).imag,
                "R": row.R,
                "T": row.T,
                "phase_t": row.transmission_phase,
                "flag": row.flag or "",
            }
        )
    return payload


def _rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for rec in _scatter_rows_payload(rows):
        lines.append(
            ",".join(
                [
                    fmt17(rec["E"]),
                    fmt17(rec["k"]),
                    fmt17(rec["lambda"]),
                    fmt17(rec["re_r"]),
                    fmt17(rec["im_r"]),
                    fmt17(rec["re_t"]),
                    fmt17(rec["im_t"]),
                    fmt17(rec["R"]),
                    fmt17(rec["T"]),
                    fmt17(rec["phase_t"]),
                    rec["flag"],
                ]
            )
        )
    return "\n".join(lines) + "\n"


def cmd_scatter(args) -> int:
    m = args.mass
    if args.alpha is not None:
        bc = Transmitting(_alpha_from_args(args))
        boundary.require_class(bc.alpha, args.tol)
    elif args.rho is not None:
        bc = Separating(parse_rho(args.rho))
    elif args.gamma is not None or args.matrix is not None:
        u = parse_matrix(args.matrix) if args.matrix is not None else matrix2.compose(
            _gamma_from_args(args), args.tol
        )
        bc = correspondence.classify(u, m, args.tol)
    else:
        raise ValidationError("scatter needs --alpha, --rho, --gamma or --matrix")
    face = Island.LEFT if args.face == "left" else Island.RIGHT
    try:
        rows = scattering.sweep(bc, args.emin, args.emax, args.steps, m, face=face)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if args.format == "csv":
        text = _rows_to_csv(rows)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        emit(_scatter_rows_payload(rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# demo-switch
# ---------------------------------------------------------------------------


def cmd_demo_switch(args) -> int:
    report = scattering.switch_demo()
    ok = report.ok

    def unit_payload(u):
        return {
            "alpha": alpha_json(u.alpha),
            "r": cjson(u.r),
            "t": cjson(u.t),
            "T": u.T,
            "transmission_phase": u.transmission_phase,
            "up_maps_to": [cjson(c) for c in u.up_maps_to],
            "down_maps_to": [cjson(c) for c in u.down_maps_to],
            "preserves_spin": u.preserves_spin,
            "swaps_spin": u.swaps_spin,
        }

    payload = {
        "unit0": unit_payload(report.unit0),
        "unit1": unit_payload(report.unit1),
        "phase_variants": [
            {
                "theta": v.theta,
                "t": cjson(v.t),
                "T": v.T,
                "transmission_phase": v.transmission_phase,
            }
            for v in report.phase_variants
        ],
    }
    print(
        f"Unit0 (spin-preserving): T={report.unit0.T:.12g}, "
        f"up->up |{abs(report.unit0.up_maps_to[0]):.3f}|, "
        f"spin preserved: {report.unit0.preserves_spin}"
    )
    print(
        f"Unit1 (spin-interchanging): T={report.unit1.T:.12g}, "
        f"up->down |{abs(report.unit1.up_maps_to[1]):.3f}|, "
        f"spin swapped: {report.unit1.swaps_spin}"
    )
    if args.phase is not None:
        theta = parse_angle(args.phase)
        res = scattering.scatter_alpha(boundary.make_phase_shift(theta, 1.0), 1.0, 0.0)
        phase_ok = bool(
            abs(res.T - 1.0) <= 1e-12
            and abs(np.exp(1j * (res.transmission_phase - theta)) - 1.0) <= 1e-12
        )
        ok = ok and phase_ok
        payload["phase_request"] = {
            "theta": theta,
            "transmission_phase": res.transmission_phase,
            "T": res.T,
            "verified": phase_ok,
        }
        print(
            f"Phase variant theta={theta:.12g}: transmitted phase "
            f"{res.transmission_phase:.12g}, T={res.T:.12g}"
        )
    payload["ok"] = ok
    emit(payload, args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mass", type=float, default=0.0, help="particle mass m >= 0")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="membership tolerance")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracjunction",
        description=(
            "Boundary-condition calculus for the 1-D Dirac operator on two "
            "half-lines joined by a junction"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="split a unitary into phase * SU(2) parameters")
    p.add_argument("--matrix", required=True, help='JSON [[ [re,im],... ], ...]')
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("convert", help="convert between parameterizations")
    p.add_argument(
        "direction",
        choices=["u2-to-bc", "bc-to-u2", "alpha-to-bd", "bd-to-alpha", "rho-to-u2"],
    )
    p.add_argument("--gamma", help="g1,g2,g3 complex shorthand")
    p.add_argument("--matrix", help="JSON 2x2 matrix of [re,im]")
    p.add_argument("--diag", help="gL,gR complex shorthand")
    p.add_argument("--alpha", help="a1,a2,a3,a4 complex shorthand")
    p.add_argument("--rho", help="rho_plus,rho_minus ('inf' allowed)")
    p.add_argument("--bd", help="theta,b1,b2,b3,b4 (theta accepts pi expressions)")
    _add_common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("verify", help="run constraint, round-trip and symmetry checks")
    p.add_argument("--alpha", help="a1,a2,a3,a4 complex shorthand")
    p.add_argument("--rho", help="rho_plus,rho_minus")
    p.add_argument("--gamma", help="g1,g2,g3 complex shorthand")
    p.add_argument("--matrix", help="JSON 2x2 matrix")
    p.add_argument("--fuzz", type=int, default=None, metavar="N", help="check N >= 1 random instances")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scatter", help="energy sweep of reflection/transmission")
    p.add_argument("--alpha", help="a1,a2,a3,a4 complex shorthand")
    p.add_argument("--rho", help="rho_plus,rho_minus")
    p.add_argument("--gamma", help="g1,g2,g3 complex shorthand")
    p.add_argument("--matrix", help="JSON 2x2 matrix")
    p.add_argument("--emin", type=float, required=True)
    p.add_argument("--emax", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--face", choices=["left", "right"], default="left")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p)
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("demo-switch", help="two-unit spin/phase switching demonstration")
    p.add_argument("--phase", default=None, help="extra phase-shift variant, e.g. pi/2")
    _add_common(p)
    p.set_defaults(func=cmd_demo_switch)

    return parser


#: Flags whose values may begin with '-' (e.g. --diag -1,-1); they are merged
#: into --flag=value before argparse sees them.
_PAYLOAD_FLAGS = {"--gamma", "--diag", "--alpha", "--rho", "--bd", "--matrix", "--phase"}


def _merge_payload_flags(argv: list[str]) -> list[str]:
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _PAYLOAD_FLAGS and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(_merge_payload_flags(argv))
    try:
        args.mass = correspondence.check_mass(args.mass)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except JunctionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
