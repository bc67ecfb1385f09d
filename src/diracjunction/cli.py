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

from . import boundary, checks, correspondence, matrix2, scattering
from .boundary import AlphaBC, BDForm, Island, RhoBC
from .correspondence import Separating, Transmitting
from .errors import InternalInconsistencyError, ValidationError
from .matrix2 import DEFAULT_TOL

DEFAULT_SEED = 20177

CSV_HEADER = "E,k,lambda,re_r,im_r,re_t,im_t,R,T,phase_t,flag"
#: 17-significant-digit decimal; round-trips float64 exactly.
FMT17 = "%.17g"
_CSV_ROW = ",".join([FMT17] * 10 + ["%s"])
_JSON_ROW = "{" + ", ".join(f'"{name}": %s' for name in CSV_HEADER.split(",")[:-1]) + ', "flag": "%s"}'


# ---------------------------------------------------------------------------
# Parsing and formatting
# ---------------------------------------------------------------------------


def _finite(z: complex, token) -> complex:
    """``z``, or :class:`ValidationError` naming ``token`` if a part is NaN or infinite."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(f"complex value must be finite, got {token!r}")
    return z


def parse_complex(token: str) -> complex:
    """Parse 'a+bi' shorthand or a JSON [re, im] pair, both parts finite."""
    s = token.strip()
    try:
        if s.startswith("["):
            pair = json.loads(s)
            z = complex(float(pair[0]), float(pair[1]))
        else:
            z = complex(s.replace(" ", "").replace("i", "j"))
    except (ValueError, TypeError, IndexError) as exc:
        raise ValidationError(f"bad complex literal {token!r}") from exc
    return _finite(z, token)


def parse_complex_list(text: str, count: int, what: str) -> list[complex]:
    """Split on the commas outside brackets, so JSON [re, im] entries stay whole."""
    parts = re.split(r",(?![^\[]*\])", text)
    if len(parts) != count:
        raise ValidationError(f"{what} needs {count} comma-separated values, got {len(parts)}")
    return [parse_complex(p) for p in parts]


def parse_matrix(text: str) -> np.ndarray:
    """Parse a JSON 2x2 matrix of [re, im] pairs, every part finite."""
    try:
        rows = json.loads(text)
        m = np.array(
            [[_finite(complex(float(e[0]), float(e[1])), e) for e in row] for row in rows],
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
    """Parse a finite angle: plain float or a pi expression like 'pi/2', '-3pi/4'."""
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
        if den == 0.0:
            raise ValidationError(f"bad angle {text!r}: zero denominator")
        angle = coef * math.pi / den
    else:
        try:
            angle = float(s)
        except ValueError as exc:
            raise ValidationError(f"bad angle {text!r}") from exc
    if not math.isfinite(angle):
        raise ValidationError(f"angle must be finite, got {text!r}")
    return angle


def parse_bd(text: str) -> BDForm:
    """Parse theta,b1,b2,b3,b4; theta accepts pi expressions."""
    parts = text.split(",")
    if len(parts) != 5:
        raise ValidationError("--bd needs five comma-separated values")
    theta = parse_angle(parts[0])
    try:
        bs = [float(p) for p in parts[1:]]
    except ValueError as exc:
        raise ValidationError(f"bad --bd values: {exc}") from exc
    if not all(map(math.isfinite, bs)):
        raise ValidationError(f"--bd values must be finite, got {text!r}")
    return BDForm(theta % (2.0 * math.pi), *bs)


def cjson(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def alpha_json(a: AlphaBC) -> list[list[float]]:
    return [cjson(c) for c in a.as_tuple()]


def rho_json_value(v: float):
    return "inf" if math.isinf(v) else float(v)


def write(text: str, out=None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def emit(obj, out=None) -> None:
    write(json.dumps(obj) + "\n", out)


# ---------------------------------------------------------------------------
# Payloads: the one condition or unitary a command works on
# ---------------------------------------------------------------------------

#: flag name -> (help, parser of the flag's text and --tol).  --alpha and
#: --rho give a boundary condition, --gamma/--matrix/--diag a unitary.
_PAYLOADS = {
    "alpha": (
        "a1,a2,a3,a4 complex shorthand",
        lambda text, tol: Transmitting(AlphaBC(*parse_complex_list(text, 4, "--alpha"))),
    ),
    "rho": ("rho_plus,rho_minus ('inf' allowed)", lambda text, tol: Separating(parse_rho(text))),
    "gamma": (
        "g1,g2,g3 complex shorthand",
        lambda text, tol: matrix2.compose(
            matrix2.QuaternionForm(*parse_complex_list(text, 3, "--gamma")), tol
        ),
    ),
    "matrix": ("JSON 2x2 matrix of [re,im] pairs", lambda text, tol: parse_matrix(text)),
    "diag": ("gL,gR complex shorthand", lambda text, tol: np.diag(parse_complex_list(text, 2, "--diag"))),
    "bd": ("theta,b1,b2,b3,b4 (theta accepts pi expressions)", lambda text, tol: parse_bd(text)),
}
_CONDITION = ("alpha", "rho", "gamma", "matrix")
_CONVERT = {
    "u2-to-bc": ("gamma", "matrix", "diag"),
    "bc-to-u2": ("alpha",),
    "alpha-to-bd": ("alpha",),
    "bd-to-alpha": ("bd",),
    "rho-to-u2": ("rho",),
}


def _payload(args, accepted: tuple[str, ...]):
    """The one payload flag given, parsed.

    Exactly one payload flag must be given, and it must be in ``accepted``;
    ``--fuzz N`` counts as one and resolves to N.
    """
    given = [name for name in (*_PAYLOADS, "fuzz") if getattr(args, name, None) is not None]
    if len(given) != 1 or given[0] not in accepted:
        what = getattr(args, "direction", args.command)
        found = ", ".join(f"--{name}" for name in given) or "none"
        raise ValidationError(
            f"{what} takes exactly one of {', '.join(f'--{n}' for n in accepted)}; got {found}"
        )
    name = given[0]
    return args.fuzz if name == "fuzz" else _PAYLOADS[name][1](getattr(args, name), args.tol)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _gammas_json(q: matrix2.QuaternionForm) -> dict:
    return {"gamma1": cjson(q.g1), "gamma2": cjson(q.g2), "gamma3": cjson(q.g3)}


def cmd_decompose(args) -> int:
    m = _payload(args, ("matrix",))
    q = matrix2.decompose_u2(m, args.tol)
    emit({**_gammas_json(q), "branch": matrix2.decompose_branch(m, args.tol)}, args.out)
    return 0


def cmd_convert(args) -> int:
    m = args.mass
    x = _payload(args, _CONVERT[args.direction])
    if args.direction == "u2-to-bc":
        bc = correspondence.classify(x, m, args.tol)
        if isinstance(bc, Separating):
            payload = {
                "type": "separating",
                "rho_plus": rho_json_value(bc.rho.rho_plus),
                "rho_minus": rho_json_value(bc.rho.rho_minus),
            }
        else:
            payload = {"type": "transmitting", "alpha": alpha_json(bc.alpha)}
    elif args.direction == "bc-to-u2":
        comparison = correspondence.compare_closed_form(x.alpha, m)
        payload = {
            **_gammas_json(comparison.primary),
            "closed_form_comparison": {
                "agrees_exactly": comparison.agrees_exactly,
                "agrees_up_to_sign_pair": comparison.agrees_up_to_sign_pair,
                "disagrees": comparison.disagrees,
                "max_abs_difference": min(comparison.difference, comparison.difference_flipped),
            },
        }
    elif args.direction == "alpha-to-bd":
        f = boundary.alpha_to_bd(x.alpha, args.tol)
        payload = {"theta": f.theta, "a": [f.b1, f.b2, f.b3, f.b4]}
    elif args.direction == "bd-to-alpha":
        payload = {"alpha": alpha_json(boundary.bd_to_alpha(x, args.tol))}
    else:  # rho-to-u2
        gl, gr = correspondence.rho_to_diagonal_u2(x.rho, m)
        payload = {"gamma_left": cjson(gl), "gamma_right": cjson(gr)}
    emit(payload, args.out)
    return 0


def cmd_verify(args) -> int:
    x = _payload(args, (*_CONDITION, "fuzz"))
    verify = checks.verify_condition if args.fuzz is None else checks.verify_fuzz
    result = verify(x, args.mass, args.tol, args.seed)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name} residual={r.residual:.6e}"
        for r in result.records
    ]
    if result.closed_form:
        tally = " ".join(f"{key}={value}" for key, value in result.closed_form.items())
        lines.append(f"INFO closed-form-inverse {tally}")
    lines.append("PASS" if result.passed else "FAIL")
    write("\n".join(lines) + "\n", args.out)
    return 0 if result.passed else 1


# ---------------------------------------------------------------------------
# scatter
# ---------------------------------------------------------------------------


def _sweep_fields(cols: scattering.ScatteringColumns) -> list[list]:
    """A sweep's output fields in :data:`CSV_HEADER` order, one list per field;
    ``flag`` is always empty."""
    values = (cols.E, cols.k, cols.lam, cols.r.real, cols.r.imag,
              cols.t.real, cols.t.imag, cols.R, cols.T, cols.phase_t)
    return [v.tolist() for v in values] + [[""] * cols.E.size]


def _csv_text(records) -> str:
    """CSV of output records (tuples in :data:`CSV_HEADER` order)."""
    return "\n".join([CSV_HEADER, *map(_CSV_ROW.__mod__, records)]) + "\n"


def _json_text(fields: list[list]) -> str:
    """The JSON array of row records, byte for byte what ``json.dumps`` gives
    for the list of dicts.  ``str`` of a float is the ``repr`` that ``json``
    writes; only the non-finite values are spelled differently."""
    text = "[" + ", ".join(map(_JSON_ROW.__mod__, zip(*fields))) + "]\n"
    return text.replace(": nan", ": NaN").replace(": inf", ": Infinity").replace(": -inf", ": -Infinity")


def cmd_scatter(args) -> int:
    bc = _payload(args, _CONDITION)
    if isinstance(bc, np.ndarray):
        bc = correspondence.classify(bc, args.mass, args.tol)
    try:
        cols = scattering.sweep_columns(
            bc, args.emin, args.emax, args.steps, args.mass, Island(args.face), args.tol
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    fields = _sweep_fields(cols)
    write(_csv_text(zip(*fields)) if args.format == "csv" else _json_text(fields), args.out)
    return 0


# ---------------------------------------------------------------------------
# demo-switch
# ---------------------------------------------------------------------------


def cmd_demo_switch(args) -> int:
    theta = None if args.phase is None else parse_angle(args.phase)
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
    lines = [
        f"Unit0 (spin-preserving): T={report.unit0.T:.12g}, "
        f"up->up |{abs(report.unit0.up_maps_to[0]):.3f}|, "
        f"spin preserved: {report.unit0.preserves_spin}",
        f"Unit1 (spin-interchanging): T={report.unit1.T:.12g}, "
        f"up->down |{abs(report.unit1.up_maps_to[1]):.3f}|, "
        f"spin swapped: {report.unit1.swaps_spin}",
    ]
    if theta is not None:
        v = scattering.phase_variant(theta)
        ok = ok and v.verified
        payload["phase_request"] = {
            "theta": theta,
            "transmission_phase": v.transmission_phase,
            "T": v.T,
            "verified": v.verified,
        }
        lines.append(f"Phase variant theta={theta:.12g}: transmitted phase {v.transmission_phase:.12g}, T={v.T:.12g}")
    payload["ok"] = ok
    write("\n".join([*lines, json.dumps(payload)]) + "\n", args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_COMMON = {
    "mass": {"type": float, "default": 0.0, "help": "particle mass m >= 0"},
    "tol": {"type": float, "default": DEFAULT_TOL, "help": "membership tolerance, finite and > 0"},
    "out": {"default": None, "help": "write output to this path instead of stdout"},
}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """Declare payload flags (:data:`_PAYLOADS`) and common flags by name."""
    for name in names:
        p.add_argument(f"--{name}", **({"help": _PAYLOADS[name][0]} if name in _PAYLOADS else _COMMON[name]))


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
    _add_flags(p, "matrix", "tol", "out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("convert", help="convert between parameterizations")
    p.add_argument("direction", choices=list(_CONVERT))
    _add_flags(p, *_PAYLOADS, "mass", "tol", "out")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("verify", help="run constraint, round-trip and symmetry checks")
    _add_flags(p, *_CONDITION)
    p.add_argument("--fuzz", type=int, default=None, metavar="N", help="check N >= 1 random instances")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed >= 0")
    _add_flags(p, "mass", "tol", "out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scatter", help="energy sweep of reflection/transmission")
    _add_flags(p, *_CONDITION)
    p.add_argument("--emin", type=float, required=True)
    p.add_argument("--emax", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--face", choices=["left", "right"], default="left")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_flags(p, "mass", "tol", "out")
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("demo-switch", help="two-unit spin/phase switching demonstration")
    p.add_argument("--phase", default=None, help="extra phase-shift variant, e.g. pi/2")
    _add_flags(p, "out")
    p.set_defaults(func=cmd_demo_switch)

    return parser


#: Flags whose values may begin with '-' (e.g. --diag -1,-1); they are merged
#: into --flag=value before argparse sees them.
_MERGED_FLAGS = {f"--{name}" for name in _PAYLOADS} | {"--phase"}


def _merge_payload_flags(argv: list[str]) -> list[str]:
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _MERGED_FLAGS and i + 1 < len(argv):
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
        if hasattr(args, "mass"):
            args.mass = correspondence.check_mass(args.mass)
        if hasattr(args, "tol") and not 0.0 < args.tol < math.inf:
            raise ValidationError(f"--tol must be finite and > 0, got {args.tol!r}")
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
