"""Command-line front end.

Subcommands: ``decompose`` (unitary -> three-parameter form), ``convert``
(all parameter maps), ``verify`` (constraint/round-trip/self-adjointness
checks, optionally fuzzing random instances), ``scatter`` (energy sweeps to
CSV or JSON), ``demo-switch`` (the two-unit spin/phase switch), read by
:func:`parse_args` against one flag table, which also renders ``--help``.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 input validation error (usage errors included), 3 internal inconsistency.
Identical inputs produce byte-identical output; fuzzing uses a fixed
default seed.  Complex flag values accept ``a+bi`` shorthand or JSON
``[re, im]``, and JSON output writes every complex number as its
``[re, im]`` pair; the infinite separating parameter is spelled ``inf``.

A unitary payload is a pair of pairs of Python complex.  No command imports
``numpy`` or ``argparse``; only code that reads JSON imports ``json``, and
:func:`to_json` writes it.
Both bulk commands run in one process per usable CPU, which take small chunks
of the work on demand from a token pipe through one fork runner
(:func:`_in_parts`), byte for byte as in one process.  Entry point: :func:`run`.
"""

from __future__ import annotations

import contextlib
import gc
import marshal
import math
import os
import re
import struct
import sys
from itertools import chain, islice
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from . import boundary, correspondence, matrix2
from .boundary import AlphaBC, BDForm, Island, RhoBC
from .correspondence import Separating, Transmitting
from .errors import InternalInconsistencyError, JunctionError, ValidationError
from .matrix2 import DEFAULT_TOL

if TYPE_CHECKING:
    from .scattering import ScatteringColumns

DEFAULT_SEED = 20177

CSV_HEADER = "E,k,lambda,re_r,im_r,re_t,im_t,R,T,phase_t,flag"
#: 17-significant-digit decimal; round-trips float64 exactly.
FMT17 = "%.17g"
_JSON_ROW = "{" + "".join(f'"{name}": %s, ' for name in CSV_HEADER.split(",")[:-1]) + '"flag": ""}'
#: format -> (a value's format, a row with a %s per value, row separator, text before the rows, text after)
_LAYOUT = {"csv": (FMT17, "%s," * 10, "\n", CSV_HEADER + "\n", "\n"), "json": ("%s", _JSON_ROW, ", ", "[", "]\n")}
_float_bits = struct.Struct("d").pack


# ---------------------------------------------------------------------------
# Parsing and formatting
# ---------------------------------------------------------------------------


def _finite(z: complex, token) -> complex:
    """``z``, or :class:`ValidationError` naming ``token`` if a part is NaN or infinite."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(f"complex value must be finite, got {token!r}")
    return z


def _pair(value) -> complex:
    """The complex number of a decoded JSON ``[re, im]``, a list of exactly two numbers."""
    real, imag = value if isinstance(value, list) else ()
    return complex(float(real), float(imag))


def parse_complex(token: str) -> complex:
    """Parse 'a+bi' shorthand or a JSON [re, im] pair, both parts finite."""
    s = token.strip()
    try:
        if s.startswith("["):
            import json
            z = _pair(json.loads(s))
        else:
            z = complex(s.replace(" ", "").replace("i", "j"))
    except (ValueError, TypeError, OverflowError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise ValidationError(f"bad complex literal {token!r}") from exc
    return _finite(z, token)


def _values(text: str, count: int, what: str) -> list[str]:
    """The ``count`` values of the list flag ``what``, split on the commas outside brackets, so a
    JSON [re, im] entry stays whole."""
    parts = re.split(r",(?![^\[]*\])", text)
    if len(parts) != count:
        raise ValidationError(f"{what} needs {count} comma-separated values, got {len(parts)}")
    return parts


def parse_matrix(text: str) -> matrix2.Entries:
    """Parse a JSON 2x2 matrix of [re, im] pairs, every part finite."""
    import json
    try:
        (p, q), (r, s) = json.loads(text)
        a, b, c, d = map(_pair, (p, q, r, s))
    except (ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise ValidationError(f"bad matrix literal {text!r}: need two rows of two [re, im] pairs") from exc
    return (_finite(a, p), _finite(b, q)), (_finite(c, r), _finite(d, s))


def parse_rho_component(token: str) -> float:
    s = token.strip().lower()
    if s in {"inf", "+inf", "infinity", "+infinity"}:
        return math.inf
    try:
        v = float(s)
    except ValueError as exc:
        raise ValidationError(f"bad separating parameter {token!r}") from exc
    if math.isnan(v) or math.isinf(v):
        raise ValidationError("separating parameters are finite reals or 'inf'")
    return v


def parse_angle(text: str) -> float:
    """Parse a finite angle: plain float or a pi expression like 'pi/2', '-3pi/4'."""
    s = text.strip().lower().replace(" ", "").replace("*", "")
    m = re.fullmatch(r"([+-]?(?:\d+\.?\d*|\.\d+)?)pi(?:/([+-]?\d*\.?\d+))?", s)
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


def _bd_value(token: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise ValidationError(f"bad --bd value {token!r}") from exc


def parse_bd(text: str) -> BDForm:
    """Parse theta,b1,b2,b3,b4; theta accepts pi expressions."""
    theta, *bs = _values(text, 5, "--bd")
    return BDForm(parse_angle(theta) % (2.0 * math.pi), *map(_bd_value, bs))


def rho_json_value(v: float):
    return "inf" if math.isinf(v) else v


def write(text: str | bytes, out=None) -> None:
    """Write ``text`` as UTF-8 to the file ``out``, or to stdout's binary layer if it has one."""
    data = text.encode() if isinstance(text, str) else text
    if out:
        try:
            with open(out, "wb") as fh:
                fh.write(data)
        except OSError as exc:  # a directory, a missing parent, no permission
            raise ValidationError(f"cannot write --out {out!r}: {exc.strerror}") from exc
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()  # after anything already in the text layer
        sys.stdout.buffer.write(data)
    else:  # an io.StringIO, say
        sys.stdout.write(data.decode())


def to_json(obj) -> str:
    """``json.dumps(obj, default=lambda z: [z.real, z.imag])``, byte for byte, of what the commands emit:
    dicts with string keys, lists, tuples (records too), strings, None, bools, ints, floats, and anything
    else, a complex number above all, as its [re, im] pair.  Only a string that ``json`` escapes, which no
    command writes, imports ``json``; the CLI's names are printable ASCII without quotes or backslashes."""
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, str):
        if obj.isascii() and obj.isprintable() and '"' not in obj and "\\" not in obj:
            return f'"{obj}"'
        import json
        return json.dumps(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):  # float's repr, or json's spelling of a value that is not finite
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "-Infinity" if obj < 0.0 else "Infinity"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{to_json(key)}: {to_json(value)}" for key, value in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(to_json, obj)) + "]"
    return to_json([obj.real, obj.imag])


def emit(obj, out=None, *lines: str) -> None:
    """Write ``lines``, then ``obj`` as one line of JSON (:func:`to_json`) with each complex number as its
    [re, im] pair."""
    write("".join(f"{line}\n" for line in (*lines, to_json(obj))), out)


# ---------------------------------------------------------------------------
# Payloads: the one condition or unitary a command works on
# ---------------------------------------------------------------------------

#: flag name -> (help, parser of the flag's text and --tol).  --alpha and
#: --rho give a boundary condition, --gamma/--matrix/--diag a unitary as a
#: pair of pairs of complex.
_PAYLOADS = {
    "alpha": ("a1,a2,a3,a4 complex shorthand",
              lambda text, tol: Transmitting(AlphaBC(*map(parse_complex, _values(text, 4, "--alpha"))))),
    "rho": ("rho_plus,rho_minus ('inf' allowed)",
            lambda text, tol: Separating(RhoBC(*map(parse_rho_component, _values(text, 2, "--rho"))))),
    "gamma": ("g1,g2,g3 complex shorthand", lambda text, tol: matrix2.compose(
        matrix2.QuaternionForm(*map(parse_complex, _values(text, 3, "--gamma"))), tol)),
    "matrix": ("JSON 2x2 matrix of [re,im] pairs", lambda text, tol: parse_matrix(text)),
    "diag": ("gL,gR complex shorthand", lambda text, tol: _diagonal(*map(parse_complex, _values(text, 2, "--diag")))),
    "bd": ("theta,b1,b2,b3,b4 (theta accepts pi expressions)", lambda text, tol: parse_bd(text)),
}
_CONDITION = ("alpha", "rho", "gamma", "matrix")


def _diagonal(gl: complex, gr: complex) -> matrix2.Entries:
    return (gl, 0j), (0j, gr)


#: convert's directions -> the payload flags each reads
_CONVERT = {"u2-to-bc": ("gamma", "matrix", "diag"), "bc-to-u2": ("alpha",), "alpha-to-bd": ("alpha",),
            "bd-to-alpha": ("bd",), "rho-to-u2": ("rho",)}


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


def _gammas(q: matrix2.QuaternionForm) -> dict:
    return dict(zip(("gamma1", "gamma2", "gamma3"), q))


def cmd_decompose(args) -> int:
    m = _payload(args, ("matrix",))
    q = matrix2.decompose_u2(m, args.tol)
    emit({**_gammas(q), "branch": matrix2.decompose_branch(m, args.tol)}, args.out)
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
            payload = {"type": "transmitting", "alpha": bc.alpha}
    elif args.direction == "bc-to-u2":
        comparison = correspondence.compare_closed_form(x.alpha, m, tol=args.tol)
        kind = comparison.classification
        payload = {
            **_gammas(comparison.primary),
            "closed_form_comparison": {
                "agrees_exactly": kind == "exact",
                "agrees_up_to_sign_pair": kind == "sign_pair",
                "disagrees": kind == "mismatch",
                "max_abs_difference": min(comparison.difference, comparison.difference_flipped),
            },
        }
    elif args.direction == "alpha-to-bd":
        f = boundary.alpha_to_bd(x.alpha, args.tol)
        payload = {"theta": f.theta, "a": f.bs()}
    elif args.direction == "bd-to-alpha":
        payload = {"alpha": boundary.bd_to_alpha(x, args.tol)}
    else:  # rho-to-u2
        payload = dict(zip(("gamma_left", "gamma_right"), correspondence.rho_to_diagonal_u2(x.rho, m)))
    emit(payload, args.out)
    return 0


def cmd_verify(args) -> int:
    from . import checks

    x = _payload(args, (*_CONDITION, "fuzz"))
    result = checks.verify_condition(x, args.mass, args.tol) if args.fuzz is None else _fuzz(args)
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
# Bulk commands in forked parts: verify --fuzz and scatter
# ---------------------------------------------------------------------------


#: Rows per part: two parts of this size format faster than one of twice it (README).
_PART_ROWS = 4096
#: Fuzz instances per part, measured as :data:`_PART_ROWS` was (README).
_PART_INSTANCES = 256
#: cgroup v2's CPU quota of this process's group: "max", or a quota and a period.
_CPU_MAX = "/sys/fs/cgroup/cpu.max"
#: Chunks per part: each process takes the next chunk when it is done with one (README).
_CHUNKS_PER_PART = 16
#: A chunk index in the token pipe, of one width, so that one read takes one token.
_TOKEN = struct.Struct("=I")
#: The most tokens written before the first fork: a pipe holds at least a page, 4,096 bytes, unread.
_TOKENS = 4096 // _TOKEN.size
#: A worker's frame head: a chunk's index and its length in bytes, followed by its bytes.
_FRAME = struct.Struct("=IQ")


def _part_count(n: int, per_part: int) -> int:
    """One part per CPU this process may use (and its cgroup allows), each of ``per_part`` or more of ``n``."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with contextlib.suppress(OSError, ValueError), open(_CPU_MAX) as fh:  # no file, or no quota ("max")
        quota, period = map(int, fh.read().split())
        cpus = min(cpus, -(-quota // period))
    return max(1, min(cpus, n // per_part)) if hasattr(os, "fork") else 1


def _taken(tokens: int) -> Iterator[int]:
    """The chunk indices in the token pipe ``tokens``, read one token at a time until it is empty."""
    while token := os.read(tokens, _TOKEN.size):
        yield _TOKEN.unpack(token)[0]


def _in_parts(n: int, parts: int, render: Callable[[int, int], bytes]) -> list[bytes | memoryview]:
    """``render(lo, hi)`` over the contiguous chunks of ``range(n)``, in order, shared on demand by
    ``parts`` (<= ``n``) processes: :data:`_CHUNKS_PER_PART` chunks a part, one when ``parts`` is 1.

    Forked worker i starts on chunk i and this process on those up to ``parts`` that no worker started
    on.  The later chunks' indices wait as tokens in one pipe, written before the first fork, and every
    process reads one at a time until it is empty, so a faster CPU renders more; a failed pipe or fork
    leaves more to this process.  A worker keeps its chunks and sends them back at the end as
    index-tagged frames.  Every worker is reaped before any reply is decoded, and one that fails,
    whatever its error, makes this raise :class:`InternalInconsistencyError`."""
    chunks = min(n, parts * _CHUNKS_PER_PART, parts + _TOKENS) if parts > 1 else 1
    bounds = [n * i // chunks for i in range(chunks + 1)]
    pieces: list[bytes | memoryview] = [b""] * chunks

    def take(indices: Iterable[int]) -> list[int]:
        done = []
        for i in indices:
            pieces[i] = render(bounds[i], bounds[i + 1])
            done.append(i)
        return done

    workers, tokens, replies = [], None, []
    try:
        if parts > 1:
            try:
                tokens, w = os.pipe()
            except OSError:  # out of descriptors: no worker, and this process takes every chunk
                parts = 1
            else:
                with open(w, "wb") as pipe:  # at most a page, which the pipe holds unread
                    pipe.write(b"".join(map(_TOKEN.pack, range(parts, chunks))))
        for i in range(parts - 1):
            fds = ()
            try:
                r, w = fds = os.pipe()
                pid = os.fork()
            except OSError:  # out of processes or descriptors
                for fd in fds:
                    os.close(fd)
                break
            if pid == 0:  # the worker writes its frames to its pipe; os._exit flushes no inherited buffer
                try:
                    os.close(r)
                    done = take(chain((i,), _taken(tokens)))
                    with open(w, "wb") as pipe:
                        pipe.writelines(part for j in done for part in (_FRAME.pack(j, len(pieces[j])), pieces[j]))
                except BaseException:  # nothing written, no traceback: the parent reports it
                    os._exit(1)
                os._exit(0)
            os.close(w)
            workers.append((pid, open(r, "rb")))
        take(range(chunks) if tokens is None else chain(range(len(workers), parts), _taken(tokens)))
        replies = [pipe.read() for _, pipe in workers]
    finally:
        if tokens is not None:
            os.read(tokens, _TOKENS * _TOKEN.size)  # what is left if this process failed: the workers stop
            os.close(tokens)
        for _, pipe in workers:  # a worker still writing then sees a broken pipe and exits
            pipe.close()
        failed = [pid for pid, _ in workers if os.waitpid(pid, 0)[1]]
    if failed:
        raise InternalInconsistencyError("a worker computing part of the output failed")
    for reply in replies:
        view, at = memoryview(reply), 0
        while at < len(reply):
            i, size = _FRAME.unpack_from(reply, at)
            at += _FRAME.size + size
            pieces[i] = view[at - size : at]
    return pieces


def _constant(col: list[float]) -> bool:
    """Whether every value of ``col`` has the bits of the first.  The last is compared first, which
    turns a varying column away at once.  ``count`` compares with ``==``, which takes -0.0 for 0.0, so a
    zero column is compared as bytes, and never takes a NaN for another object, so a NaN column passes
    only when it repeats one object."""
    first = col[0]
    bits = _float_bits(first)
    return (_float_bits(col[-1]) == bits and col.count(first) == len(col)
            and (first != 0.0 or struct.pack(f"{len(col)}d", *col) == bits * len(col)))


def _rows_text(cols: ScatteringColumns, fmt: str) -> str:
    """A grid part's rows, joined, each constant column formatted once; a JSON record is what
    ``json.dumps`` gives for its dict (``str`` of a float is the ``repr`` that ``json`` writes, and every
    sweep value is finite)."""
    spec, row, sep, _, _ = _LAYOUT[fmt]
    constant = [_constant(col) for col in cols]
    template = row % tuple(spec % col[0] if c else spec for col, c in zip(cols, constant))
    varying = [col for col, c in zip(cols, constant) if not c]
    return sep.join(map(template.__mod__, zip(*varying)) if varying else [template] * len(cols.E))


def _sweep_bytes(bc, args, parts: int) -> bytes:
    """A checked sweep's output, as UTF-8, from ``parts`` (<= steps) processes (:func:`_in_parts`)."""
    from .scattering import sweep_part

    sweep = bc, args.emin, args.emax, args.steps, args.mass, Island(args.face), args.tol
    pieces = _in_parts(args.steps, parts, lambda lo, hi: _rows_text(sweep_part(*sweep, lo, hi), args.format).encode())
    _, _, sep, head, tail = (text.encode() for text in _LAYOUT[args.format])
    chunks = [head, *(chunk for piece in pieces for chunk in (piece, sep))]
    chunks[-1] = tail  # in place of the separator after the last piece
    return b"".join(chunks)


def _fuzz(args, parts: int | None = None):
    """``verify --fuzz``'s verdict from ``parts`` processes (:func:`_part_count`'s by default) sharing
    its chunks (:func:`_in_parts`).  Each process draws its own copy of the run's one stream on demand:
    only when it takes a later chunk does it draw the rest of its last one and those the others took.
    It sends back, in :mod:`marshal`'s format (built in, so nothing is imported), each chunk's
    :func:`~.checks.check_fuzz` result or its typed error's exit code and message."""
    from . import checks

    n = args.fuzz
    draws = checks.draw_fuzz(n, args.mass, args.seed)  # refuses n < 1 before any fork; draws nothing yet
    chunk, drawn = iter(()), 0  # the last chunk taken, what a check left of it, and where it ends

    def render(lo: int, hi: int) -> bytes:
        nonlocal chunk, drawn
        for _ in chunk:  # what a check that stopped early left
            pass
        chunk, drawn = islice(draws, lo - drawn, hi - drawn), hi
        try:
            part = checks.check_fuzz(chunk, args.mass, args.tol)
        except JunctionError as exc:
            part = {"exit": 3 if isinstance(exc, InternalInconsistencyError) else 2, "error": str(exc)}
        return marshal.dumps(part)

    pieces = _in_parts(n, parts or _part_count(n, _PART_INSTANCES), render)
    typed = (ValidationError, InternalInconsistencyError)  # by exit code - 2
    return checks.merge_fuzz([typed[p["exit"] - 2](p["error"]) if isinstance(p, dict) else p
                              for p in map(marshal.loads, pieces)])


def cmd_scatter(args) -> int:
    from . import scattering

    bc = _payload(args, _CONDITION)
    if not isinstance(bc, correspondence.ExtensionClass):  # a unitary
        bc = correspondence.classify(bc, args.mass, args.tol)
    scattering.check_sweep(bc, args.emin, args.emax, args.steps, args.mass, args.tol)
    write(_sweep_bytes(bc, args, _part_count(args.steps, _PART_ROWS)), args.out)
    return 0


# ---------------------------------------------------------------------------
# demo-switch
# ---------------------------------------------------------------------------


def cmd_demo_switch(args) -> int:
    from . import scattering

    theta = None if args.phase is None else parse_angle(args.phase)
    report = scattering.switch_demo()
    ok = report.ok
    payload = {u.name: {k: v for k, v in u._asdict().items() if k != "name"} for u in (report.unit0, report.unit1)}
    payload["phase_variants"] = [v._asdict() for v in report.phase_variants]
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
    emit(payload, args.out, *lines)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Command line: one flag table, read word by word
# ---------------------------------------------------------------------------

#: name -> spec: type (str by default), default (None by default), choices, required, help
_FLAGS = {
    **{name: {"help": text} for name, (text, _) in _PAYLOADS.items()},
    "direction": {"choices": tuple(_CONVERT), "required": True, "help": "the map to apply"},
    "fuzz": {"type": int, "help": "check this many (>= 1) random instances"},
    "seed": {"type": int, "default": DEFAULT_SEED, "help": "random seed >= 0 for --fuzz; one condition draws nothing"},
    "emin": {"type": float, "required": True, "help": "lowest energy, above the mass"},
    "emax": {"type": float, "required": True, "help": "highest energy, finite"},
    "steps": {"type": int, "required": True, "help": "number of energies, >= 2"},
    "face": {"choices": ("left", "right"), "default": "left", "help": "face the wave comes in through"},
    "format": {"choices": ("csv", "json"), "default": "csv", "help": "output format"},
    "phase": {"help": "extra phase-shift variant, e.g. pi/2"},
    "mass": {"type": float, "default": 0.0, "help": "particle mass m >= 0"},
    "tol": {"type": float, "default": DEFAULT_TOL, "help": "membership tolerance, > 0 and < 1"},
    "out": {"help": "write output to this path instead of stdout"},
}
#: command -> (help, handler, its positional words (each required), its flags)
_COMMANDS = {
    "decompose": ("split a unitary into phase * SU(2) parameters", cmd_decompose, (), ("matrix", "tol", "out")),
    "convert": ("convert between parameterizations", cmd_convert, ("direction",), (*_PAYLOADS, "mass", "tol", "out")),
    "verify": ("run constraint, round-trip and symmetry checks", cmd_verify, (),
               (*_CONDITION, "fuzz", "seed", "mass", "tol", "out")),
    "scatter": ("energy sweep of reflection/transmission", cmd_scatter, (),
                (*_CONDITION, "emin", "emax", "steps", "face", "format", "mass", "tol", "out")),
    "demo-switch": ("two-unit spin/phase switching demonstration", cmd_demo_switch, (), ("phase", "out")),
}


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The words after the program name as a namespace: ``command``, its handler ``func`` and each of its
    positional words and flags, given or by default.  A flag's value is the next word, whatever it begins with,
    or follows ``=``; the last repeat wins; a flag is spelt in full.  ``-h``/``--help`` gives a ``func`` that
    prints the help.  A usage error raises :class:`ValidationError`."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        return SimpleNamespace(command=None, func=_help)
    if command not in _COMMANDS:
        raise ValidationError(f"expected a command, one of {', '.join(_COMMANDS)}; got {' '.join(argv[:1]) or 'none'}")
    _, func, slots, names = _COMMANDS[command]
    args = SimpleNamespace(command=command, func=func, **{name: _FLAGS[name].get("default") for name in slots + names})
    words, pending = iter(argv[1:]), list(slots)
    for word in words:
        if word in ("-h", "--help"):
            return SimpleNamespace(command=command, func=_help)
        name, given, value = word[2:].partition("=")
        if word.startswith("--") and name in names:
            what = f"--{name}"
            if not given and (value := next(words, None)) is None:
                raise ValidationError(f"argument {what}: expected one argument")
        elif pending and not word.startswith("-"):
            name = what = pending.pop(0)
            value = word
        else:
            raise ValidationError(f"unrecognized arguments: {word}")
        spec = _FLAGS[name]
        kind = spec.get("type", str)
        try:
            setattr(args, name, kind(value))
        except ValueError:
            raise ValidationError(f"argument {what}: invalid {kind.__name__} value: {value!r}") from None
        if "choices" in spec and value not in spec["choices"]:
            raise ValidationError(f"argument {what}: invalid choice: {value!r} (one of {', '.join(spec['choices'])})")
    missing = pending + [f"--{name}" for name in names if _FLAGS[name].get("required") and getattr(args, name) is None]
    if missing:
        raise ValidationError(f"the following arguments are required: {', '.join(missing)}")
    return args


def _help(args) -> int:
    """Print the help of ``args.command`` (the program's if None), rendered from the flag tables.  It
    imports nothing, so ``-m diracjunction.cli --help`` loads this module's own imports and no more: a
    bytecode-cache warm-up (perfbench's ``build``) spawns it to compile those."""
    if args.command is None:
        usage, text = "COMMAND", "The 1-D Dirac junction calculus; 'COMMAND --help' lists a command's flags."
        rows = [(name, {"help": what}) for name, (what, *_) in _COMMANDS.items()]
    else:
        text, _, slots, names = _COMMANDS[args.command]
        usage = " ".join((args.command, *map(str.upper, slots)))
        rows = [(name.upper(), _FLAGS[name]) for name in slots] + [(f"--{n} {n.upper()}", _FLAGS[n]) for n in names]
    lines = [f"usage: diracjunction {usage} [--flag VALUE | --flag=VALUE ...]", "", text, ""]
    for label, spec in rows:
        notes = [f"one of {', '.join(spec['choices'])}"] if "choices" in spec else []
        notes += ["required"] if spec.get("required") else [f"default {spec['default']}"] if "default" in spec else []
        lines.append(f"  {label:<18}{'; '.join([spec['help'], *notes])}")
    write("\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        if hasattr(args, "mass"):
            args.mass = correspondence.check_mass(args.mass)
        # a relative tolerance of 1 or more admits every condition
        if hasattr(args, "tol") and not 0.0 < args.tol < 1.0:
            raise ValidationError(f"--tol must be finite, > 0 and < 1, got {args.tol!r}")
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """The process entry: :func:`main`, then ``gc.freeze()`` so that shutdown skips the heap, then exit."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
