"""Seeded inputs for the four benchmark workloads.

Every op is a pure function of (workload, seed, index): the same seed gives
the same argv list and the same library inputs, whatever the run length.
The generators are the benchmark's own numpy code; the program under test
only ever receives the values they produce.

A CLI op is a dict with ``kind``, ``argv`` (the arguments after
``python -m diracjunction.cli``), ``instances`` (extension-class instances
the op processes) and ``spec`` (what the output checker needs to know).
Complex numbers inside ``spec`` are ``[re, im]`` pairs so that an op can be
rebuilt in another process from its index alone.
"""

from __future__ import annotations

import json
import math

import numpy as np

WORKLOADS = ("cli-short", "cli-bulk", "lib-maps", "lib-oracles")
MASSES = (0.0, 0.5, 1.0, 10.0)

SHORT_VALID = (
    "decompose",
    "u2-to-bc",
    "bc-to-u2",
    "alpha-to-bd",
    "bd-to-alpha",
    "rho-to-u2",
    "verify-alpha",
    "verify-rho",
    "verify-gamma",
    "scatter",
    "demo",
    "demo-phase",
)
#: Documented error classes the CLI turns into exit 2.
SHORT_INVALID = ("non-class-alpha", "non-unitary", "below-gap")
#: Inputs the CLI mishandles today, drawn only with ``known_defects=True``
#: so that a timed run consists of ops that succeed: ``--mass -1`` ends in a
#: ValueError traceback with exit 1 ...
KNOWN_DEFECTS = ("negative-mass",)
#: ... and ``verify --fuzz`` at mass 10 reports FAIL on its own valid
#: instances (rho round trip near 1.3e-12 against its 1e-12 limit).
FUZZ_MASSES = (0.0, 0.5, 1.0)
FUZZ_DEFECT_MASS = 10.0
#: One argv in this many is invalid.
INVALID_EVERY = 10

#: cli-bulk kinds and their sizes (rows or fuzz instances).  Each size puts
#: well over half of an op's wall time outside interpreter start and import
#: on a 2-core Xeon, and keeps the kinds within about 20% of each other so
#: that the op-time percentiles do not hinge on which kinds a run reaches.
BULK_SIZES = {
    "scatter-alpha-csv": 32000,
    "scatter-alpha-json": 34000,
    "scatter-rho-csv": 62000,
    "scatter-rho-json": 60000,
    "scatter-gamma": 38000,
    "verify-fuzz": 3600,
}


def rng_for(workload: str, seed: int, stream: int, index: int) -> np.random.Generator:
    """Generator for one op (stream 0) or one block of kind order (stream 1)."""
    return np.random.default_rng([seed % 2**63, WORKLOADS.index(workload), stream, index])


# ---------------------------------------------------------------------------
# Random values (independent of the package's own generators)
# ---------------------------------------------------------------------------


def c2(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def cstr(z: complex) -> str:
    """Complex literal in the CLI's shorthand, exact to the last bit."""
    z = complex(z)
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def unit(rng: np.random.Generator) -> complex:
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(phi), math.sin(phi))


def log_uniform(rng: np.random.Generator, lo: float = 0.25, hi: float = 4.0) -> float:
    mag = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return mag if rng.uniform() < 0.5 else -mag


def random_bd(rng: np.random.Generator) -> tuple[float, float, float, float, float]:
    """(theta, b1, b2, b3, b4) with b1*b4 + b2*b3 = 1."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    b2, b3, b1 = log_uniform(rng), log_uniform(rng), log_uniform(rng)
    return theta, b1, b2, b3, (1.0 - b2 * b3) / b1


def bd_alpha(theta: float, b1: float, b2: float, b3: float, b4: float) -> list[complex]:
    ph = complex(math.cos(theta), math.sin(theta))
    return [ph * b1, 1j * ph * b2, 1j * ph * b3, ph * b4]


def random_alpha(rng: np.random.Generator) -> list[complex]:
    return bd_alpha(*random_bd(rng))


def random_gamma(rng: np.random.Generator, min_offdiag: float = 0.1) -> list[complex]:
    """(g1, g2, g3) with |g1|^2 + |g2|^2 = |g3| = 1 and |g2| >= min_offdiag."""
    while True:
        v = rng.standard_normal(4)
        g1, g2 = complex(v[0], v[1]), complex(v[2], v[3])
        n = math.hypot(abs(g1), abs(g2))
        if n > 1e-3 and abs(g2) >= min_offdiag * n:
            return [g1 / n, g2 / n, unit(rng)]


def gamma_matrix(g: list[complex]) -> np.ndarray:
    g1, g2, g3 = g
    return g3 * np.array([[g1, -np.conj(g2)], [g2, np.conj(g1)]], dtype=complex)


def random_rho_component(rng: np.random.Generator) -> float:
    if rng.uniform() < 0.15:
        return math.inf
    while True:
        x = float(rng.standard_cauchy())
        if abs(x) <= 1e3:
            return x


def rho_str(v: float) -> str:
    return "inf" if math.isinf(v) else repr(v)


def rho_json(v: float):
    return "inf" if math.isinf(v) else v


def energy_above(rng: np.random.Generator, m: float) -> float:
    return m + math.exp(rng.uniform(math.log(0.05), math.log(3.0)))


def matrix_str(u: np.ndarray) -> str:
    return json.dumps([[c2(u[i, j]) for j in range(2)] for i in range(2)])


def mass(rng: np.random.Generator) -> float:
    return MASSES[int(rng.integers(len(MASSES)))]


# ---------------------------------------------------------------------------
# CLI ops
# ---------------------------------------------------------------------------


def _payload(rng: np.random.Generator, kind: str) -> tuple[list[str], dict]:
    """A valid condition as CLI flags plus its checker spec.

    kind: "alpha" (transmitting), "rho" (separating), "gamma" (non-diagonal
    or, with probability 1/4, diagonal form), "gamma-nondiag", "matrix".
    """
    if kind == "alpha":
        a = random_alpha(rng)
        return ["--alpha", ",".join(cstr(x) for x in a)], {"alpha": [c2(x) for x in a]}
    if kind == "rho":
        rp, rm = random_rho_component(rng), random_rho_component(rng)
        return ["--rho", f"{rho_str(rp)},{rho_str(rm)}"], {"rho": [rho_json(rp), rho_json(rm)]}
    if kind == "gamma" and rng.uniform() < 0.25:
        g = [unit(rng), 0j, unit(rng)]
    else:
        g = random_gamma(rng)
    u = gamma_matrix(g)
    spec = {"u": [[c2(u[i, j]) for j in range(2)] for i in range(2)]}
    if kind == "matrix":
        return ["--matrix", matrix_str(u)], spec
    return ["--gamma", ",".join(cstr(x) for x in g)], spec


def _scatter(rng: np.random.Generator, steps: int, payload_kind: str, fmt: str) -> dict:
    m = mass(rng)
    flags, spec = _payload(rng, payload_kind)
    emin = m + rng.uniform(0.05, 0.5)
    emax = emin + rng.uniform(0.5, 3.0)
    face = "right" if payload_kind == "rho" and rng.uniform() < 0.5 else "left"
    argv = ["scatter", *flags, "--mass", repr(m), "--emin", repr(emin), "--emax",
            repr(emax), "--steps", str(steps), "--face", face, "--format", fmt]
    spec.update(m=m, emin=emin, emax=emax, steps=steps, face=face, format=fmt)
    return {"argv": argv, "spec": spec, "instances": 1}


def _short_valid(rng: np.random.Generator, kind: str) -> dict:
    m = mass(rng)
    mflag = ["--mass", repr(m)]
    if kind == "decompose":
        g = random_gamma(rng) if rng.uniform() < 0.75 else [unit(rng), 0j, unit(rng)]
        u = gamma_matrix(g)
        spec = {"u": [[c2(u[i, j]) for j in range(2)] for i in range(2)]}
        return {"argv": ["decompose", "--matrix", matrix_str(u)], "spec": spec}
    if kind == "u2-to-bc":
        if rng.uniform() < 0.25:
            gl, gr = unit(rng), unit(rng)
            u = np.diag([gl, gr])
            flags = ["--diag", f"{cstr(gl)},{cstr(gr)}"]
            spec = {"u": [[c2(u[i, j]) for j in range(2)] for i in range(2)]}
        else:
            flags, spec = _payload(rng, "matrix" if rng.uniform() < 0.5 else "gamma-nondiag")
        spec["m"] = m
        return {"argv": ["convert", "u2-to-bc", *flags, *mflag], "spec": spec}
    if kind in ("bc-to-u2", "alpha-to-bd"):
        flags, spec = _payload(rng, "alpha")
        spec["m"] = m
        return {"argv": ["convert", kind, *flags, *mflag], "spec": spec}
    if kind == "bd-to-alpha":
        theta, b1, b2, b3, b4 = random_bd(rng)
        text = repr(theta)
        if rng.uniform() < 0.25:
            k = int(rng.integers(-7, 8))
            theta, text = k * math.pi / 4.0, f"{k}pi/4"
        bd = [theta, b1, b2, b3, b4]
        arg = ",".join([text, *(repr(b) for b in bd[1:])])
        return {"argv": ["convert", "bd-to-alpha", "--bd", arg], "spec": {"bd": bd}}
    if kind == "rho-to-u2":
        flags, spec = _payload(rng, "rho")
        spec["m"] = m
        return {"argv": ["convert", "rho-to-u2", *flags, *mflag], "spec": spec}
    if kind.startswith("verify-"):
        flags, spec = _payload(rng, kind[len("verify-"):])
        seed = ["--seed", str(int(rng.integers(0, 2**31)))]
        return {"argv": ["verify", *flags, *mflag, *seed], "spec": spec}
    if kind == "scatter":
        steps = int(rng.integers(2, 17))
        fmt = "json" if rng.uniform() < 0.5 else "csv"
        return _scatter(rng, steps, ("alpha", "rho", "gamma")[int(rng.integers(3))], fmt)
    if kind == "demo":
        return {"argv": ["demo-switch"], "spec": {}}
    if kind == "demo-phase":
        if rng.uniform() < 0.5:
            k, d = int(rng.integers(-7, 8)), int(rng.choice([2, 3, 4, 6]))
            text, theta = f"{k}pi/{d}", k * math.pi / d
        else:
            theta = rng.uniform(-math.pi, math.pi)
            text = repr(theta)
        return {"argv": ["demo-switch", "--phase", text], "spec": {"theta": theta}}
    raise ValueError(kind)


def _short_invalid(rng: np.random.Generator, kind: str) -> dict:
    if kind == "non-class-alpha":
        a = random_alpha(rng)
        a[0] += 0.5 * unit(rng)
        alpha = ",".join(cstr(x) for x in a)
        cmd = [["convert", "alpha-to-bd"], ["convert", "bc-to-u2"],
               ["scatter", "--emin", "2", "--emax", "3", "--steps", "4"]][int(rng.integers(3))]
        return {"argv": [*cmd, "--alpha", alpha, "--mass", repr(mass(rng))]}
    if kind == "non-unitary":
        u = gamma_matrix(random_gamma(rng)) * rng.uniform(1.05, 1.5)
        cmd = [["decompose"], ["convert", "u2-to-bc"], ["verify"],
               ["scatter", "--emin", "12", "--emax", "13", "--steps", "4"]][int(rng.integers(4))]
        return {"argv": [*cmd, "--matrix", matrix_str(u)]}
    if kind == "below-gap":
        m = MASSES[1 + int(rng.integers(len(MASSES) - 1))]
        flags, _ = _payload(rng, ("alpha", "rho")[int(rng.integers(2))])
        emin = m * rng.uniform(0.1, 0.99)
        return {"argv": ["scatter", *flags, "--mass", repr(m), "--emin", repr(emin),
                         "--emax", repr(m + 2.0), "--steps", "8"]}
    if kind == "negative-mass":
        cmd, payload = [
            (["convert", "rho-to-u2"], "rho"),
            (["convert", "bc-to-u2"], "alpha"),
            (["convert", "u2-to-bc"], "matrix"),
            (["verify"], "alpha"),
            (["verify"], "rho"),
            (["scatter", "--emin", "2", "--emax", "3", "--steps", "4"], "alpha"),
        ][int(rng.integers(6))]
        flags, _ = _payload(rng, payload)
        return {"argv": [*cmd, *flags, "--mass", "-1"]}
    raise ValueError(kind)


def _permuted(workload: str, seed: int, kinds: tuple[str, ...], n: int) -> str:
    """The n-th kind of an endless run of seeded permutations of ``kinds``,
    so every kind appears equally often whatever the run length."""
    block, pos = divmod(n, len(kinds))
    order = rng_for(workload, seed, 1, block).permutation(len(kinds))
    return kinds[int(order[pos])]


def cli_op(workload: str, seed: int, index: int, known_defects: bool = False) -> dict:
    rng = rng_for(workload, seed, 0, index)
    if workload == "cli-short":
        cycle, slot = divmod(index, INVALID_EVERY)
        if slot == INVALID_EVERY - 1:
            classes = KNOWN_DEFECTS + SHORT_INVALID if known_defects else SHORT_INVALID
            kind = classes[cycle % len(classes)]
            op = _short_invalid(rng, kind)
            op.update(spec={"invalid": kind}, instances=1)
        else:
            kind = _permuted(workload, seed, SHORT_VALID, cycle * (INVALID_EVERY - 1) + slot)
            op = _short_valid(rng, kind)
            op.setdefault("instances", 1)
    elif workload == "cli-bulk":
        kind = _permuted(workload, seed, tuple(BULK_SIZES), index)
        size = BULK_SIZES[kind]
        if kind == "verify-fuzz":
            m = FUZZ_DEFECT_MASS if known_defects else FUZZ_MASSES[
                int(rng.integers(len(FUZZ_MASSES)))]
            op = {"argv": ["verify", "--fuzz", str(size), "--mass", repr(m), "--seed",
                           str(int(rng.integers(0, 2**31)))],
                  "spec": {"fuzz": size}, "instances": size}
        else:
            _, payload, *fmt = kind.split("-")
            fmt = fmt[0] if fmt else None
            if payload == "gamma":
                fmt = "json" if rng.uniform() < 0.5 else "csv"
                payload = "gamma-nondiag"
            op = _scatter(rng, size, payload, fmt)
    else:
        raise ValueError(f"{workload} is not a CLI workload")
    op["kind"] = kind
    return op


# ---------------------------------------------------------------------------
# Library ops
# ---------------------------------------------------------------------------


def lib_op(workload: str, seed: int, index: int) -> dict:
    rng = rng_for(workload, seed, 0, index)
    m = mass(rng)
    if workload == "lib-maps":
        if rng.uniform() < 0.2:
            u = np.diag([unit(rng), unit(rng)])
        else:
            u = gamma_matrix(random_gamma(rng))
        return {"m": m, "u": u, "E": energy_above(rng, m)}
    if workload == "lib-oracles":
        lam = rng.uniform(0.0, 1.0)
        coef = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        return {
            "m": m,
            "lam": lam,
            "alpha": random_alpha(rng),
            "rho": (random_rho_component(rng), random_rho_component(rng)),
            "u": gamma_matrix(random_gamma(rng)),
            "diag": (unit(rng), unit(rng)),
            "sign": ("plus", "minus")[int(rng.integers(2))],
            "psi": coef[0],
            "phi": coef[1],
            "verify_seeds": [int(s) for s in rng.integers(0, 2**31, 2)],
        }
    raise ValueError(f"{workload} is not a library workload")
