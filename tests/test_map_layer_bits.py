"""Golden bits of the scalar map layer.

``artifacts/map_layer_bits.json`` holds, for about 120 seeded unitaries at
the masses {0, 0.5, 1, 10, 1e3} and a few invalid inputs, the SHA-256 of
``float.hex`` of every output of the scalar maps, or of the type and message
of the error they raise (the hex itself would take over 200 KB); the errors
are also stored as text.  The test recomputes all of it and requires an
exact match, so a change that reorders the arithmetic of a map, or drops
the sign of a zero, fails here.  Each matrix is given as an ndarray, the
stored form, and also as nested lists and as rows of Python complex, which
must give the same bits.

Regenerate the record (only when a map's arithmetic is meant to change)
with ``PYTHONPATH=src python tests/test_map_layer_bits.py --write``.
"""

import cmath
import hashlib
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

from diracjunction.boundary import AlphaBC, Island, alpha_to_bd, bd_to_alpha
from diracjunction.correspondence import (
    Transmitting,
    alpha_to_u2,
    classify,
    closed_form_u2_candidate,
    compare_closed_form,
    diagonal_u2_to_rho,
    rho_to_diagonal_u2,
    u2_to_alpha,
)
from diracjunction.errors import JunctionError
from diracjunction.matrix2 import compose, decompose_u2, unitarity_residual
from diracjunction.scattering import scatter_alpha, scatter_rho

RECORD = Path(__file__).resolve().parent.parent / "artifacts" / "map_layer_bits.json"
MASSES = (0.0, 0.5, 1.0, 10.0, 1e3)
SEED = 24
NEG_ZERO = -0.0
#: Unitaries with int entries and with signed zeros, each run at every mass.
SPECIAL = (
    [[0, 1], [1, 0]],
    [[1, 0], [0, 1]],
    [[0, -1], [1, 0]],
    [[1, 0], [0, -1]],
    [[-1, 0], [0, -1]],
    [[1, 0], [0, 1j]],
    [[NEG_ZERO, 1.0], [1.0, NEG_ZERO]],
    [[NEG_ZERO, -1.0], [1.0, NEG_ZERO]],
    [[complex(NEG_ZERO, NEG_ZERO), 1j], [1j, complex(0.0, NEG_ZERO)]],
    [[complex(-1.0, NEG_ZERO), 0], [0, complex(1.0, NEG_ZERO)]],
    [[complex(-1.0, 0.0), NEG_ZERO], [NEG_ZERO, 1.0]],
    [[0.5 ** 0.5, 0.5 ** 0.5], [0.5 ** 0.5, -(0.5 ** 0.5)]],
)


def _random_unitary(rng: random.Random, diagonal: bool) -> list[list[complex]]:
    if diagonal:
        return [[cmath.exp(1j * rng.uniform(-4.0, 4.0)), 0j], [0j, cmath.exp(1j * rng.uniform(-4.0, 4.0))]]
    x = [rng.gauss(0.0, 1.0) for _ in range(4)]
    n = math.sqrt(sum(v * v for v in x))
    g1, g2 = complex(x[0] / n, x[1] / n), complex(x[2] / n, x[3] / n)
    g3 = cmath.exp(1j * rng.uniform(-4.0, 4.0))
    return [[g3 * g1, g3 * -g2.conjugate()], [g3 * g2, g3 * g1.conjugate()]]


def corpus() -> list[tuple[str, list, float, float]]:
    """(label, rows, m, E) of every matrix input: 60 seeded unitaries, one in
    five diagonal, then each special matrix at every mass, then two invalid."""
    rng = random.Random(SEED)
    inputs = []
    for i in range(60):
        m = MASSES[i % len(MASSES)]
        rows = _random_unitary(rng, i % 5 == 2)
        inputs.append((f"random-{i}", rows, m, m + math.exp(rng.uniform(math.log(0.05), math.log(3.0)))))
    for i, rows in enumerate(SPECIAL):
        for m in MASSES:
            inputs.append((f"special-{i}-m{m!r}", rows, m, m + 0.75))
    inputs.append(("not-unitary", [[1, 1], [0, 1]], 1.0, 2.0))
    inputs.append(("nan-entry", [[math.nan, 0], [0, 1]], 1.0, 2.0))
    return inputs


def _hex(x):
    if isinstance(x, (bool, str)) or x is None:
        return x
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return [x.real.hex(), x.imag.hex()]
    if isinstance(x, Island):
        return x.value
    if isinstance(x, tuple):
        return [_hex(v) for v in x]
    raise TypeError(f"no hex form for {type(x).__name__}")


def _call(out: list, name: str, f, *args):
    try:
        value = f(*args)
    except (JunctionError, ValueError) as exc:
        out.append([name, f"{type(exc).__name__}: {exc}"])
        return None
    out.append([name, _hex(value)])
    return value


def alpha_outputs(out: list, a: AlphaBC, m: float, E: float) -> None:
    """The maps applied to a transmitting condition."""
    q = _call(out, "alpha_to_u2", alpha_to_u2, a, m)
    f = _call(out, "alpha_to_bd", alpha_to_bd, a)
    if f is not None:
        _call(out, "bd_to_alpha", bd_to_alpha, f)
    if q is not None:
        _call(out, "u2_to_alpha", u2_to_alpha, q, m)
        # the record labels compose's output by the name it had when the record was written
        _call(out, "compose_entries", compose, q)
    _call(out, "scatter_alpha", scatter_alpha, a, E, m)
    _call(out, "closed_form_u2_candidate", closed_form_u2_candidate, a, m)
    _call(out, "compare_closed_form", compare_closed_form, a, m)


def outputs(u, m: float, E: float) -> list:
    """Every map's output along the pipeline from the unitary ``u``."""
    out = []
    _call(out, "unitarity_residual", unitarity_residual, u)
    q = _call(out, "decompose_u2", decompose_u2, u)
    if q is not None:
        _call(out, "compose_entries", compose, q)
    bc = _call(out, "classify", classify, u, m)
    if bc is None:
        return out
    if isinstance(bc, Transmitting):
        alpha_outputs(out, bc.alpha, m, E)
        if q is not None:
            _call(out, "u2_to_alpha", u2_to_alpha, q, m)
        return out
    rho = bc.rho
    _call(out, "rho_to_diagonal_u2", rho_to_diagonal_u2, rho, m)
    _call(out, "diagonal_u2_to_rho", diagonal_u2_to_rho, u[0][0], u[1][1], m)
    for face in Island:
        _call(out, "scatter_rho", scatter_rho, rho, E, m, face)
    return out


def _entry(m: float, E: float, out: list) -> dict:
    text = json.dumps(out, separators=(",", ":"))
    errors = [value for _, value in out if isinstance(value, str) and ": " in value]
    return {"m": m.hex(), "E": E.hex(), "sha256": hashlib.sha256(text.encode()).hexdigest(), "errors": errors}


def record() -> dict:
    entries = {label: _entry(m, E, outputs(np.array(rows), m, E)) for label, rows, m, E in corpus()}
    out = []
    alpha_outputs(out, AlphaBC(1, 1, 0, 1), 1.0, 2.0)  # outside the class
    entries["not-in-class"] = _entry(1.0, 2.0, out)
    return entries


def test_every_output_keeps_its_bits():
    stored = json.loads(RECORD.read_text(encoding="utf-8"))
    now = record()
    assert now.keys() == stored.keys()
    assert [label for label in stored if now[label] != stored[label]] == []


def test_lists_and_complex_rows_give_the_ndarray_bits():
    for label, rows, m, E in corpus():
        want = outputs(np.array(rows), m, E)
        entries = tuple(tuple(complex(z) for z in row) for row in rows)
        assert outputs([list(row) for row in rows], m, E) == want, label
        assert outputs(entries, m, E) == want, label


def test_the_corpus_covers_what_it_names():
    everything = [outputs(np.array(rows), m, E) for _, rows, m, E in corpus()]
    names = {name for out in everything for name, _ in out}
    assert names == {
        "classify", "decompose_u2", "unitarity_residual", "alpha_to_u2", "alpha_to_bd", "bd_to_alpha",
        "u2_to_alpha", "compose_entries", "scatter_alpha", "scatter_rho", "rho_to_diagonal_u2",
        "diagonal_u2_to_rho", "closed_form_u2_candidate", "compare_closed_form",
    }
    # a classify result is [rho_plus, rho_minus] (separating) or [a1, a2, a3, a4] (transmitting)
    results = [value for out in everything for name, value in out if name == "classify"]
    sizes = [len(value[0]) for value in results if isinstance(value, list)]  # not an error message
    assert 0 < sizes.count(2) < sizes.count(4)
    stored = json.loads(RECORD.read_text(encoding="utf-8"))
    errors = {error.partition(":")[0] for entry in stored.values() for error in entry["errors"]}
    assert {"NotUnitaryError", "NotInClassError"} <= errors


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    RECORD.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
