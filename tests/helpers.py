"""Helpers only the tests use: 2x2 matrices as numpy arrays, boundary
spinors, the probability current, form equivalence, scattering columns as
numpy arrays, the sweep rows formatted one row at a time and random draws
that the package itself never needs."""

import math
import re

import numpy as np

from diracjunction import scattering
from diracjunction.boundary import TWO_PI, AlphaBC, BDForm, Island, RhoBC
from diracjunction.cli import CSV_HEADER, FMT17
from diracjunction.correspondence import ExtensionClass, check_mass
from diracjunction.matrix2 import DEFAULT_TOL, MAX_MAGNITUDE, QuaternionForm, as_c2matrix, is_unitary

#: B, the bound of every magnitude, and the words naming it in every refusal
#: of a larger one, as text and as a ``pytest.raises`` pattern.
B = MAX_MAGNITUDE
BOUND_TEXT = f"B = 2^255 = {B!r}"
BOUND_MATCH = re.escape(BOUND_TEXT)


def off_the_class(a: AlphaBC) -> AlphaBC:
    """``a`` with a1 scaled by 1 + 1e-6: a distance of about 1e-6 from the class."""
    return a._replace(a1=a.a1 * (1.0 + 1e-6))


def leaving_the_class(draw_fuzz, *indices: int):
    """``checks.draw_fuzz`` with the transmitting condition of each instance
    in ``indices`` moved :func:`off_the_class`; it refuses a count as eagerly."""

    def draws(count: int, m: float, seed: int):
        stream = draw_fuzz(count, m, seed)
        return ((off_the_class(a) if i in indices else a, E, r) for i, (a, E, r) in enumerate(stream))

    return draws


def as_array(matrix) -> np.ndarray:
    """A 2x2 matrix as a complex ndarray: entries such as ``compose`` returns,
    or the boundary matrix [[a1, a2], [a3, a4]] of an :class:`AlphaBC`."""
    return np.array(matrix, dtype=complex).reshape(2, 2)


def apply_alpha(a: AlphaBC, v_minus) -> np.ndarray:
    """Boundary value at the right face: B times the left-face spinor."""
    return as_array(a) @ np.asarray(v_minus, dtype=complex)


def satisfies_rho(r: RhoBC, v_minus, v_plus, tol: float = DEFAULT_TOL) -> bool:
    """Whether boundary spinors satisfy the separating condition at both faces.

    Finite rho: |i*rho*v_up - v_down| <= tol * scale; infinite rho:
    |v_up| <= tol * scale, with scale = max(1, |v_up|, |v_down|) so tiny
    vectors cannot pass vacuously.
    """

    def face_ok(rho: float, v: np.ndarray) -> bool:
        up, down = complex(v[0]), complex(v[1])
        scale = max(1.0, abs(up), abs(down))
        if math.isinf(rho):
            return abs(up) <= tol * scale
        return abs(1j * rho * up - down) <= tol * scale

    return face_ok(r.rho_minus, np.asarray(v_minus, dtype=complex)) and face_ok(
        r.rho_plus, np.asarray(v_plus, dtype=complex)
    )


def current(v) -> float:
    """Probability current j = 2 Re(v_up* v_down) of a boundary spinor."""
    w = np.asarray(v, dtype=complex)
    return float(2.0 * (w[0].conjugate() * w[1]).real)


class ArrayColumns(scattering.ScatteringColumns):
    """Scattering columns as numpy arrays, ``r`` and ``t`` as complex arrays,
    and each row of Python numbers."""

    def row(self, i: int) -> scattering.ScatteringResult:
        return scattering.ScatteringColumns(*(col[i : i + 1].tolist() for col in self)).row(0)

    @staticmethod
    def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
        z = np.empty(len(re), dtype=complex)
        z.real, z.imag = re, im
        return z

    @property
    def r(self) -> np.ndarray:
        return self._complex(self.re_r, self.im_r)

    @property
    def t(self) -> np.ndarray:
        return self._complex(self.re_t, self.im_t)


def scatter_batch(
    bc: ExtensionClass, E, m: float, face: Island = Island.LEFT, tol: float = DEFAULT_TOL
) -> ArrayColumns:
    """The package's scattering kernel at every energy of ``E``, all above
    the gap (unchecked), with its columns as numpy arrays."""
    E = np.asarray(E, dtype=float).ravel()
    return ArrayColumns(E, *map(np.array, scattering._columns(bc, E.tolist(), check_mass(m), face, tol)))


_CSV_ROW = ",".join([FMT17] * 10 + ["%s"])
_JSON_ROW = "{" + ", ".join(f'"{name}": %s' for name in CSV_HEADER.split(",")[:-1]) + ', "flag": "%s"}'


def rows_text(cols: scattering.ScatteringColumns, fmt: str) -> str:
    """A grid part's rows, joined, with every value formatted in its own row:
    the reference for the CLI's formatter, which formats a constant column once."""
    row, sep = (_CSV_ROW, "\n") if fmt == "csv" else (_JSON_ROW, ", ")
    return sep.join(map(row.__mod__, zip(*cols, [""] * len(cols.E))))


def bd_equivalent(f: BDForm, g: BDForm, tol: float = 1e-9) -> bool:
    """Equality of forms up to the joint flip (theta + pi, -b), which leaves
    the assembled matrix unchanged."""

    def close(x: BDForm, y: BDForm) -> bool:
        dt = abs((x.theta - y.theta + math.pi) % TWO_PI - math.pi)
        return dt <= tol and all(
            abs(p - q) <= tol * max(1.0, abs(p), abs(q))
            for p, q in zip(x.bs(), y.bs())
        )

    flipped = BDForm((g.theta + math.pi) % TWO_PI, *(-b for b in g.bs()))
    return close(f, g) or close(f, flipped)


def det2(matrix) -> complex:
    """Determinant of a 2x2 matrix, computed directly."""
    (a, b), (c, d) = as_c2matrix(matrix)
    return a * d - b * c


def is_su2(matrix, tol: float = DEFAULT_TOL) -> bool:
    """True iff the matrix is unitary with determinant 1 within tolerance."""
    m = as_c2matrix(matrix)
    return is_unitary(m, tol) and abs(det2(m) - 1.0) <= tol


def random_spinor(rng: np.random.Generator) -> np.ndarray:
    """Complex-normal 2-spinor."""
    return rng.standard_normal(2) + 1j * rng.standard_normal(2)


def random_quaternion_form(
    rng: np.random.Generator, min_offdiag: float = 0.0
) -> QuaternionForm:
    """Draw a valid random form; |g2| >= min_offdiag via rejection."""
    while True:
        v = rng.standard_normal(4)
        g1 = complex(v[0], v[1])
        g2 = complex(v[2], v[3])
        norm = math.hypot(abs(g1), abs(g2))
        if norm < 1e-12:
            continue
        g1 /= norm
        g2 /= norm
        if abs(g2) < min_offdiag:
            continue
        phi = rng.uniform(0.0, 2.0 * math.pi)
        return QuaternionForm(g1, g2, complex(math.cos(phi), math.sin(phi)))
