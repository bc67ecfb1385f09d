"""Dense complex 2x2 linear algebra and the U(1)*SU(2) splitting of U(2).

Every public function accepts a matrix as a ``(2, 2)`` ``numpy`` array or
as a pair of pairs of numbers and converts it once, with
:func:`as_c2matrix`, to its four entries as Python ``complex``.  A record
converts its entries once too, when it is built: :class:`QuaternionForm`
and :class:`~.boundary.AlphaBC` hold Python ``complex`` and
:class:`~.boundary.RhoBC` holds Python ``float``, so their readers unpack
them as they are.  The private gate ``_unitary`` converts a matrix and
holds its unitarity residual to the tolerance, so :func:`decompose_u2`,
:func:`~.correspondence.classify` and the oracle
:func:`~.deficiency.oracle_alpha_from_u2` refuse the same matrices with
one message and never convert a matrix twice.  Nothing here imports ``numpy``: a
matrix this module returns, such as :func:`compose`'s, is its
:data:`Entries`.  The three-parameter representation
``U = g3 * [[g1, -g2*], [g2, g1*]]`` with ``|g1|^2 + |g2|^2 = |g3| = 1`` is
carried by :class:`QuaternionForm`.  All operations are pure functions on
immutable values and are safe to call concurrently.

The package's value types are records (:class:`Record`), named tuples that state
their fields once, as the parameters of their ``__new__``, so importing them
compiles nothing at run time.
"""

from __future__ import annotations

import math
from collections import _tuplegetter

from .errors import InvalidFormError, NotUnitaryError

#: A 2x2 matrix as its rows of Python complex entries.
Entries = tuple[tuple[complex, complex], tuple[complex, complex]]

#: Default tolerance for all membership predicates (double precision,
#: machine epsilon ~1e-16, only a handful of operations per predicate).
DEFAULT_TOL = 1e-10

#: B = 2^255, the bound of every finite magnitude the maps accept or produce
#: (|a_i|, the b's, |rho|, m and E): below it every product of two moduli, and
#: every sum of four such products, is finite.  A larger one raises a
#: ``ValidationError`` that names B in the words of :data:`BOUND`.
MAX_MAGNITUDE = 2.0 ** 255
BOUND = f"B = 2^255 = {MAX_MAGNITUDE!r}"

#: Floor of the tolerance a modulus or a unitarity residual is held to: rounding
#: alone leaves up to 3.5 units of roundoff in the norms of ``alpha_to_u2``'s
#: parameters on class members, one in the moduli of ``rho_to_diagonal_u2``'s
#: phases, and 3 in the unitarity residual of :func:`compose` of a form.
NORM_FLOOR = 8.0 * math.ulp(1.0)


def as_c2matrix(obj) -> Entries:
    """The four entries of a 2x2 matrix, given as an ndarray or as nested
    sequences, as rows of Python complex."""
    rows = obj.tolist() if hasattr(obj, "tolist") else obj
    try:
        (a, b), (c, d) = rows
    except (TypeError, ValueError) as exc:
        shape = getattr(obj, "shape", None)
        raise ValueError(f"expected a 2x2 matrix, got {shape or rows!r}") from exc
    return (complex(a), complex(b)), (complex(c), complex(d))


#: The C constructor every record's ``__new__`` returns through, bound once as
#: ``namedtuple``'s is: one global lookup per construction instead of a global
#: and an attribute lookup, which ``lib-maps`` measures (BENCH_34.json).
_new = tuple.__new__


class Record(tuple):
    """A value type: a tuple with named fields that compares as a frozen
    dataclass does, equal only to an instance of its own type with equal
    fields (never to a plain tuple), hashed as its tuple, and unordered.

    A subclass states its fields once, as the parameters of its own
    ``__new__``, which returns ``_new(cls, (field, ...))``.  Its ``_fields``
    are read from that signature, and each field gets the C accessor that
    ``collections.namedtuple`` installs.  So building a class compiles
    nothing at run time (``namedtuple`` compiles its constructor with
    ``eval``, and ``typing``'s named tuples compile each string annotation),
    the constructor sits in the bytecode cache, and construction and field
    access run the C paths of a ``namedtuple``.  ``repr``, ``_asdict``,
    ``_replace`` (through ``__new__``, so a validating one validates) and
    pickling are those of a ``namedtuple``."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        code = cls.__new__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        for i, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(i, None))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __lt__(self, other):
        raise TypeError(f"{type(self).__name__} instances are not ordered")

    __le__ = __gt__ = __ge__ = __lt__

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={value!r}' for name, value in zip(self._fields, self))})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def _replace(self, **changes):
        record = type(self)(*map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return record


def arg_2pi(z: complex) -> float:
    """Argument of ``z`` mapped into [0, 2*pi); never ``-0.0``."""
    a = math.atan2(z.imag, z.real) + 0.0  # + 0.0 turns -0.0 into 0.0
    if a < 0.0:
        a += 2.0 * math.pi
        if a == 2.0 * math.pi:  # a tiny negative angle rounds up to 2*pi
            a = 0.0
    return a


class QuaternionForm(Record):
    """Parameters (g1, g2, g3) of the phase-times-quaternion form of a unitary.

    The pair (g1, g2, g3) and (-g1, -g2, -g3) compose to the same matrix;
    the canonical representative has arg(g3) in [0, pi).
    """

    __slots__ = ()

    def __new__(cls, g1: complex, g2: complex, g3: complex):
        return _new(cls, (complex(g1), complex(g2), complex(g3)))

    def norm_residuals(self) -> tuple[float, float]:
        """Residuals of |g1|^2 + |g2|^2 = 1 and |g3| = 1; inf, not an
        ``OverflowError``, when a modulus exceeds the float range."""
        g1, g2, g3 = self
        return (
            abs(g1.real * g1.real + g1.imag * g1.imag + g2.real * g2.real + g2.imag * g2.imag - 1.0),
            abs(math.hypot(g3.real, g3.imag) - 1.0),
        )

    def is_canonical(self) -> bool:
        g3 = self.g3
        return g3.imag > 0.0 or (g3.imag == 0.0 and g3.real > 0.0)

    def negated(self) -> "QuaternionForm":
        return QuaternionForm(-self.g1, -self.g2, -self.g3)


def unitarity_residual(matrix) -> float:
    """Max-norm deviation of M^dag M and M M^dag from the identity; inf when
    an entry, or a product of entries, is not finite."""
    return _unitarity_residual(as_c2matrix(matrix))


def _unitarity_residual(m: Entries) -> float:
    """:func:`unitarity_residual` of entries.  Both products are Hermitian,
    so their six distinct entries are formed directly from the four matrix
    entries, in plain complex arithmetic."""
    (a, b), (c, d) = m
    na, nb = a.real * a.real + a.imag * a.imag, b.real * b.real + b.imag * b.imag
    nc, nd = c.real * c.real + c.imag * c.imag, d.real * d.real + d.imag * d.imag
    e1, e2, e3 = abs(na + nc - 1.0), abs(nb + nd - 1.0), abs(a.conjugate() * b + c.conjugate() * d)  # M^dag M
    e4, e5, e6 = abs(na + nb - 1.0), abs(nc + nd - 1.0), abs(a * c.conjugate() + b * d.conjugate())  # M M^dag
    # max() may skip a NaN; the sum of the entries cannot
    return max(e1, e2, e3, e4, e5, e6) if math.isfinite(e1 + e2 + e3 + e4 + e5 + e6) else math.inf


def is_unitary(matrix, tol: float = DEFAULT_TOL) -> bool:
    """True iff max-norm of (M^dag M - I) and (M M^dag - I) is <= tol."""
    return unitarity_residual(matrix) <= tol


def compose(q: QuaternionForm, tol: float = DEFAULT_TOL) -> Entries:
    """The entries of the unitary g3 * [[g1, -g2*], [g2, g1*]], as Python
    complex; raises :class:`InvalidFormError` when a norm residual of ``q``
    exceeds ``tol`` (``math.inf`` composes any finite parameters)."""
    g1, g2, g3 = q
    r1, r2 = q.norm_residuals()
    if not (r1 <= tol and r2 <= tol):
        raise InvalidFormError(f"quaternion-form norm residuals {(r1, r2)} exceed tol={tol}")
    return (g3 * g1, g3 * -g2.conjugate()), (g3 * g2, g3 * g1.conjugate())


def _unitary(matrix, tol: float) -> Entries:
    """The entries of ``matrix``; raises :class:`NotUnitaryError` when its
    unitarity residual exceeds ``tol``, or :data:`NORM_FLOOR` if that is larger."""
    m, limit = as_c2matrix(matrix), max(tol, NORM_FLOOR)
    residual = _unitarity_residual(m)
    if not residual <= limit:
        raise NotUnitaryError(f"matrix is not unitary: residual {residual:.3e} > tol {limit:.1e}")
    return m


def decompose_u2(matrix, tol: float = DEFAULT_TOL) -> QuaternionForm:
    """Split a unitary into phase * SU(2) parameters, canonicalized.

    The phase is extracted from the off-diagonal arguments when the lower
    off-diagonal entry is nonzero (|u21| > tol), and from the diagonal
    arguments otherwise; both branches reconstruct the input exactly up to
    rounding.  Raises :class:`NotUnitaryError` on input whose unitarity
    residual exceeds ``tol``, or :data:`NORM_FLOOR` if that is larger.
    """
    return _split_unitary(_unitary(matrix, tol), tol)


def _split_unitary(m: Entries, tol: float) -> QuaternionForm:
    """The splitting of :func:`decompose_u2`, of the entries of a matrix the
    caller has already found unitary; nothing is checked here."""
    (u11, u12), (u21, u22) = m
    if abs(u21) <= tol:
        # det U = e^{i(arg u11 + arg u22)}; removing half of it lands in SU(2)
        half = (arg_2pi(u11) + arg_2pi(u22)) / 2.0
    else:
        # det U = e^{i(arg u12 + arg u21 + pi)}
        half = (arg_2pi(u12) + arg_2pi(u21) + math.pi) / 2.0
    # canonicalize on the angle itself: g3 and -g3 differ by pi, and the
    # member with arg in [0, pi) is the representative; doing this before
    # exponentiating keeps boundary cases (arg exactly pi) exact
    half = math.fmod(half, math.pi)
    phase = complex(math.cos(half), math.sin(half))
    return QuaternionForm(u11 / phase, u21 / phase, phase)


def decompose_branch(matrix, tol: float = DEFAULT_TOL) -> str:
    """Which phase-extraction branch :func:`decompose_u2` takes for this input."""
    (_, _), (u21, _) = as_c2matrix(matrix)
    return "u21_zero" if abs(u21) <= tol else "u21_nonzero"

