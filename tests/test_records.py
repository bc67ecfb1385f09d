"""The package's value types against ``collections.namedtuple`` twins.

Every record is a :class:`~diracjunction.matrix2.Record`: a tuple whose
fields are the parameters of its ``__new__``.  Its twin is the
``namedtuple`` with the same name, fields and defaults, and the two must
agree on construction, ``repr``, ``_fields``, ``_asdict``, ``_replace``,
``hash``, pickling and copying.  Unlike its twin, a record equals only an
instance of its own type, refuses ordering and refuses attribute
assignment.

A record also holds one form of its entries, Python ``complex`` (or
``float`` for :class:`RhoBC`), whatever numbers it is built from, and every
map of it keeps the bits of the record built from that form.
"""

import copy
import math
import pickle
from collections import namedtuple

import numpy as np
import pytest

from diracjunction import checks
from diracjunction.boundary import AlphaBC, BDForm, ClassReport, Island, RhoBC, invert_alpha, validate_class
from diracjunction.correspondence import (
    ClosedFormComparison,
    Separating,
    Transmitting,
    compare_closed_form,
    inverse_identity_residuals,
    rho_to_diagonal_u2,
    u2_to_alpha,
)
from diracjunction.errors import ValidationError
from diracjunction.matrix2 import QuaternionForm, Record, compose, decompose_u2
from diracjunction.scattering import (
    PhaseVariant,
    ScatteringColumns,
    ScatteringResult,
    SwitchDemoReport,
    UnitReport,
    scatter_alpha,
    scatter_rho,
    sweep_columns,
    switch_demo,
)
from test_map_layer_bits import _call, alpha_outputs

SWAP = AlphaBC(0j, 1 + 0j, 1 + 0j, 0j)
DEMO = switch_demo()
VERIFICATION = checks.verify_condition(Transmitting(SWAP), 1.0, 1e-10)

#: record type -> its fields, in order, and an instance of it
RECORDS = {
    QuaternionForm: ("g1 g2 g3", decompose_u2(((0j, -1 + 0j), (1 + 0j, 0j)))),
    RhoBC: ("rho_plus rho_minus", RhoBC(math.inf, 0.5)),
    AlphaBC: ("a1 a2 a3 a4", AlphaBC(1 + 1j, 2j, -0.0, 3)),
    BDForm: ("theta b1 b2 b3 b4", BDForm(0.5, 1.0, 2.0, 0.25, 0.5)),
    ClassReport: ("distance limit form phase", validate_class(SWAP)),
    checks.CheckRecord: ("name residual limit passed", VERIFICATION.records[0]),
    checks.Check: ("name residual limit", checks.CURRENT),
    checks.Verification: ("records closed_form", VERIFICATION),
    Separating: ("rho", Separating(RhoBC(0.0, math.inf))),
    Transmitting: ("alpha", Transmitting(SWAP)),
    ClosedFormComparison: ("classification primary difference difference_flipped", compare_closed_form(SWAP, 1.0)),
    ScatteringResult: ("E k lam r t R T transmission_phase flag", scatter_alpha(SWAP, 2.0, 1.0)),
    ScatteringColumns: ("E k lam re_r im_r re_t im_t R T phase_t",
                        sweep_columns(Transmitting(SWAP), 1.5, 3.0, 3, 1.0)),
    UnitReport: ("name alpha r t T transmission_phase up_maps_to down_maps_to preserves_spin swaps_spin",
                 DEMO.unit1),
    PhaseVariant: ("theta t T transmission_phase", DEMO.phase_variants[0]),
    SwitchDemoReport: ("unit0 unit1 phase_variants ok", DEMO),
}
#: record type -> the defaults of its last fields
DEFAULTS = {ScatteringResult: (None,)}

CASES = [pytest.param(cls, fields.split(), value, id=cls.__name__) for cls, (fields, value) in RECORDS.items()]


def twin_of(cls, fields):
    return namedtuple(cls.__name__, fields, defaults=DEFAULTS.get(cls, ()))


def test_every_record_of_the_package_is_covered():
    def subclasses(cls):
        return {cls, *(c for sub in cls.__subclasses__() for c in subclasses(sub))}

    assert {cls for cls in subclasses(Record) - {Record} if cls.__module__.startswith("diracjunction.")} == set(RECORDS)


@pytest.mark.parametrize("cls, fields, value", CASES)
class TestTwin:
    def test_fields_and_construction(self, cls, fields, value):
        twin = twin_of(cls, fields)
        args = tuple(value)
        assert cls._fields == twin._fields == tuple(fields)
        assert type(value) is cls
        assert cls(*args) == cls(**dict(zip(fields, args))) == value
        assert tuple(cls(*args)) == tuple(twin(*args)) == args
        for name, item in zip(fields, args):
            assert getattr(value, name) is item

    def test_repr_asdict_and_replace(self, cls, fields, value):
        twin = twin_of(cls, fields)(*value)
        assert repr(value) == repr(twin)
        assert value._asdict() == twin._asdict() and list(value._asdict()) == fields
        changes = {fields[-1]: value[0]}
        replaced = value._replace(**changes)
        assert type(replaced) is cls and tuple(replaced) == tuple(twin._replace(**changes))
        assert value._replace() == value
        for record in (value, twin):
            with pytest.raises(ValueError, match="unexpected field names: \\['nope'\\]"):
                record._replace(nope=1)

    def test_hash(self, cls, fields, value):
        twin = twin_of(cls, fields)(*value)
        try:
            expected = hash(twin)
        except TypeError:  # a list or a dict among the fields
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == expected == hash(tuple(value))

    def test_pickle_copy_and_deepcopy(self, cls, fields, value):
        twin = twin_of(cls, fields)(*value)
        # the same reduction: the class's __new__ called on the fields, and no state
        _, (_, *args), *state = value.__reduce_ex__(pickle.DEFAULT_PROTOCOL)
        _, (_, *twin_args), *twin_state = twin.__reduce_ex__(pickle.DEFAULT_PROTOCOL)
        assert args == twin_args == list(value) and state == twin_state
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(value, protocol))
            assert type(again) is cls and again == value
        for made in (copy.copy(value), copy.deepcopy(value)):
            assert type(made) is cls and made == value
        assert tuple(copy.deepcopy(value)) == tuple(copy.deepcopy(twin))

    def test_defaults(self, cls, fields, value):
        defaults = DEFAULTS.get(cls, ())
        short = tuple(value)[: len(fields) - len(defaults)]
        if defaults:
            assert tuple(cls(*short)) == tuple(twin_of(cls, fields)(*short)) == short + defaults
        else:
            assert cls.__new__.__defaults__ is None

    def test_equal_only_to_its_own_type(self, cls, fields, value):
        twin = twin_of(cls, fields)(*value)
        assert value == cls(*value) and not value != cls(*value)
        for other in (twin, tuple(value), list(value)):
            assert value != other and not value == other
        for other in (tuple(value), list(value)):  # the record's comparison is tried first here
            assert other != value and not other == value

    def test_unordered(self, cls, fields, value):
        for other in (value, tuple(value)):
            for compare in ("__lt__", "__le__", "__gt__", "__ge__"):
                with pytest.raises(TypeError, match=f"{cls.__name__} instances are not ordered"):
                    getattr(value, compare)(other)
        with pytest.raises(TypeError):
            sorted([value, value])

    def test_no_assignment(self, cls, fields, value):
        for name in (fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, value[0])
        assert tuple(value) == tuple(cls(*value))
        assert hasattr(value, "__dict__") == (cls is AlphaBC)


def test_replace_goes_through_the_validating_constructor():
    with pytest.raises(ValidationError):
        RhoBC(0.0, 1.0)._replace(rho_minus=math.nan)


#: record type -> (its entries as Python complex or float, the same values given as ints, floats, bools and
#: numpy scalars)
ONE_FORM = [
    (AlphaBC, (0j, 1 + 0j, 1 + 0j, 0j), [(0, 1, 1, 0), (False, True, True, False), (0.0, 1.0, 1.0, 0.0),
                                         (np.int64(0), np.float64(1), np.complex128(1), np.bool_(False))]),
    (AlphaBC, (2 + 0j, 0j, 0j, 0.5 + 0j), [(2, 0, 0, 0.5), (np.float32(2), np.int8(0), 0.0, np.float64(0.5))]),
    (AlphaBC, (1j, 0j, 0j, 1j), [(np.complex128(1j), 0, False, np.complex64(1j))]),
    (QuaternionForm, (0j, 1 + 0j, 1 + 0j), [(0, 1, 1), (False, True, True),
                                            (np.float64(0), np.int64(1), np.complex128(1))]),
    (QuaternionForm, (0.6 + 0j, 0.8 + 0j, -1 + 0j), [(0.6, 0.8, -1),
                                                     (np.float64(0.6), np.float64(0.8), np.int16(-1))]),
    (RhoBC, (0.0, 1.0), [(0, 1), (False, True), (np.int64(0), np.float64(1))]),
    (RhoBC, (math.inf, -2.5), [(np.float64(np.inf), np.float32(-2.5)), (math.inf, -2.5)]),
]


def map_bits(record) -> list:
    """The bits of every map of ``record``, and of the scattering off it, at two masses."""
    out = []
    for m in (0.0, 1.0):
        if isinstance(record, AlphaBC):
            alpha_outputs(out, record, m, m + 0.75)
            _call(out, "invert_alpha", invert_alpha, record)
        elif isinstance(record, QuaternionForm):
            _call(out, "compose", compose, record)
            _call(out, "norm_residuals", record.norm_residuals)
            _call(out, "is_canonical", record.is_canonical)
            a = _call(out, "u2_to_alpha", u2_to_alpha, record, m)
            _call(out, "inverse_identity_residuals", inverse_identity_residuals, record, a, m)
        else:
            _call(out, "rho_to_diagonal_u2", rho_to_diagonal_u2, record, m)
            for face in Island:
                _call(out, "scatter_rho", scatter_rho, record, m + 0.75, m, face)
    return out


@pytest.mark.parametrize("cls, entries, givens", [pytest.param(*case, id=f"{case[0].__name__}-{i}")
                                                   for i, case in enumerate(ONE_FORM)])
def test_a_record_holds_one_form_of_its_entries(cls, entries, givens):
    kind = float if cls is RhoBC else complex
    want = cls(*entries)
    for given in givens:
        record = cls(*given)
        assert [type(x) for x in record] == [kind] * len(entries), given
        assert record == want and repr(record) == repr(want), given
        assert map_bits(record) == map_bits(want), given
