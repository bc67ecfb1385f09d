"""The package's value types against ``collections.namedtuple`` twins.

Every record is a :class:`~diracjunction.matrix2.Record`: a tuple whose
fields are the parameters of its ``__new__``.  Its twin is the
``namedtuple`` with the same name, fields and defaults, and the two must
agree on construction, ``repr``, ``_fields``, ``_asdict``, ``_replace``,
``hash``, pickling and copying.  Unlike its twin, a record equals only an
instance of its own type, refuses ordering and refuses attribute
assignment.
"""

import copy
import math
import pickle
from collections import namedtuple

import pytest

from diracjunction import checks
from diracjunction.boundary import AlphaBC, BDForm, ClassReport, RhoBC, validate_class
from diracjunction.correspondence import ClosedFormComparison, Separating, Transmitting, compare_closed_form
from diracjunction.errors import ValidationError
from diracjunction.matrix2 import QuaternionForm, Record, decompose_u2
from diracjunction.scattering import (
    PhaseVariant,
    ScatteringColumns,
    ScatteringResult,
    SwitchDemoReport,
    UnitReport,
    scatter_alpha,
    sweep_columns,
    switch_demo,
)

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
    ClosedFormComparison: ("classification primary candidate difference difference_flipped identity_residual",
                           compare_closed_form(SWAP, 1.0)),
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

