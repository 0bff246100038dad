"""The record contract of the report and spec types.

The library's eight record types are covered, plus the test-side
``SmithDecomposition`` that ``conftest.smith_normal_form`` returns, a
record with three matrix fields.

Each record is built by position or by keyword with its field names,
refuses a missing or unknown field with ``TypeError``, shows its fields
in its ``repr``, equals only a record of the same class with equal
fields, hashes as the tuple of its fields, refuses assignment and
deletion, and survives ``pickle`` and ``copy`` unchanged.
"""

import copy
import pickle

import pytest

from conftest import SmithDecomposition, smith_normal_form
from latdeg import (
    CiHypothesisCheck,
    DegreeCheck,
    GraphSpec,
    HilbertProfile,
    HomogeneousLattice,
    SandpileCheck,
    ToricSetSpec,
    TorsionStructure,
    VanishingCheck,
    ZMatrix,
    verify_degree,
)

A = ZMatrix.from_rows([[18, -18, 0], [45, 0, -45], [0, 10, -10]])
SMITH = smith_normal_form(A)

# (class, keyword arguments, field values after construction)
CASES = [
    (
        SmithDecomposition,
        dict(u=SMITH.u, d=SMITH.d, v=SMITH.v, invariant_factors=(1, 90), rank=2),
        (SMITH.u, SMITH.d, SMITH.v, (1, 90), 2),
    ),
    (
        TorsionStructure,
        dict(cyclic_factors=(90,), order=90, free_rank=1),
        ((90,), 90, 1),
    ),
    (
        HilbertProfile,
        dict(values=(1, 3, 6, 6), stabilization_degree=2, degree_estimate=6,
             krull_dim_estimate=1),
        ((1, 3, 6, 6), 2, 6, 1),
    ),
    (
        DegreeCheck,
        dict(snf_degree=90, oracle_degree=90, regularity_bound=37,
             observed_stabilization=27, agree=True),
        (90, 90, 37, 27, True),
    ),
    (
        ToricSetSpec,
        dict(q=5, exponents=[[1, 0], [0, 2], [1, 1]]),
        (5, ((1, 0), (0, 2), (1, 1))),
    ),
    (
        VanishingCheck,
        dict(lattice_degree=4, point_count=4, agree=True),
        (4, 4, True),
    ),
    (
        CiHypothesisCheck,
        dict(q_minus_1_prime=False, exponents_distinct_mod=True, torsion_is_power=False,
             corollary_applies=False, predicted_generators=None),
        (False, True, False, False, None),
    ),
    (
        GraphSpec,
        dict(vertex_count=3, edges=[(1, 0), (2, 1)]),
        (3, ((0, 1), (1, 2))),
    ),
    (
        SandpileCheck,
        dict(degree=3, spanning_trees=3, reduced_laplacian_det=3, agree=True),
        (3, 3, 3, True),
    ),
]
IDS = [cls.__name__ for cls, _kwargs, _values in CASES]


@pytest.fixture(params=CASES, ids=IDS)
def case(request):
    return request.param


def test_repr_lists_every_field(case):
    cls, kwargs, values = case
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(kwargs, values))
    assert repr(cls(**kwargs)) == f"{cls.__name__}({fields})"


def test_documented_reprs():
    lattice = HomogeneousLattice(A)
    assert repr(lattice.torsion_structure()) == (
        "TorsionStructure(cyclic_factors=(90,), order=90, free_rank=1)"
    )
    check = verify_degree(lattice)
    assert repr(check).startswith("DegreeCheck(snf_degree=90, oracle_degree=90, ")
    assert repr(check).endswith(", agree=True)")


def test_fields_hold_the_normalised_values(case):
    cls, kwargs, values = case
    record = cls(**kwargs)
    assert tuple(getattr(record, name) for name in kwargs) == values


def test_positional_and_keyword_construction_agree(case):
    cls, kwargs, values = case
    assert cls(*kwargs.values()) == cls(**kwargs)
    assert cls(*values) == cls(**kwargs)


def test_equality_and_hash(case):
    cls, kwargs, values = case
    record = cls(**kwargs)
    twin = cls(*values)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(values)
    assert record != values


def test_records_differ_by_class_and_by_field():
    assert VanishingCheck(4, 4, True) != TorsionStructure(4, 4, True)
    assert VanishingCheck(4, 4, True) != VanishingCheck(4, 5, True)
    assert TorsionStructure((90,), 90, 1) != TorsionStructure((90,), 90, 2)


def test_assignment_and_deletion_raise(case):
    cls, kwargs, values = case
    record = cls(**kwargs)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(getattr(record, name) for name in kwargs) == values


def test_pickle_and_copy_round_trips(case):
    cls, kwargs, values = case
    record = cls(**kwargs)
    for protocol in range(0, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls and back == record and repr(back) == repr(record)
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls and clone == record and hash(clone) == hash(record)


def test_missing_or_unknown_field_is_type_error(case):
    cls, kwargs, values = case
    names = list(kwargs)
    with pytest.raises(TypeError):
        cls(**{name: kwargs[name] for name in names[:-1]})
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(**kwargs, extra=1)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(values[0], **kwargs)
