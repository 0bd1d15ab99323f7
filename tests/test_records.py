"""Record types: immutable, compared by value, checked where they check, and
the caches that hold them bounded."""

import pytest

from k3corr import (
    FaceCounts,
    Monomial,
    PicardBreakdown,
    RowRecord,
    VerificationReport,
    WeightSystem,
    common_delta,
    hull,
    newton_polytope,
    picard_rank,
)
from k3corr import correspondence
from k3corr.correspondence import CheckResult, SubReflexiveSearch
from k3corr.picard import EdgePair
from k3corr.weights import MalformedMonomial, anticanonical_count


CUBE = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]


def _row():
    ws = WeightSystem.from_weights([1, 1, 1, 1])
    col = (Monomial((4, 0, 0, 0)), Monomial((4, 0, 0, 0)))
    return RowRecord(
        ids=(1, 1), weights=(ws, ws), degrees=(4, 4), columns=(col,),
        lattice_label="T", rank=1,
    )


RECORDS = {
    "CheckResult": lambda: CheckResult("monomial-degrees", True),
    "VerificationReport": lambda: VerificationReport(
        "1-1", (CheckResult("rank", False, "computed 2"),)
    ),
    "SubReflexiveSearch": lambda: SubReflexiveSearch((), False, 3),
    "RowRecord": _row,
    "EdgePair": lambda: EdgePair((0, 1), (2, 3), 1, 2),
    "PicardBreakdown": lambda: PicardBreakdown(
        3, 1, 2, 9, (EdgePair((0, 1), (2, 3), 1, 2),), 17
    ),
    "FaceCounts": lambda: FaceCounts(8, (1, 0, 0, 0), (0,) * 6),
    "Monomial": lambda: Monomial((1, 2, 0, 1)),
    "WeightSystem": lambda: WeightSystem.from_weights([3, 1, 2, 2]),
    "Polytope3": lambda: hull(CUBE),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_record_is_immutable_and_compared_by_value(make):
    rec, twin = make(), make()
    assert rec is not twin
    assert rec == twin and hash(rec) == hash(twin)
    for name in type(rec)._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    assert rec == twin


def test_weight_system_cache_is_not_assignable():
    ws = WeightSystem.from_weights([3, 1, 2, 2])
    assert ws.d == 8
    with pytest.raises(AttributeError):
        ws.d = 9
    assert ws.d == 8 and ws == WeightSystem.from_weights([3, 1, 2, 2])


def test_polytope_is_keyed_by_its_hull_not_its_insertion_order():
    """Two hulls of one cloud, inserted in different orders and with an
    interior point added, are equal and hash alike: hull derives all five
    fields from the vertex set.  Cached properties do not enter."""
    p, q = hull(CUBE), hull([(0, 0, 0)] + CUBE[::-1])
    assert p.lattice_points
    assert p == q and hash(p) == hash(q)
    with pytest.raises(AttributeError):
        p.lattice_points = ()


def test_monomial_rejects_a_bad_exponent_vector():
    with pytest.raises(MalformedMonomial):
        Monomial((-1, 0, 0, 0))
    with pytest.raises(MalformedMonomial):
        Monomial((1, 0, 0))


@pytest.mark.parametrize(
    "cached",
    [
        picard_rank,
        newton_polytope,
        common_delta,
        correspondence._monomial_points,
        anticanonical_count,
        correspondence._point_set_hull,
    ],
)
def test_caches_are_bounded(cached):
    """Bounded, and above the 235 Newton polytopes of a sweep over the
    well-posed weight systems with d <= 20 (and its 90 Picard ranks), so no
    sweep evicts, and above the table's column point sets and common
    polytopes."""
    maxsize = cached.cache_info().maxsize
    assert maxsize is not None and maxsize >= 1024
