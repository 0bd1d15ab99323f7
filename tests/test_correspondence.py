"""Isomorphism derivation, row verification, swaps, subpolytope search."""

import itertools
import sys
from collections import Counter, deque

import pytest

from k3corr import correspondence
from k3corr.correspondence import (
    _children,
    _swaps,
    common_delta,
    derive_iso,
    search_sub_reflexive,
    verify_row,
    verify_swaps,
)
from k3corr.dataset import RowRecord
from k3corr.intlinalg import (
    InconsistentPairs,
    RankDeficientSource,
    identity,
    is_unimodular,
    mat_mul,
    mat_vec,
)
from k3corr.picard import picard_rank
from k3corr.polytope import hull, is_reflexive, unimodular_equivalent
from k3corr.weights import Monomial, WeightSystem, newton_polytope, parse_monomial
from test_polytope import assert_maps_onto, brute_force_equivalent, contains


def _iso_maps_all_columns(row, i, j, u):
    for col in row.columns:
        src = row.weights[i].monomial_point(col[i])
        tgt = row.weights[j].monomial_point(col[j])
        assert tuple(mat_vec(u, src)) == tgt


def test_derive_iso_16_54(rows_by_key):
    """The displayed correspondence: Z^3<->Z^3, W^3YZ<->W^3XZ, W^6X<->W^7,
    X^4<->WY^3, WY^3<->X^3Y, all five columns matched by one map."""
    row = rows_by_key["16-54"]
    u = derive_iso(row, 0, 1)
    assert is_unimodular(u)
    _iso_maps_all_columns(row, 0, 1, u)


def test_derive_iso_14_28_regression(rows_by_key):
    """Solved by hand in the canonical bases: the fourth column is forced."""
    row = rows_by_key["14-28-45-51"]
    u = derive_iso(row, 0, 1)
    assert u == ((0, -1, -1), (1, 7, 0), (0, 0, 1))
    _iso_maps_all_columns(row, 0, 1, u)


def test_derive_iso_identity_row():
    ws = WeightSystem.from_weights([1, 1, 1, 1])
    cols = tuple(
        (parse_monomial(t), parse_monomial(t)) for t in ("W^4", "X^4", "Y^4", "Z^4")
    )
    row = RowRecord(
        ids=(1, 1),
        weights=(ws, ws),
        degrees=(4, 4),
        columns=cols,
        lattice_label="test",
        rank=1,
    )
    assert derive_iso(row, 0, 1) == identity(3)


def test_derive_iso_inverse_and_composition(rows_by_key):
    row = rows_by_key["14-28-45-51"]
    fwd = derive_iso(row, 0, 1)
    back = derive_iso(row, 1, 0)
    assert mat_mul(fwd, back) == identity(3)
    assert mat_mul(back, fwd) == identity(3)
    # a -> b -> c equals a -> c
    bc = derive_iso(row, 1, 2)
    ac = derive_iso(row, 0, 2)
    assert mat_mul(bc, fwd) == ac


def test_derive_iso_all_pairs_all_rows(rows):
    for row in rows:
        for i in range(row.n_weights):
            for j in range(row.n_weights):
                if i == j:
                    continue
                u = derive_iso(row, i, j)
                assert is_unimodular(u)
                _iso_maps_all_columns(row, i, j, u)


def test_derive_iso_inconsistent_columns(rows_by_key):
    row = rows_by_key["13-72"]
    # swapping two monomials of one side breaks the correspondence but not degrees
    cols = [list(c) for c in row.columns]
    cols[0][1], cols[1][1] = cols[1][1], cols[0][1]
    with pytest.raises(InconsistentPairs, match=r"^row 13-72: .* \(\S+ vs \S+\)$"):
        derive_iso(row.with_columns(cols), 0, 1)


def test_derive_iso_rank_deficient():
    ws = WeightSystem.from_weights([1, 1, 1, 1])
    m = parse_monomial("W^2X^2")
    n = parse_monomial("W^2Y^2")
    row = RowRecord(
        ids=(1, 1),
        weights=(ws, ws),
        degrees=(4, 4),
        columns=((m, m), (n, n)),
        lattice_label="test",
        rank=1,
    )
    with pytest.raises(RankDeficientSource):
        derive_iso(row, 0, 1)


def test_common_delta_13_72(rows_by_key):
    delta = common_delta(rows_by_key["13-72"])
    assert delta.n_vertices == 6  # hexahedral: all six columns are vertices
    assert is_reflexive(delta)
    assert picard_rank(delta).rho == 8


def test_common_delta_14_row(rows_by_key):
    delta = common_delta(rows_by_key["14-28-45-51"])
    assert delta.n_vertices == 4
    assert picard_rank(delta).rho == 10


def test_common_delta_contained_in_all_newtons(rows):
    """The oracle for the containment the exact fits prove, by hulling each
    image: on the table rows and on every swapped row verify_swaps builds."""
    from k3corr.polytope import transform

    swapped = [s for row in rows for _, _, s in _swaps(row)]
    assert len(swapped) == 17
    for row in list(rows) + swapped:
        delta = common_delta(row)
        assert is_reflexive(delta)
        for k, ws in enumerate(row.weights):
            image = transform(delta, derive_iso(row, 0, k)) if k else delta
            assert contains(newton_polytope(ws), image)


def test_common_delta_needs_no_iso_and_no_newton(rows, monkeypatch):
    """Delta is the hull of weight 0's column points and nothing more."""
    expected = [common_delta(row).vertices for row in rows]

    def forbidden(*args):
        raise AssertionError("common_delta must not call this")

    common_delta.cache_clear()
    monkeypatch.setattr(correspondence, "derive_iso", forbidden)
    monkeypatch.setattr(correspondence, "newton_polytope", forbidden)
    assert [common_delta(row).vertices for row in rows] == expected
    assert len(expected) == 16


def test_figure2_containment(rows_by_key):
    pair = common_delta(rows_by_key["26-34"])
    triple = common_delta(rows_by_key["26-34-76"])
    assert contains(pair, triple)
    assert pair.vertices != triple.vertices  # strict
    assert not contains(triple, pair)
    assert picard_rank(pair).rho == picard_rank(triple).rho == 14


def test_full_newtons_26_34_isomorphic(rows_by_key):
    n26 = newton_polytope(WeightSystem.from_weights([2, 4, 5, 9]))
    n34 = newton_polytope(WeightSystem.from_weights([2, 6, 7, 15]))
    u = unimodular_equivalent(n26, n34)
    assert u is not None
    # and the pair's common polytope is that same shape
    pair = common_delta(rows_by_key["26-34"])
    assert unimodular_equivalent(pair, n26) is not None


def test_verify_row_passes_all(rows):
    for row in rows:
        report = verify_row(row)
        assert report.passed, [c for c in report.checks if not c.passed]


def test_verify_row_46_65_80(rows_by_key):
    report = verify_row(rows_by_key["46-65-80"])
    assert report.passed
    assert any("rank(delta)=18" in c.name for c in report.checks)


def test_verify_row_catches_corrupted_exponent(rows_by_key):
    row = rows_by_key["16-54"]
    cols = [list(c) for c in row.columns]
    bad = Monomial((cols[0][0].e[0] + 1,) + cols[0][0].e[1:])
    cols[0][0] = bad
    report = verify_row(row.with_columns(cols))
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert any("monomial-degrees" == c.name for c in failing)
    assert any(str(bad) in c.detail for c in failing)


def test_verify_row_inconsistent_iso_fails_once(rows_by_key):
    """A failed isomorphism is reported on its own line; delta depends on
    weight 0's columns alone, so its check and the ranks still pass."""
    row = rows_by_key["13-72"]
    cols = [list(c) for c in row.columns]
    cols[0][1], cols[1][1] = cols[1][1], cols[0][1]
    report = verify_row(row.with_columns(cols))
    assert not report.passed
    assert [c.name for c in report.checks if not c.passed] == ["iso[13->72]"]
    names = [c.name for c in report.checks]
    assert "common-delta reflexive+contained" in names
    assert names[names.index("common-delta reflexive+contained") + 1 :] == [
        "rank(delta)",
        "rank(delta)=8",
        "rank(newton[13])",
        "rank(newton[13])=8",
        "rank(newton[72])",
        "rank(newton[72])=8",
    ]


def test_verify_swaps_empty_without_bold(rows_by_key):
    report = verify_swaps(rows_by_key["13-72"])
    assert report.checks == ()
    assert report.passed


def test_verify_swaps_16_54(rows_by_key):
    report = verify_swaps(rows_by_key["16-54"])
    assert len(report.checks) == 2  # one transposition, applied to each side
    assert report.passed


def test_verify_swaps_56_73_all_permutations(rows_by_key):
    report = verify_swaps(rows_by_key["56-73"])
    assert len(report.checks) == 10  # 5 non-identity permutations x 2 sides
    assert report.passed


def test_verify_swaps_all_bold_rows(rows):
    for row in rows:
        if row.bold:
            assert verify_swaps(row).passed


# -- vertex-deletion search ------------------------------------------------------


def test_search_children_are_reflexive_and_inside():
    p = hull([(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)])
    res = search_sub_reflexive(p, max_depth=1)
    for q in res.found:
        assert is_reflexive(q)
        assert contains(p, q)
        assert q.origin_interior


def test_search_finds_figure2_polytope(rows_by_key):
    n26 = newton_polytope(WeightSystem.from_weights([2, 4, 5, 9]))
    res = search_sub_reflexive(n26)
    target = common_delta(rows_by_key["26-34-76"])
    assert any(unimodular_equivalent(q, target) for q in res.found)


def test_search_cross_polytope_empty():
    cross = hull(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    res = search_sub_reflexive(cross, max_depth=2)
    assert res.found == ()
    assert not res.exhausted


def test_search_closure_idempotent(rows_by_key):
    """Re-running deletion on any result yields only already-known polytopes
    once the walk terminated without hitting its limits."""
    delta = common_delta(rows_by_key["16-54"])
    res = search_sub_reflexive(delta, max_depth=4, max_results=64)
    assert not res.exhausted
    known = (delta,) + res.found
    for q in res.found:
        again = search_sub_reflexive(q, max_depth=1, max_results=64)
        for child in again.found:
            assert any(unimodular_equivalent(child, k) for k in known)


def test_no_row_rank_subpolytope_with_zero_l0(rows_by_key):
    """Scope-bounded version of the remark that also names 26-34-76 and 27-49:
    the deletion closure offers no substitute polytope of the row's own rank
    with vanishing correction term."""
    for key in ("16-54", "26-34-76", "27-49"):
        row = rows_by_key[key]
        delta = common_delta(row)
        assert picard_rank(delta).correction > 0
        res = search_sub_reflexive(delta)
        assert not [
            q
            for q in res.found
            if picard_rank(q).rho == row.rank and picard_rank(q).correction == 0
        ]


def search_children(rows):
    """The distinct polytopes reached by deleting one or two vertices from
    the 16 table common polytopes, as the search does."""
    children = {}
    for row in rows:
        root = common_delta(row)
        level = [(root, root.lattice_points)]
        for _ in range(2):
            level = [c for s, pts in level for c in _children(s, pts)]
            children.update((child.vertices, child) for child, _ in level)
    return list(children.values())


def test_equivalence_matches_brute_force_on_search_children(rows):
    """Every pair of the search children."""
    children = search_children(rows)
    assert len(children) == 83
    hits = 0
    for p, q in itertools.combinations_with_replacement(children, 2):
        u = unimodular_equivalent(p, q)
        assert u == brute_force_equivalent(p, q)
        if u is not None:
            assert_maps_onto(u, p, q)
            hits += p is not q
    assert hits == 8


def old_key(p):
    """The invariant key with V, E, F and the facet (size, offset) multiset
    spelled out beside the vertex signatures and the face counts."""
    counts = None
    if p.is_lattice:
        fc = p.face_counts
        counts = (fc.boundary, tuple(sorted(fc.per_facet)), tuple(sorted(fc.per_edge)))
    facet_kinds = sorted(
        (len(fv), c) for (_, c), fv in zip(p.facets, p.facet_vertices)
    )
    return (
        (p.n_vertices, p.n_edges, p.n_facets),
        tuple(facet_kinds),
        tuple(sorted(p.vertex_signatures)),
        counts,
    )


def test_gl3z_key_partitions_search_children_like_old_key(rows):
    """Dropping V, E, F and the facet kinds from the key splits no bucket
    and merges none: the vertex signatures already fix them."""
    children = search_children(rows)
    pairs = list(itertools.combinations_with_replacement(children, 2))
    assert len(pairs) == 3486
    shared = 0
    for p, q in pairs:
        assert (p.gl3z_key == q.gl3z_key) == (old_key(p) == old_key(q))
        shared += p is not q and p.gl3z_key == q.gl3z_key
    assert shared == 9  # the 8 equivalent pairs and one that is not
    for p in children:
        entries = Counter(e for sig in p.vertex_signatures for e in sig)
        kinds = Counter({(k, c): m // k for (c, k), m in entries.items()})
        assert sorted(kinds.elements()) == list(old_key(p)[1])
        n_facets = sum(kinds.values())
        edges = p.n_vertices + n_facets - 2
        assert (p.n_vertices, edges, n_facets) == old_key(p)[0]


def test_quartic_search_to_depth_five():
    """The unbounded quartic search at depth 5 keeps the results of the
    linear scan over every state seen."""
    p = newton_polytope(WeightSystem.from_weights([1, 1, 1, 1]))
    res = search_sub_reflexive(p, max_results=10**9, max_depth=5)
    assert (len(res.found), res.explored, res.exhausted) == (2, 23, True)
    assert [q.vertices for q in res.found] == [
        ((-1, -1, 1), (-1, -1, 3), (-1, 1, -1), (-1, 3, -1), (1, -1, -1), (3, -1, -1)),
        ((-1, 0, -1), (-1, 0, 2), (-1, 3, -1), (0, -1, -1), (0, -1, 2), (3, -1, -1)),
    ]


def test_search_respects_result_cap():
    p = hull([(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)])
    res = search_sub_reflexive(p, max_results=1, max_depth=3)
    if len(res.found) == 1:
        deeper = search_sub_reflexive(p, max_results=64, max_depth=3)
        if len(deeper.found) > 1:
            assert res.exhausted


def reference_search(p, max_results=64, max_depth=3):
    """The search as a FIFO queue of (state, points, depth), probing each
    state at max_depth for a child: (found vertices, exhausted, explored).
    The cap ends the walk, and every state of the depth it ends in counts
    as explored."""

    def drop(state, points, v):
        rest = [q for q in points if q != v]
        try:
            child = hull(rest)
        except ValueError:
            return None, rest
        return (child if child.origin_interior else None), rest

    seen = {p.gl3z_key: [p]}
    found = []
    queue = deque([(p, p.lattice_points, 0)])
    exhausted = False
    explored = 0
    while queue:
        state, points, depth = queue.popleft()
        if depth >= max_depth:
            if any(drop(state, points, v)[0] for v in state.vertices):
                exhausted = True
            continue
        explored += 1
        for v in state.vertices:
            child, rest = drop(state, points, v)
            if child is None:
                continue
            bucket = seen.setdefault(child.gl3z_key, [])
            if any(unimodular_equivalent(child, known) for known in bucket):
                continue
            bucket.append(child)
            if is_reflexive(child):
                if len(found) >= max_results:
                    level_rest = sum(1 for *_, k in queue if k == depth)
                    return [q.vertices for q in found], True, explored + level_rest
                found.append(child)
            queue.append((child, rest, depth + 1))
    return [q.vertices for q in found], exhausted, explored


@pytest.mark.parametrize("max_depth, max_results", [(2, 64), (3, 64), (2, 1)])
def test_level_walk_matches_queue_walk(rows, max_depth, max_results):
    for row in rows:
        delta = common_delta(row)
        res = search_sub_reflexive(delta, max_results=max_results, max_depth=max_depth)
        assert (
            [q.vertices for q in res.found], res.exhausted, res.explored
        ) == reference_search(delta, max_results, max_depth)


def test_search_16_54_last_level_has_no_child(rows_by_key):
    """The depth-3 level is not empty, but none of its states has a child,
    so the walk is complete."""
    res = search_sub_reflexive(common_delta(rows_by_key["16-54"]), max_depth=3)
    assert (len(res.found), res.explored, res.exhausted) == (4, 5, False)


def test_search_cap_ends_the_walk(rows_by_key):
    """A reflexive child turned away at the cap ends the walk in its level:
    the root and the four states of depth 1, not the 140 states a walk on
    to max_depth would explore."""
    delta = common_delta(rows_by_key["13-72"])
    res = search_sub_reflexive(delta, max_results=1, max_depth=6)
    assert (len(res.found), res.exhausted, res.explored) == (1, True, 5)


#: table rows whose delta's walk runs out of states within depth 10; the
#: other six still have states with children there
WALKS_ENDING_BY_DEPTH_10 = (
    "26-34", "26-34-76", "27-49", "16-54", "43-48", "43-48-88", "68-83-92",
    "30-86", "46-65-80", "56-73",
)


@pytest.mark.parametrize("key", WALKS_ENDING_BY_DEPTH_10)
def test_search_stops_at_the_first_empty_level(rows_by_key, key):
    """Once a level is empty the walk is over, so a depth cap beyond it
    changes nothing and costs nothing."""
    delta = common_delta(rows_by_key[key])
    deep = search_sub_reflexive(delta, max_depth=sys.maxsize)
    res = search_sub_reflexive(delta, max_depth=10)
    assert not res.exhausted
    assert [q.vertices for q in deep.found] == [q.vertices for q in res.found]
    assert (deep.exhausted, deep.explored) == (res.exhausted, res.explored)


def test_search_hull_calls_at_depth_two(rows, monkeypatch):
    """One hull per child tried, and the depth probe stops at the first
    state of the last level that has a child."""
    deltas = [common_delta(row) for row in rows]
    calls = []

    def counting_hull(points):
        calls.append(len(points))
        return hull(points)

    monkeypatch.setattr(correspondence, "hull", counting_hull)
    for delta in deltas:
        search_sub_reflexive(delta, max_depth=2)
    assert len(calls) == 306
