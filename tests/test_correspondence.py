"""Isomorphism derivation, row verification, swaps, subpolytope search."""

import itertools
import random
import sys
from collections import Counter, deque
from pathlib import Path

import pytest

from k3corr import correspondence, polytope
from k3corr.correspondence import (
    _children,
    _swaps,
    common_delta,
    derive_iso,
    search_sub_reflexive,
    verify_row,
    verify_swaps,
)
from k3corr.dataset import RowRecord, load_rows
from k3corr.intlinalg import (
    InconsistentPairs,
    RankDeficientSource,
    identity,
    is_unimodular,
    mat_mul,
    mat_vec,
)
from k3corr.picard import picard_rank
from k3corr.polytope import (
    DegeneratePointSet,
    _from_mesh,
    _triangle_hull,
    hull,
    is_reflexive,
    transform,
    unimodular_equivalent,
)
from k3corr.weights import (
    Monomial,
    WeightSystem,
    anticanonical_count,
    anticanonical_points,
    newton_polytope,
    parse_monomial,
)
from test_polytope import (
    assert_maps_onto,
    brute_force_automorphisms,
    brute_force_equivalent,
    contains,
    polytope_fields,
)


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


def test_derive_iso_inverse_and_composition(rows):
    """A map fitted exactly on columns that span is unique: on every shipped
    and swapped row, the reverse fit is the inverse, and the direct j -> k
    fit is the composite through weight 0."""
    swapped = [s for row in rows for _, _, s in _swaps(row)]
    for row in list(rows) + swapped:
        fits = {k: derive_iso(row, 0, k) for k in range(1, row.n_weights)}
        for k, fwd in fits.items():
            back = derive_iso(row, k, 0)
            assert mat_mul(fwd, back) == identity(3)
            assert mat_mul(back, fwd) == identity(3)
        for j, k in itertools.combinations(fits, 2):
            assert mat_mul(derive_iso(row, j, k), fits[j]) == fits[k]
    assert len(swapped) == 17


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


def test_derive_iso_names_the_exchanged_columns(rows_by_key):
    """With weight 71's first two monomials of 9-71 exchanged, one map fits
    the four other columns, and the message names the two exchanged ones,
    not the good columns outside the first independent triple."""
    row = rows_by_key["9-71"]
    cols = [list(c) for c in row.columns]
    cols[0][1], cols[1][1] = cols[1][1], cols[0][1]
    message = r"columns \[0, 1\] \(W\^20 vs X\^5\)$"
    with pytest.raises(InconsistentPairs, match=message) as exc:
        derive_iso(row.with_columns(cols), 0, 1)
    assert exc.value.bad == [0, 1]


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
    correspondence._point_set_hull.cache_clear()
    monkeypatch.setattr(correspondence, "derive_iso", forbidden)
    monkeypatch.setattr(correspondence, "newton_polytope", forbidden)
    assert [common_delta(row).vertices for row in rows] == expected
    assert len(expected) == 16


def test_bold_columns_are_those_the_automorphisms_move(rows):
    """Weight 0's column points are the vertices of delta, so each lattice
    automorphism of delta permutes the columns; the bold columns are exactly
    the ones some automorphism moves, and the automorphisms induce every
    permutation of them."""
    orders = {}
    for row in rows:
        delta = common_delta(row)
        points = [row.weights[0].monomial_point(col[0]) for col in row.columns]
        assert sorted(points) == list(delta.vertices)
        auts = brute_force_automorphisms(delta)
        perms = {tuple(points.index(mat_vec(u, v)) for v in points) for u in auts}
        moved = {j for perm in perms for j, image in enumerate(perm) if image != j}
        assert moved == set(row.bold)
        assert perms == {
            tuple(dict(zip(row.bold, images)).get(j, j) for j in range(len(points)))
            for images in itertools.permutations(row.bold)
        }
        orders[row.key] = len(auts)
    assert {key: n for key, n in orders.items() if n > 1} == {
        "16-54": 2, "30-86": 2, "46-65-80": 2, "56-73": 6
    }


#: the sorted weights of the table's families whose Newton polytope has one
#: lattice point more than the row's common polytope, a vertex
EXTRA_VERTEX_FAMILIES = {
    (1, 3, 8, 12), (1, 4, 5, 10), (2, 4, 5, 9), (2, 5, 6, 13), (2, 6, 7, 15),
    (3, 4, 11, 18), (3, 5, 6, 7), (3, 5, 16, 24), (3, 6, 7, 8), (5, 7, 8, 20),
}


def test_table_pass_hulls_each_point_set_once(rows, monkeypatch):
    """From cold caches, one verify_row and verify_swaps pass over the table
    builds 26 polytopes: the Newton polytopes of the 10 families with an
    extra vertex, whose vertex candidates enter the builder from `weights`
    with no pass through `hull`, and the 16 rows' common polytopes, hulled,
    which every swapped row shares (a swap only permutes one weight's
    column, so weight 0's point set stays).  Every other family's rank is
    read off its row's common polytope."""
    from k3corr import weights

    for cached in (
        common_delta,
        newton_polytope,
        picard_rank,
        correspondence._monomial_points,
        anticanonical_count,
        correspondence._point_set_hull,
    ):
        cached.cache_clear()

    def listing(ws):
        raise AssertionError(f"a table pass listed the points of {ws}")

    monkeypatch.setattr(weights, "anticanonical_points", listing)
    calls = Counter()
    for module in (correspondence, weights):
        def counting(points, module=module, real=module.hull):
            calls[module.__name__, "hull"] += 1
            return real(points)

        def building(cloud, scale, mesh, module=module, real=module._from_mesh):
            calls[module.__name__, "_from_mesh"] += 1
            return real(cloud, scale, mesh)

        monkeypatch.setattr(module, "hull", counting)
        monkeypatch.setattr(module, "_from_mesh", building)
    asked = set()

    def recording(ws, real=correspondence.newton_polytope):
        asked.add(ws.a)
        return real(ws)

    monkeypatch.setattr(correspondence, "newton_polytope", recording)
    for row in rows:
        verify_row(row)
        verify_swaps(row)
    assert calls == {
        ("k3corr.weights", "_from_mesh"): 10,
        ("k3corr.correspondence", "hull"): 16,
    }
    assert asked == EXTRA_VERTEX_FAMILIES
    # each of the 34 weight systems is counted once, by a recurrence, and
    # the hulls take the vertex candidates, so none lists its points (the
    # patched anticanonical_points would have failed the pass)
    assert anticanonical_count.cache_info().misses == 34
    for row in rows:
        for _, _, swapped in _swaps(row):
            assert common_delta(swapped).vertices == common_delta(row).vertices


def test_newton_rank_shortcut_matches_the_hull(rows):
    """The oracle for verify_row's shortcut, on every shipped and swapped
    row.  Where weight k has l(delta) anticanonical points, its Newton
    polytope is delta's image under the fit, field by field, with the same
    rank; elsewhere it has exactly one lattice point more, a vertex."""
    swapped = [s for row in rows for _, _, s in _swaps(row)]
    assert len(swapped) == 17
    extra = set()
    for row in list(rows) + swapped:
        delta = common_delta(row)
        points = delta.face_counts.boundary + 1
        assert points == len(delta.lattice_points)
        for k, ws in enumerate(row.weights):
            newton = newton_polytope(ws)
            count = len(anticanonical_points(ws))
            assert count == len(newton.lattice_points)
            u = derive_iso(row, 0, k)
            if count == points:
                image = transform(delta, u)
                assert polytope_fields(newton) == polytope_fields(image)
                assert picard_rank(newton).rho == picard_rank(image).rho
            else:
                assert count == points + 1
                image = {mat_vec(u, q) for q in delta.lattice_points}
                (q,) = set(newton.lattice_points) - image
                assert q in newton.vertices
                extra.add(ws.a)
    assert extra == EXTRA_VERTEX_FAMILIES


@pytest.mark.parametrize("key, failed", [("9-71", 71), ("14-28-45-51", 28)])
def test_failed_fit_hulls_the_newton_polytope(key, failed, monkeypatch):
    """On broken_table.json's rows whose fit fails, the weight without a fit
    has l(delta) anticanonical points, yet its rank still comes from its
    hull."""
    rows = load_rows(str(Path(__file__).parent / "golden" / "broken_table.json"))
    row = next(row for row in rows if row.key == key)
    ws = row.weights[row.ids.index(failed)]
    delta = common_delta(row)
    assert len(anticanonical_points(ws)) == delta.face_counts.boundary + 1
    calls = Counter()

    def counting(ws, real=correspondence.newton_polytope):
        calls[ws] += 1
        return real(ws)

    monkeypatch.setattr(correspondence, "newton_polytope", counting)
    checks = verify_row(row).checks
    assert f"iso[{row.ids[0]}->{failed}]" in [c.name for c in checks if not c.passed]
    assert f"rank(newton[{failed}])={row.rank}" in [c.name for c in checks if c.passed]
    assert calls[ws] == 1


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
    p = newton_polytope(WeightSystem.from_weights([2, 4, 5, 9]))
    res = search_sub_reflexive(p, max_depth=2)
    assert len(res.found) == 2
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
            level = [c for s, pts in level for c in _children(s, pts, set())]
            children.update((child.vertices, child) for child, _ in level)
    return list(children.values())


def test_equivalence_matches_brute_force_on_search_children(rows):
    """Every pair of the search children; on them, two children share the
    pairing-matrix key exactly when a map exists."""
    children = search_children(rows)
    assert len(children) == 83
    hits = 0
    for p, q in itertools.combinations_with_replacement(children, 2):
        u = unimodular_equivalent(p, q)
        assert u == brute_force_equivalent(p, q)
        assert (p.gl3z_key == q.gl3z_key) == (u is not None)
        if u is not None:
            assert_maps_onto(u, p, q)
            hits += p is not q
    assert hits == 8


def test_search_computes_no_face_counts(rows, monkeypatch):
    """The search keys its states by the pairing matrix alone, so no state
    has its face counts computed; a fresh signed-permutation image of each
    table polytope has none cached."""

    def refuse(*args):
        raise AssertionError("the search computed face counts")

    monkeypatch.setattr(polytope, "pick_counts", refuse)
    rnd = random.Random(19)
    for row in rows:
        signs = [rnd.choice((-1, 1)) for _ in range(3)]
        cols = rnd.sample(range(3), 3)
        u = tuple(tuple(signs[i] * (j == cols[i]) for j in range(3)) for i in range(3))
        image = search_sub_reflexive(transform(common_delta(row), u), max_depth=2)
        res = search_sub_reflexive(common_delta(row), max_depth=2)
        assert (len(image.found), image.explored) == (len(res.found), res.explored)


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
    """Two results lie within depth 2; a cap of one keeps the first and
    marks the walk exhausted."""
    p = newton_polytope(WeightSystem.from_weights([2, 4, 5, 9]))
    res = search_sub_reflexive(p, max_results=1, max_depth=2)
    assert len(res.found) == 1
    assert res.exhausted
    uncapped = search_sub_reflexive(p, max_depth=2)
    assert len(uncapped.found) == 2
    assert res.found[0].vertices == uncapped.found[0].vertices


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
    """A triangle mesh only for a new point set that no separating plane
    rejects, and a polytope for every mesh, which then decides whether the
    origin is interior; the depth probe stops at the first state of the last
    level that has a child."""
    deltas = [common_delta(row) for row in rows]
    meshes, polytopes = [], []

    def counting_mesh(points):
        meshes.append(len(points))
        return _triangle_hull(points)

    def counting_build(cloud, scale, mesh):
        polytopes.append(len(cloud))
        return _from_mesh(cloud, scale, mesh)

    monkeypatch.setattr(correspondence, "_triangle_hull", counting_mesh)
    monkeypatch.setattr(correspondence, "_from_mesh", counting_build)
    for delta in deltas:
        search_sub_reflexive(delta, max_depth=2)
    assert (len(meshes), len(polytopes)) == (101, 101)


def signed_permutation(rng):
    """A 3x3 signed permutation matrix drawn from rng."""
    perm = rng.sample(range(3), 3)
    return tuple(
        tuple(rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(3))
        for i in range(3)
    )


def test_children_match_hull_on_table_deltas(rows):
    """To depth 2 from each row's delta and three signed-permutation images
    of it: every child equals hull(rest) field for field, and every vertex
    skipped leaves a degenerate rest or one without the origin inside."""
    rng = random.Random(15)
    yielded_total = skipped_total = 0
    for row in rows:
        delta = common_delta(row)
        images = [delta] + [transform(delta, signed_permutation(rng)) for _ in range(3)]
        for root in images:
            level = [(root, root.lattice_points)]
            for _ in range(2):
                next_level = []
                for state, points in level:
                    yielded = {}
                    for child, rest in _children(state, points, set()):
                        (v,) = set(points) - set(rest)
                        yielded[v] = child
                        next_level.append((child, rest))
                    assert list(yielded) == [v for v in state.vertices if v in yielded]
                    for v in state.vertices:
                        rest = [q for q in points if q != v]
                        if v in yielded:
                            expected = hull(rest)
                            assert expected.origin_interior
                            assert polytope_fields(yielded[v]) == polytope_fields(expected)
                            continue
                        skipped_total += 1
                        try:
                            skipped = hull(rest)
                        except DegeneratePointSet:
                            continue
                        assert not skipped.origin_interior
                    yielded_total += len(yielded)
                level = next_level
    assert (yielded_total, skipped_total) == (432, 536)


def mesh_children(p, points):
    """The children as the search made them before it tried separating
    planes and kept its tried point sets: one triangle mesh per deletion."""
    for v in p.vertices:
        rest = [q for q in points if q != v]
        try:
            mesh = _triangle_hull(rest)
        except DegeneratePointSet:
            continue
        if all(s > 0 for *_, s in mesh.values()):
            yield _from_mesh(rest, 1, mesh), rest


def mesh_walk(p, max_results=64, max_depth=3):
    """The level walk over mesh_children: (found vertices, explored,
    exhausted)."""
    seen = {p.gl3z_key: [p]}
    found, level, explored = [], [(p, p.lattice_points)], 0
    for _ in range(max_depth):
        if not level:
            break
        explored += len(level)
        next_level = []
        for state, points in level:
            for child, rest in mesh_children(state, points):
                bucket = seen.setdefault(child.gl3z_key, [])
                if any(unimodular_equivalent(child, known) for known in bucket):
                    continue
                bucket.append(child)
                if is_reflexive(child):
                    if len(found) >= max_results:
                        return [q.vertices for q in found], explored, True
                    found.append(child)
                next_level.append((child, rest))
        level = next_level
    exhausted = any(next(mesh_children(*s), None) for s in level)
    return [q.vertices for q in found], explored, exhausted


def walk_fields(p, max_results=64, max_depth=3):
    res = search_sub_reflexive(p, max_results, max_depth)
    fields = [q.vertices for q in res.found], res.explored, res.exhausted
    assert fields == mesh_walk(p, max_results, max_depth)
    return fields


def test_search_matches_mesh_walk_on_table_deltas(rows):
    """Each row's delta and three signed-permutation images of it."""
    rng = random.Random(21)
    for row in rows:
        delta = common_delta(row)
        images = [transform(delta, signed_permutation(rng)) for _ in range(3)]
        for root in [delta] + images:
            walk_fields(root, max_depth=2)


def test_search_matches_mesh_walk_at_depth_one(rows):
    """The depth probe runs right after level 1, on the tried point sets
    that level left."""
    for row in rows:
        walk_fields(common_delta(row), max_depth=1)


@pytest.mark.parametrize(
    "weights",
    [(1, 1, 2, 2), (3, 4, 5, 6), (2, 2, 3, 5), (3, 4, 7, 14), (1, 3, 8, 12)],
)
def test_search_matches_mesh_walk_on_newton_polytopes(weights):
    """mesh_walk still rejects children on their meshes; on (1, 3, 8, 12)
    some children pass no separating plane and lack the origin, so the
    built child's interior test decides them."""
    walk_fields(newton_polytope(WeightSystem.from_weights(weights)))


@pytest.mark.parametrize("max_results", [1, 3])
def test_search_matches_mesh_walk_at_the_cap(rows, max_results):
    """The cap ends some walks early: they explore fewer states than the
    same walk without it."""
    cut = 0
    for row in rows:
        delta = common_delta(row)
        explored = walk_fields(delta, max_results)[1]
        cut += explored < search_sub_reflexive(delta).explored
    assert cut > 0


def test_opposite_edge_neighbours_certify_nothing():
    """(2, 0, 0)'s edge neighbours include (0, 1, 0) and (0, -1, 0), whose
    cross product is 0; deleting either end of the long axis keeps the
    origin interior, so both children stay."""
    p = hull([(2, 0, 0), (-2, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    points = p.lattice_points
    deleted = [set(points) - set(rest) for _, rest in _children(p, points, set())]
    assert deleted == [{(-2, 0, 0)}, {(2, 0, 0)}]
    assert walk_fields(p)[1:] == (3, False)


def test_certified_rejections_lose_the_origin(rows, monkeypatch):
    """To depth 2 from each row's delta, every deletion that _children
    rejects without a mesh leaves a rest that is degenerate or lacks the
    origin in its interior.  On these polytopes that is every deletion
    rejected: all 134 are rejected without a mesh."""
    meshed = []

    def recording_mesh(points):
        meshed.append(set(points))
        return _triangle_hull(points)

    monkeypatch.setattr(correspondence, "_triangle_hull", recording_mesh)
    certified = rejected = 0
    for row in rows:
        root = common_delta(row)
        level = [(root, root.lattice_points)]
        for _ in range(2):
            next_level = []
            for state, points in level:
                meshed.clear()
                children = list(_children(state, points, set()))
                rejected += len(state.vertices) - len(children)
                next_level.extend(children)
                for v in state.vertices:
                    rest = [q for q in points if q != v]
                    if set(rest) in meshed:
                        continue
                    certified += 1
                    try:
                        child = hull(rest)
                    except DegeneratePointSet:
                        continue
                    assert not child.origin_interior
            level = next_level
    assert (certified, rejected) == (134, 134)
