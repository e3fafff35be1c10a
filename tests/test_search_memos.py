"""The memos of the short-vector search, the orbit partition, the span index and the Smith form.

Each memo sits behind a public function that validates its input and keys
the memo on the validated data only.  A hit must equal a cold result, a
caller may change what it was handed, and a refused input raises on every
call, also after the same valid input was cached.  A search result too
large to keep is returned without being kept.
"""

import copy
from collections import Counter
from fractions import Fraction

import pytest

from k3lat import (
    BadInputError,
    Lattice,
    UnsupportedError,
    discriminant_form,
    e8,
    e8_simple_reflections,
    enumerate_vectors_of_norm,
    hyperbolic_plane,
    nikulin,
    nikulin_node_coords,
    orbits_under_generators,
    sublattice_index,
    verify,
)
from k3lat import discforms, gluing, lattice, linalg
from k3lat.verify import DEFAULT_SEED
from oracles import nikulin_permutation_matrix


def _transposition(i):
    perm = list(range(1, 9))
    perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return nikulin_permutation_matrix(perm)


def _search_cases():
    # one Gram under two norms, and two Grams under one norm
    return [(e8(-2), -4), (e8(-2), -8), (e8(-1), -2), (nikulin(), -2), (nikulin(), -4)]


def _orbit_cases():
    # one form under three generator sets: S8, one transposition, the identity
    form = discriminant_form(nikulin())
    return [
        (form, [_transposition(i) for i in range(1, 8)]),
        (form, [_transposition(1)]),
        (form, [linalg.identity_matrix(8)]),
        (discriminant_form(e8(-2)), e8_simple_reflections()),
    ]


def _index_cases():
    nodes = [nikulin_node_coords(i) for i in range(1, 9)]
    u = hyperbolic_plane()
    return [(u, [[1, 0], [0, 1]]), (u, [[2, 0], [0, 2]]), (nikulin(), nodes), (Lattice([]), [])]


def _smith_cases():
    # square, wide, tall, a zero row and the empty matrix
    return [(e8(-2).gram,), (nikulin().gram,), ([[2, 4, 4], [-6, 6, 12]],),
            ([[6, 0], [0, 4], [2, 2]],), ([[0, 0], [3, 9]],), ([],)]


#: name -> (public function, its memoized builder, the cases)
MEMOS = {
    "vectors": (enumerate_vectors_of_norm, lattice._vectors_of_norm, _search_cases),
    "orbits": (orbits_under_generators, discforms._orbits, _orbit_cases),
    "index": (sublattice_index, lattice._span_index, _index_cases),
    "smith": (linalg.smith_normal_form, linalg._smith, _smith_cases),
}


@pytest.mark.parametrize("name", MEMOS)
def test_a_hit_equals_a_cold_result(name):
    call, memo, cases = MEMOS[name]
    cases = cases()
    for args in cases:
        call(*args)
    hits = memo.cache_info().hits
    warm = [call(*args) for args in cases]
    assert memo.cache_info().hits == hits + len(cases)
    cold = []
    for args in cases:
        memo.cache_clear()
        cold.append(call(*args))
    assert warm == cold


@pytest.mark.parametrize("name", ["vectors", "orbits"])
def test_changing_a_result_leaves_the_next_one_unchanged(name):
    call, _, cases = MEMOS[name]
    for args in cases():
        first = call(*args)
        expected = copy.deepcopy(first)
        for item in first:
            if isinstance(item, list):
                item.clear()
        first.append(first[0] if first else ())
        assert call(*args) == expected


def test_each_smith_form_is_new_lists_the_caller_may_change():
    for (mat,) in _smith_cases():
        first = linalg.smith_normal_form(mat)
        expected = copy.deepcopy(first)
        second = linalg.smith_normal_form(mat)
        assert second == expected
        assert all(a is not b for a, b in zip(first, second))
        assert all(r is not s for a, b in zip(first, second) for r, s in zip(a, b))
        for part in first:
            for row in part:
                row[:] = [x + 1 for x in row]
            part.append([7])
        assert linalg.smith_normal_form(mat) == expected


def test_a_second_pass_runs_no_smith_elimination(monkeypatch):
    assert all(r.passed for r in verify.run_all(DEFAULT_SEED))
    misses = linalg._smith.cache_info().misses
    calls = []
    smith = linalg.smith_normal_form

    def counting(mat):
        calls.append(len(mat))
        return smith(mat)

    monkeypatch.setattr(linalg, "smith_normal_form", counting)
    assert all(r.passed for r in verify.run_all(DEFAULT_SEED + 1))
    # the pass asks for Smith forms (kernels, invariant factors) but eliminates none
    assert calls and linalg._smith.cache_info().misses == misses


def test_discriminant_forms_are_eliminated_outside_the_smith_memo(monkeypatch):
    # discriminant_form keeps its own memo on the Gram, so the Smith memo keeps
    # only the kernel and invariant-factor matrices
    asked = set()
    original = discforms.discriminant_form

    def recording(lat):
        asked.add(tuple(map(tuple, lat.gram)))
        return original(lat)

    for module in (discforms, gluing, verify):
        monkeypatch.setattr(module, "discriminant_form", recording)
    for memo in (original, discforms.lattice_fingerprint, gluing.glue, linalg._smith):
        memo.cache_clear()
    assert all(r.passed for r in verify.run_all(DEFAULT_SEED))
    assert asked
    eliminated = []
    unkept = linalg._smith.__wrapped__
    monkeypatch.setattr(linalg._smith, "__wrapped__", lambda mat: eliminated.append(mat) or unkept(mat))
    misses = linalg._smith.cache_info().misses
    assert all(r.passed for r in verify.run_all(DEFAULT_SEED + 1))
    # a warm pass eliminates nothing, inside the memo or outside it
    assert linalg._smith.cache_info().misses == misses and eliminated == []
    # each probe that misses adds its Gram; with room for all, no probe evicts another
    info = linalg._smith.cache_info()
    assert info.currsize + len(asked) <= info.maxsize
    for gram in asked:
        hits = linalg._smith.cache_info().hits
        linalg._smith(gram)
        assert linalg._smith.cache_info().hits == hits, f"the Smith memo keeps {gram}"


def test_a_search_past_the_memo_coordinate_bound_is_not_kept():
    # E8(-1) at norm -6: 6,720 vectors of 8 coordinates
    lattice._vectors_of_norm.cache_clear()
    kept = enumerate_vectors_of_norm(e8(-1), -2)
    info = lattice._vectors_of_norm.cache_info()
    big = enumerate_vectors_of_norm(e8(-1), -6)
    assert len(big) == 6720 and len(big) * 8 > lattice._MEMO_COORDINATE_BOUND
    assert lattice._vectors_of_norm.cache_info().currsize == info.currsize == 1
    # a second call searches again, with the same result; the kept search still hits
    assert enumerate_vectors_of_norm(e8(-1), -6) == big
    assert enumerate_vectors_of_norm(e8(-1), -2) == kept
    after = lattice._vectors_of_norm.cache_info()
    assert (after.currsize, after.misses, after.hits) == (1, info.misses + 2, info.hits + 1)


def test_a_search_past_a_lowered_term_bound_raises_on_every_call(monkeypatch):
    roots = enumerate_vectors_of_norm(e8(-1), -2)
    _, terms = lattice._vectors_of_norm(e8(-1).gram, -2)
    monkeypatch.setattr(lattice, "_SHORT_VECTOR_TERM_BOUND", terms - 1)
    for _ in range(3):
        with pytest.raises(UnsupportedError, match=f"summed {terms} coordinate terms"):
            enumerate_vectors_of_norm(e8(-1), -2)
    monkeypatch.setattr(lattice, "_SHORT_VECTOR_TERM_BOUND", terms)
    assert enumerate_vectors_of_norm(e8(-1), -2) == roots


def test_a_float_norm_is_refused_after_its_int_is_cached():
    roots = enumerate_vectors_of_norm(e8(-1), -2)
    assert enumerate_vectors_of_norm(e8(-1), Fraction(-2)) == roots
    for _ in range(3):
        with pytest.raises(BadInputError, match="negative even integer"):
            enumerate_vectors_of_norm(e8(-1), -2.0)


def test_float_generators_are_refused_after_their_ints_are_cached():
    form = discriminant_form(e8(-2))
    reflections = e8_simple_reflections()
    sizes = [len(o) for o in orbits_under_generators(form, reflections)]
    assert sizes == [1, 120, 135]
    exact = [[[Fraction(x) for x in row] for row in m] for m in reflections]
    assert orbits_under_generators(form, exact) == orbits_under_generators(form, reflections)
    floats = [[[float(x) for x in row] for row in m] for m in reflections]
    for _ in range(3):
        with pytest.raises(BadInputError, match="generator entries must be integers"):
            orbits_under_generators(form, floats)


def test_a_refused_generator_raises_on_every_call():
    form = discriminant_form(hyperbolic_plane(2))
    assert len(orbits_under_generators(form, [[[0, 1], [1, 0]]])) == 3
    for _ in range(3):
        with pytest.raises(BadInputError, match="not an isometry"):
            orbits_under_generators(form, [[[0, 1], [1, 0]], [[1, 1], [0, 1]]])


def test_a_family_spanning_no_finite_index_raises_after_rank_zero_is_cached():
    # the rank 0 lattice and the zero vectors of U both reduce to no rows
    assert sublattice_index(Lattice([]), []) == 1
    for _ in range(3):
        with pytest.raises(BadInputError, match="finite-index"):
            sublattice_index(hyperbolic_plane(), [[0, 0], [0, 0]])


def test_a_warm_pass_runs_no_search_index_or_induced_action(monkeypatch):
    assert all(r.passed for r in verify.run_all(DEFAULT_SEED))
    misses = [memo.cache_info().misses for _, memo, _ in MEMOS.values()]
    calls = Counter()
    for module, name in ((linalg, "hermite_normal_form"), (discforms, "action_on_disc")):
        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    assert all(r.passed for r in verify.run_all(DEFAULT_SEED + 1))
    assert [memo.cache_info().misses for _, memo, _ in MEMOS.values()] == misses
    assert calls == Counter()
