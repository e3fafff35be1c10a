"""The memos of the short-vector search, the orbit partition, the span index and the Smith form,
and the one record of facts per Gram.

Each memo sits behind a public function that validates its input and keys
the memo on the validated data only.  A hit must equal a cold result, it is
the very value the first call handed out, which no caller can change, and a
refused input raises on every call, also after the same valid input was
cached.  A search result too large to keep is returned without being kept.
Lattices with one Gram share that Gram's record, whatever their labels and
names.
"""

import gc
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lat import (
    BadInputError,
    Lattice,
    OddLatticeError,
    UnsupportedError,
    discriminant_form,
    e8,
    e8_simple_reflections,
    enumerate_vectors_of_norm,
    hyperbolic_plane,
    lattice_fingerprint,
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


def _immutable(value) -> bool:
    """Whether value is an int, or a tuple of immutable values all the way down."""
    return type(value) is int or (type(value) is tuple and all(map(_immutable, value)))


@pytest.mark.parametrize("name", ["vectors", "orbits", "smith"])
def test_a_hit_is_the_kept_value_and_no_caller_can_change_it(name):
    call, _, cases = MEMOS[name]
    for args in cases():
        first = call(*args)
        assert call(*args) is first
        assert _immutable(first)
        with pytest.raises(TypeError):
            first[0] = ()


def test_a_partition_is_kept_by_gram_and_outlives_the_record_of_its_form():
    # the memo keys on the parent's Gram and the generators, not on the form:
    # a form built again after its Gram's record is dropped finds the partition
    # the first form filled, and no memo keeps the first form
    discforms._orbits.cache_clear()
    lattice._gram_facts.cache_clear()
    form = discriminant_form(e8(-2))
    first = orbits_under_generators(form, e8_simple_reflections())
    stale = weakref.ref(form)
    del form
    lattice._gram_facts.cache_clear()
    gc.collect()
    assert stale() is None
    again = orbits_under_generators(discriminant_form(e8(-2)), e8_simple_reflections())
    assert again is first
    info = discforms._orbits.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


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
    # the record of each Gram keeps its discriminant form, so the Smith memo
    # keeps only the kernel and invariant-factor matrices
    asked = set()
    original = discforms.discriminant_form

    def recording(lat):
        asked.add(tuple(map(tuple, lat.gram)))
        return original(lat)

    for module in (discforms, gluing, verify):
        monkeypatch.setattr(module, "discriminant_form", recording)
    for memo in (lattice._gram_facts, gluing.glue, linalg._smith):
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


def test_a_warm_pass_builds_no_form_fingerprint_or_elimination(monkeypatch):
    assert all(r.passed for r in verify.run_all(DEFAULT_SEED))
    built = Counter()
    for cls in (discforms.FiniteQuadraticForm, discforms.Fingerprint):
        def counting(self, *args, _name=cls.__name__, _init=cls.__init__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    eliminate = linalg.signature_of_symmetric
    monkeypatch.setattr(linalg, "signature_of_symmetric",
                        lambda gram: built.update(["elimination"]) or eliminate(gram))
    assert all(r.passed for r in verify.run_all(DEFAULT_SEED + 1))
    assert built == Counter()


def test_an_odd_lattice_is_refused_on_every_call_and_leaves_its_record_as_it_was():
    odd = Lattice([[1, 1], [1, -4]], ["x", "y"], "odd")
    record = lattice._gram_facts(odd.gram)
    kept = dict(record)
    for _ in range(3):
        with pytest.raises(OddLatticeError, match="needs an even lattice"):
            discriminant_form(odd)
        assert lattice._gram_facts(odd.gram) is record and record == kept


@st.composite
def _even_grams(draw):
    # strictly diagonally dominant, so nondegenerate; even on the diagonal
    n = draw(st.integers(1, 4))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    for i in range(n):
        size = sum(abs(x) for x in g[i]) + draw(st.integers(0, 3))
        g[i][i] = draw(st.sampled_from([1, -1])) * 2 * (size // 2 + 1)
    return g


@given(_even_grams(), st.sampled_from([("labels",), ("name",), ("labels", "name")]))
@settings(max_examples=40, deadline=None)
def test_lattices_with_one_gram_are_unequal_but_share_their_facts(gram, differ):
    n = len(gram)
    first = Lattice(gram, [f"x{i}" for i in range(n)], "first")
    second = Lattice(gram, [f"y{i}" for i in range(n)] if "labels" in differ else first.labels,
                     "second" if "name" in differ else first.name)
    assert first != second and first.gram == second.gram
    assert discriminant_form(second) is discriminant_form(first)
    assert lattice_fingerprint(second) is lattice_fingerprint(first)
