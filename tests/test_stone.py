"""Tests for Stone spectra, the limit of spectra, the Boolean reflection,
and Kochen-Specker detection."""

from __future__ import annotations

import inspect
import itertools
import math
import sys

import pytest

from helpers import point_family

from pbalg import stone
from pbalg.core import (
    PbaMorphism,
    block_hypergraph,
    boolean_algebra,
    check_morphism,
    compose,
    enumerate_morphisms,
    from_orthomodular,
    identity_morphism,
    is_isomorphic,
    mo_lattice,
    paste_blocks,
    trivial_algebra,
)
from pbalg.corpus import (
    cabello18_algebra,
    chain_of_triangles,
    generated_corpus,
    small_corpus,
)
from pbalg.errors import DomainError, SearchCutoffError
from pbalg.matrixalg import rays_to_pba
from pbalg.poset import boolean_subalgebras
from pbalg.stone import (
    boolean_reflection,
    coproduct_stays_kochen_specker,
    is_kochen_specker,
    limit_action,
    restriction_map,
    stone_limit,
    stone_limit_poset_oracle,
    stone_spectrum,
    two_valued_morphisms,
)


@pytest.fixture(scope="module")
def mo2():
    return from_orthomodular(mo_lattice(2))


@pytest.fixture(scope="module")
def ks18():
    return cabello18_algebra()


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_spectrum_point_counts():
    b1, b2, b3 = boolean_algebra(1), boolean_algebra(2), boolean_algebra(3)
    assert len(stone_spectrum(b1, frozenset({0, 1})).points) == 1
    assert len(stone_spectrum(b2, frozenset(range(4))).points) == 2
    assert len(stone_spectrum(b3, frozenset(range(8))).points) == 3


def test_spectrum_evaluation():
    b2 = boolean_algebra(2)
    sp = stone_spectrum(b2, frozenset(range(4)))
    for p in sp.points:
        assert sp.evaluate(b2, p, b2.one) == 1
        assert sp.evaluate(b2, p, b2.zero) == 0
        assert sp.evaluate(b2, p, p) == 1


def test_spectrum_rejects_non_boolean(mo2):
    with pytest.raises(DomainError):
        stone_spectrum(mo2, frozenset(range(6)))
    with pytest.raises(DomainError):
        stone_spectrum(mo2, frozenset({0, 1, 2}))


def test_restriction_merges_points():
    b3 = boolean_algebra(3)
    sub = frozenset({0, 0b001, 0b110, 0b111})
    rho = restriction_map(b3, sub, frozenset(range(8)))
    # atoms 2 and 4 both restrict to the coatom 110, atom 1 to 001
    assert rho[1] == 0b001
    assert rho[2] == rho[4] == 0b110


def test_restriction_functorial():
    b3 = boolean_algebra(3)
    top = frozenset(range(8))
    mid = frozenset({0, 0b001, 0b110, 0b111})
    bot = frozenset({0, 0b111})
    r_tm = restriction_map(b3, mid, top)
    r_mb = restriction_map(b3, bot, mid)
    r_tb = restriction_map(b3, bot, top)
    for q in r_tm:
        assert r_tb[q] == r_mb[r_tm[q]]


# ---------------------------------------------------------------------------
# the limit of spectra
# ---------------------------------------------------------------------------

def test_limit_of_boolean_is_spectrum():
    for k in (1, 2, 3, 4):
        A = boolean_algebra(k)
        valuations = stone_limit(A)
        points = stone_spectrum(A, frozenset(range(A.n))).points
        assert len(valuations) == len(points) == k
        # the point at the top member is exactly its atom, and the
        # valuation agrees with atom evaluation
        top = frozenset(range(A.n))
        P = boolean_subalgebras(A)
        chosen = [point_family(P, v)[top] for v in valuations]
        assert set(chosen) == set(points)
        for v, p in zip(valuations, chosen):
            assert all(v[x] == (1 if A.meet[p][x] == p else 0)
                       for x in A.elements())


def test_limit_of_paper_algebra_has_four_points(mo2):
    assert len(stone_limit(mo2)) == 4


def test_limit_matches_two_valued_morphisms(mo2, ks18):
    # the limit shares the cocone assembly, so its independent oracles are
    # the element-level morphism kernel and the member-poset backtracker
    carriers = [mo2, from_orthomodular(mo_lattice(3)),
                paste_blocks(block_hypergraph([["a", "b", "c"], ["c", "d", "e"]])),
                *small_corpus(), *generated_corpus(50, 24), chain_of_triangles(3), ks18]
    for A in carriers:
        homs = enumerate_morphisms(A, boolean_algebra(1))
        assert list(stone_limit(A)) == sorted(h.map for h in homs)
        if A is not ks18:
            assert len(stone_limit(A)) == len(stone_limit_poset_oracle(A))
        wrapped = two_valued_morphisms(A)
        assert all(check_morphism(w).ok for w in wrapped)
        assert sorted(w.map for w in wrapped) == sorted(h.map for h in homs)


def test_limit_matches_poset_oracle(mo2):
    for A in [mo2, boolean_algebra(3),
              paste_blocks(block_hypergraph([["a", "b", "c"], ["c", "d", "e"]]))]:
        valuations = stone_limit(A)
        oracle = stone_limit_poset_oracle(A)
        assert len(valuations) == len(oracle)
        P = boolean_subalgebras(A)
        families = {tuple(sorted(point_family(P, v).items(),
                                 key=lambda kv: tuple(sorted(kv[0]))))
                    for v in valuations}
        assert families == set(oracle)


def test_limit_families_are_restriction_compatible(mo2):
    P = boolean_subalgebras(mo2)
    for v in stone_limit(mo2):
        family = point_family(P, v)
        for s in P.members:
            for t in P.members:
                if s < t:
                    rho = restriction_map(mo2, s, t)
                    assert rho[family[t]] == family[s]


def test_limit_of_terminal_is_empty():
    assert stone_limit(trivial_algebra()) == ()


def _peres33_rays() -> list[tuple[float, float, float]]:
    """Peres's 33 rays in dimension 3: every coordinate permutation and sign
    pattern of (1,0,0), (0,1,1), (0,1,sqrt2) and (1,1,sqrt2), up to the
    overall sign."""
    r2 = math.sqrt(2.0)
    rays = set()
    for base in ((1.0, 0.0, 0.0), (0.0, 1.0, 1.0), (0.0, 1.0, r2), (1.0, 1.0, r2)):
        for perm in set(itertools.permutations(base)):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                v = tuple(s * x + 0.0 for s, x in zip(signs, perm))
                if next(x for x in v if x) > 0:
                    rays.add(v)
    return sorted(rays)


@pytest.mark.parametrize("name, nodes", [
    ("cabello18", 467), ("peres33", 1939), ("mo3", 15)])
def test_stone_limit_budget_is_exact(monkeypatch, ks18, name, nodes):
    # one node per compatible prefix of the block assembly into bool1: the
    # Cabello-18 closure is refuted in 467, the Peres-33 closure in 1939,
    # and mo3's eight points take 15
    A = {"cabello18": lambda: ks18,
         "peres33": lambda: rays_to_pba(_peres33_rays(), 3).algebra,
         "mo3": lambda: from_orthomodular(mo_lattice(3))}[name]()
    expected = stone_limit(A)
    monkeypatch.setattr(stone, "_STONE_MAX_NODES", nodes)
    assert stone_limit(A) == expected
    monkeypatch.setattr(stone, "_STONE_MAX_NODES", nodes - 1)
    with pytest.raises(SearchCutoffError) as info:
        stone_limit(A)
    assert info.value.limit == nodes - 1


def test_stone_limit_deep_chain():
    # 300 blocks in a chain: a search that recursed once per block would
    # need 300 frames, twice what the lowered recursion limit leaves
    A = chain_of_triangles(300)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        valuations = stone_limit(A, max_solutions=1)
    finally:
        sys.setrecursionlimit(old)
    assert len(valuations) == 1
    assert check_morphism(PbaMorphism(A, boolean_algebra(1), valuations[0])).ok


# ---------------------------------------------------------------------------
# Boolean reflection
# ---------------------------------------------------------------------------

def test_reflection_of_boolean_is_isomorphism():
    for k in (1, 2, 3):
        A = boolean_algebra(k)
        refl = boolean_reflection(A)
        assert is_isomorphic(refl.reflection, A)
        assert sorted(refl.eta.map) == sorted(range(A.n))  # bijective unit


def test_reflection_of_paper_algebra_is_sixteen(mo2):
    refl = boolean_reflection(mo2)
    assert refl.reflection.n == 16
    assert check_morphism(refl.eta).ok
    # eta is injective: the paper algebra embeds into a Boolean algebra
    assert len(set(refl.eta.map)) == mo2.n


def test_reflection_couniversal(mo2):
    # every morphism into a small Boolean algebra factors uniquely through eta
    refl = boolean_reflection(mo2)
    L, eta = refl.reflection, refl.eta
    for B in [boolean_algebra(1), boolean_algebra(2)]:
        homs_L = enumerate_morphisms(L, B)
        for f in enumerate_morphisms(mo2, B):
            factoring = [g for g in homs_L if compose(g, eta).map == f.map]
            assert len(factoring) == 1


def test_reflection_of_kochen_specker_is_terminal(ks18):
    refl = boolean_reflection(ks18)
    assert refl.reflection.n == 1


# ---------------------------------------------------------------------------
# Kochen-Specker detection
# ---------------------------------------------------------------------------

def test_paper_algebra_not_kochen_specker(mo2):
    assert not is_kochen_specker(mo2)


def test_boolean_never_kochen_specker():
    for k in (1, 2, 3, 4):
        assert not is_kochen_specker(boolean_algebra(k))


def test_cabello_algebra_is_kochen_specker(ks18):
    assert is_kochen_specker(ks18)
    assert stone_limit(ks18) == ()


def test_verdicts_need_no_member_poset(mo2, ks18, monkeypatch):
    # the limit is read off the blocks alone: with the member poset
    # unavailable, every limit-derived answer is unchanged
    def results(A):
        refl = boolean_reflection(A)
        return (stone_limit(A), is_kochen_specker(A),
                (refl.reflection.n, refl.eta.map, refl.families),
                [f.map for f in two_valued_morphisms(A)],
                limit_action(identity_morphism(A)))

    expected = [results(A) for A in (mo2, ks18)]

    def unavailable(A, *args, **kwargs):
        raise AssertionError("member poset built for a limit verdict")

    monkeypatch.setattr(stone, "boolean_subalgebras", unavailable)
    assert [results(A) for A in (mo2, ks18)] == expected


def test_terminal_is_kochen_specker_degenerate():
    # the one-element carrier has no two-valued states either
    assert is_kochen_specker(trivial_algebra())


def test_coproduct_ideal(mo2, ks18):
    assert coproduct_stays_kochen_specker(ks18, boolean_algebra(2))
    assert coproduct_stays_kochen_specker(ks18, mo2)
    with pytest.raises(DomainError):
        coproduct_stays_kochen_specker(mo2, boolean_algebra(2))


# ---------------------------------------------------------------------------
# contravariant functoriality
# ---------------------------------------------------------------------------

def test_limit_action_identity(mo2):
    act = limit_action(identity_morphism(mo2))
    assert all(k == v for k, v in act.items())


def test_limit_action_contravariant_composition(mo2):
    b2 = boolean_algebra(2)
    two = boolean_algebra(1)
    f = enumerate_morphisms(mo2, b2)[1]
    g = enumerate_morphisms(b2, two)[0]
    act_f = limit_action(f)        # K(b2) -> K(mo2)
    act_g = limit_action(g)        # K(two) -> K(b2)
    act_gf = limit_action(compose(g, f))
    for k_val in act_gf:
        assert act_gf[k_val] == act_f[act_g[k_val]]
