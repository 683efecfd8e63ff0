"""Tests for the Boolean subalgebra poset."""

from __future__ import annotations

import hashlib

import pytest

from helpers import (
    commeasurability_from_members,
    crown,
    hasse_edges_cubic,
    poset_leq_by_subsets,
    report_text,
    structure_report_cubic,
)
from pbalg import poset
from pbalg.core import (
    block_hypergraph,
    boolean_algebra,
    from_orthomodular,
    generated_subalgebra,
    maximal_cliques,
    mo_lattice,
    paste_blocks,
    trivial_algebra,
)
from pbalg.corpus import chain_of_triangles, generated_corpus, small_corpus
from pbalg.poset import (
    boolean_subalgebras,
    boolean_subalgebras_oracle,
    downset_matches_partition_lattice,
    partition_lattice,
    structure_report,
)
from pbalg.poset import _poset_isomorphic, _set_partitions
from pbalg.errors import SearchCutoffError


@pytest.fixture(scope="module")
def mo2():
    return from_orthomodular(mo_lattice(2))


def test_paper_algebra_has_exactly_three_members(mo2):
    P = boolean_subalgebras(mo2)
    assert set(P.members) == {
        frozenset({0, 1}),
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1, 4, 5}),
    }


def test_two_element_algebra_single_member():
    P = boolean_subalgebras(boolean_algebra(1))
    assert P.members == (frozenset({0, 1}),)


def test_powerset_member_count_matches_oracle():
    # Subalgebras of 2^3 = set partitions of three atoms: Bell(3) = 5.
    b3 = boolean_algebra(3)
    P = boolean_subalgebras(b3)
    oracle = boolean_subalgebras_oracle(b3)
    assert set(P.members) == oracle
    assert len(P.members) == 5


def test_enumeration_matches_oracle_on_pasted_algebra():
    A = paste_blocks(block_hypergraph([["a", "b", "c"], ["c", "d", "e"]]))
    P = boolean_subalgebras(A)
    assert set(P.members) == boolean_subalgebras_oracle(A)


def test_members_on_overlapping_blocks_are_pinned():
    # every generated corpus carrier and two triangle chains, whose maximal
    # blocks overlap: the member lists, each member as its sorted elements,
    # hashed as taken while members were built by joins of their atoms
    algs = [*generated_corpus(50, 24), chain_of_triangles(2), chain_of_triangles(3)]
    text = repr([[sorted(m) for m in boolean_subalgebras(A).members] for A in algs])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "d5a5f8b07eeb5e69"


def test_members_are_their_own_closures(mo2):
    for A in [mo2, boolean_algebra(3)]:
        P = boolean_subalgebras(A)
        for member in P.members:
            assert generated_subalgebra(A, member) == member


def test_structure_report_paper_algebra(mo2):
    rep = structure_report(boolean_subalgebras(mo2))
    assert rep.least == frozenset({0, 1})
    assert set(rep.atoms) == {frozenset({0, 1, 2, 3}), frozenset({0, 1, 4, 5})}
    assert not rep.is_filtered
    assert rep.maximum is None


def test_structure_report_boolean():
    b3 = boolean_algebra(3)
    rep = structure_report(boolean_subalgebras(b3))
    assert rep.is_filtered
    assert rep.maximum == frozenset(range(8))
    # atoms are exactly the subalgebras generated by single nontrivial elements
    expected = {frozenset(generated_subalgebra(b3, [a])) for a in b3.nontrivial()}
    assert set(rep.atoms) == expected


def test_structure_report_two_element():
    rep = structure_report(boolean_subalgebras(boolean_algebra(1)))
    assert rep.least == frozenset({0, 1})
    assert rep.maximum == frozenset({0, 1})
    assert rep.atoms == ()
    assert rep.is_filtered


def test_filtered_iff_boolean(mo2):
    cases = [
        (boolean_algebra(2), True),
        (boolean_algebra(3), True),
        (trivial_algebra(), True),
        (mo2, False),
        (from_orthomodular(mo_lattice(3)), False),
    ]
    for A, expect in cases:
        rep = structure_report(boolean_subalgebras(A))
        assert rep.is_filtered == expect == A.is_boolean()
        if expect:
            assert rep.maximum == frozenset(range(A.n))


def test_boolean_poset_is_a_lattice():
    # for a Boolean carrier the member poset has a maximum and is a lattice:
    # intersections of members are members, and so are generated unions
    from pbalg.core import generated_subalgebra
    b3 = boolean_algebra(3)
    P = boolean_subalgebras(b3)
    members = set(P.members)
    for s in members:
        for t in members:
            assert s & t in members
            assert frozenset(generated_subalgebra(b3, s | t)) in members


def test_commeasurability_recoverable_from_members(mo2):
    for A in [mo2, boolean_algebra(3),
              paste_blocks(block_hypergraph([["a", "b", "c"], ["c", "d", "e"]]))]:
        P = boolean_subalgebras(A)
        assert commeasurability_from_members(P) == list(A.comm)


def test_partition_lattice_sizes():
    for k, bell in [(1, 1), (2, 2), (3, 5), (4, 15)]:
        elems, _ = partition_lattice(k)
        assert len(elems) == bell


def test_set_partitions_are_the_bell_numbers():
    # every partition of 0-8 items exactly once, each covering the items
    for k, bell in enumerate([1, 1, 2, 5, 15, 52, 203, 877, 4140]):
        parts = [frozenset(frozenset(b) for b in p)
                 for p in _set_partitions(list(range(k)))]
        assert len(parts) == len(set(parts)) == bell
        assert all(sorted(x for b in p for x in b) == list(range(k)) for p in parts)


def test_downset_of_full_powerset_is_dual_partition_lattice():
    b3 = boolean_algebra(3)
    P = boolean_subalgebras(b3)
    assert downset_matches_partition_lattice(P, frozenset(range(8)))


def test_downset_of_atom_is_two_chain(mo2):
    P = boolean_subalgebras(mo2)
    assert downset_matches_partition_lattice(P, frozenset({0, 1, 2, 3}))


def test_downset_of_least_is_singleton(mo2):
    P = boolean_subalgebras(mo2)
    assert downset_matches_partition_lattice(P, frozenset({0, 1}))


def test_downset_check_fails_on_wrong_member():
    # inside 2^4 the down-set of the full algebra is Π4-dual (15 members);
    # the down-set of a proper 8-element subalgebra is Π3-dual, so comparing
    # a non-member-shaped poset must fail
    b4 = boolean_algebra(4)
    P = boolean_subalgebras(b4)
    full = frozenset(range(16))
    assert downset_matches_partition_lattice(P, full)
    sub = generated_subalgebra(b4, [0b0001, 0b0010])
    assert downset_matches_partition_lattice(P, sub)


def test_poset_isomorphism_refutes_equal_profiles():
    # an 8-cycle and two 4-cycles as bipartite orders: every element has the
    # same (down, up) counts in both, so only the search can tell them apart
    cycle = crown([(0, 4), (0, 5), (1, 5), (1, 6), (2, 6), (2, 7), (3, 7), (3, 4)])
    squares = crown([(0, 4), (0, 5), (1, 4), (1, 5), (2, 6), (2, 7), (3, 6), (3, 7)])
    shuffled = crown([(3, 6), (3, 5), (2, 5), (2, 4), (1, 4), (1, 7), (0, 7), (0, 6)])
    assert not _poset_isomorphic(cycle, squares)
    assert _poset_isomorphic(cycle, shuffled)
    assert _poset_isomorphic(squares, squares)


def test_maximal_indices_match_pairwise_scan_and_cliques(mo2):
    # the leq-row reading agrees with the pairwise definition, and the
    # maximal members are the maximal cliques of commeasurability
    for A in [mo2, *small_corpus(), *generated_corpus(50, 24), boolean_algebra(5)]:
        P = boolean_subalgebras(A)
        n = len(P.members)
        pairwise = [i for i in range(n)
                    if all(not P.contains(i, j) for j in range(n) if j != i)]
        assert P.maximal_indices() == pairwise
        cliques = {frozenset(i for i in range(A.n) if c >> i & 1)
                   for c in maximal_cliques(A)}
        assert {P.members[i] for i in pairwise} == cliques


def test_leq_rows_match_subset_tests(mo2):
    # the rows ANDed from per-element holder masks against one subset test
    # per member pair, on both corpora and two larger Boolean carriers
    algs = [mo2, trivial_algebra(), *small_corpus(), *generated_corpus(50, 24),
            chain_of_triangles(3), boolean_algebra(6), boolean_algebra(7)]
    for A in algs:
        P = boolean_subalgebras(A)
        assert P.leq == poset_leq_by_subsets(P.members)


def test_report_text_mentions_members(mo2):
    txt = report_text(boolean_subalgebras(mo2))
    assert "3 members" in txt
    assert "filtered: no" in txt


def test_hasse_edges_paper_algebra(mo2):
    P = boolean_subalgebras(mo2)
    li = P.index_of(frozenset({0, 1}))
    edges = P.hasse_edges()
    assert sorted(edges) == [(li, j) for j in range(3) if j != li]


@pytest.mark.parametrize("A", [pytest.param(A, id=f"small{i}") for i, A in enumerate(small_corpus())]
                         + [pytest.param(trivial_algebra(), id="trivial")]
                         + [pytest.param(boolean_algebra(k), id=f"bool{k}") for k in (5, 6)])
def test_poset_reports_match_cubic_definitions(A):
    # the Hasse edges, atoms and maximum are read off leq rows and columns,
    # and filteredness off the maximum; the definitions test every pair or
    # triple of members
    P = boolean_subalgebras(A)
    assert P.hasse_edges() == hasse_edges_cubic(P)
    assert structure_report(P) == structure_report_cubic(P)


def test_subalgebra_member_cap_is_exact(monkeypatch):
    # bool3's 5 members: {0, 1}, the three four-element ones and bool3; the
    # cache is cleared so the capped enumeration runs
    A = boolean_algebra(3)
    boolean_subalgebras.cache_clear()
    monkeypatch.setattr(poset, "_SUBALGEBRA_MAX_MEMBERS", 4)
    with pytest.raises(SearchCutoffError, match="exceeded 4 members") as info:
        boolean_subalgebras(A)
    assert info.value.limit == 4
    monkeypatch.setattr(poset, "_SUBALGEBRA_MAX_MEMBERS", 5)
    assert len(boolean_subalgebras(A).members) == 5
