"""Tests for colimit machinery: mediating morphisms, universality, products,
coproducts, equalizers, free products, tensor products."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import random
import subprocess
import sys

import pytest

from helpers import (
    cocone_legs_by_product,
    member_legs,
    walk_block_tables,
    walk_mediating_morphism,
)
from pbalg import colimit
from pbalg._rowbands import Rows
from pbalg.core import (
    _SMALL_MAX,
    UNDEF,
    PbaMorphism,
    _boolean_block,
    atoms_of_subalgebra,
    block_hypergraph,
    block_tables,
    boolean_algebra,
    check_morphism,
    compose,
    enumerate_morphisms,
    from_orthomodular,
    identity_morphism,
    image_factorization,
    is_isomorphic,
    mo_lattice,
    paste_blocks,
    sub_algebra,
    trivial_algebra,
    validate,
)
from pbalg.colimit import (
    Cocone,
    boolean_coproduct,
    cocone_from_morphism,
    cocones_into,
    coproduct,
    equalizer,
    inclusion_cocone,
    mediating_morphism,
    product,
    tensor_factorization,
    tensor_product,
    verify_colimit,
)
from pbalg.corpus import chain_of_triangles, generated_corpus, small_corpus
from pbalg.formats import serialize_algebra
from pbalg.errors import (
    AmalgamError,
    CoconeError,
    DomainError,
    InvalidAlgebraError,
    SearchCutoffError,
)
from pbalg.poset import boolean_subalgebras


@pytest.fixture(scope="module")
def mo2():
    return from_orthomodular(mo_lattice(2))


@pytest.fixture(scope="module")
def mo3():
    return from_orthomodular(mo_lattice(3))


# ---------------------------------------------------------------------------
# mediating morphisms
# ---------------------------------------------------------------------------

def test_inclusion_cocone_mediates_to_identity(mo2):
    m = mediating_morphism(mo2, inclusion_cocone(mo2))
    assert m.map == tuple(range(mo2.n))


def test_paper_cocone_gives_paper_map(mo2):
    b2 = boolean_algebra(2)
    c, c1 = 2, 1
    maps = {(0, 1, 2, 3): (0, 3, c, c1), (0, 1, 4, 5): (0, 3, c, c1)}
    cocone = Cocone(apex=b2, maps=maps)
    m = mediating_morphism(mo2, cocone)
    assert m.map == (0, 3, c, c1, c, c1)
    assert check_morphism(m).ok
    assert cocone.leg(frozenset({0, 1})) == {0: 0, 1: 3}
    assert cocone.leg(frozenset({0, 1, 4, 5})) == {0: 0, 1: 3, 4: c, 5: c1}
    with pytest.raises(KeyError):
        cocone.leg(frozenset({0, 1, 2, 4}))


def test_random_cocone_on_mo3_evaluates_elementwise(mo3):
    b3 = boolean_algebra(3)
    cocones = cocones_into(mo3, b3, max_cocones=5)
    P = boolean_subalgebras(mo3)
    for c in cocones:
        m = mediating_morphism(mo3, c)
        # independent recomputation of each leg value
        for member in P.members:
            for a in member:
                assert m.map[a] == c.leg(member)[a]


def test_incoherent_cocone_rejected(mo2):
    b2 = boolean_algebra(2)
    maps = {(0, 1, 2, 3): (3, 0, 2, 1),  # not a morphism
            (0, 1, 4, 5): (0, 3, 2, 1)}
    with pytest.raises(CoconeError):
        mediating_morphism(mo2, Cocone(apex=b2, maps=maps))


@pytest.mark.parametrize("maps, message, pair", [
    pytest.param({(0, 1, 2, 3): (0, 1, 2, 3)}, "cocone lacks a map for a maximal block of size 4",
                 ((0, 1, 4, 5), None), id="block"),
    pytest.param({(0, 1, 2, 3): (0, 1, 2, 3), (0, 1, 4, 5): (0, 1, 4, 5), (0, 1): (0, 1)},
                 "cocone has a map for a set that is not a maximal block", ((0, 1), None),
                 id="extra"),
    pytest.param({(0, 1, 2, 3): (0, 1, 2, 3), (0, 1, 4, 5): (0, 1, 4, 6)},
                 "cocone map leaves the apex", ((0, 1, 4, 5), None), id="apex"),
    pytest.param({(0, 1, 2, 3): (1, 0, 3, 2), (0, 1, 4, 5): (0, 1, 4, 5)},
                 "cocone maps disagree on a shared element", ((0, 1, 2, 3), (0, 1, 4, 5)),
                 id="overlap"),
    pytest.param({(0, 1, 2, 3): (0, 1, 2, 3), (0, 1, 4, 5): (0, 1, 4, 4)},
                 "cocone map is not a morphism: neg not preserved at x1", ((0, 1, 4, 5), None),
                 id="morphism"),
])
def test_mediation_faults_name_the_block(mo2, maps, message, pair):
    # the first fault raises, and names the block at fault (or the block
    # that set a shared element and the one that differs on it)
    with pytest.raises(CoconeError) as info:
        mediating_morphism(mo2, Cocone(apex=mo2, maps=maps))
    assert str(info.value) == message and info.value.pair == pair


def test_leg_missing_an_element_is_a_cocone_error(mo2):
    # a block map one image short of its block
    maps = dict(inclusion_cocone(mo2).maps)
    short = max(maps)
    maps[short] = maps[short][:-1]
    with pytest.raises(CoconeError, match="does not cover its block") as info:
        mediating_morphism(mo2, Cocone(apex=mo2, maps=maps))
    assert info.value.pair == (short, None)


def _verdict(call):
    """The map a mediation returns, or ``CoconeError`` with its message; a
    bare KeyError (the member walk's leg missing an element) counts as a
    CoconeError.  Anything else propagates."""
    try:
        return ("map", call().map), None
    except KeyError:
        return ("CoconeError",), "KeyError"
    except CoconeError as exc:
        return ("CoconeError",), str(exc)


def _corrupted(c, rng):
    """Three seeded corruptions of a cocone's block maps: one value changed,
    one block dropped, one element dropped from one block's map."""
    blocks = sorted(c.maps)
    maps = dict(c.maps)
    block = rng.choice(blocks)
    h = list(maps[block])
    p = rng.randrange(len(h))
    h[p] = rng.choice([v for v in range(c.apex.n) if v != h[p]])
    maps[block] = tuple(h)
    yield "value", Cocone(apex=c.apex, maps=maps)
    maps = dict(c.maps)
    del maps[rng.choice(blocks)]
    yield "block", Cocone(apex=c.apex, maps=maps)
    maps = dict(c.maps)
    block = rng.choice(blocks)
    h = list(maps[block])
    del h[rng.randrange(len(h))]
    maps[block] = tuple(h)
    yield "element", Cocone(apex=c.apex, maps=maps)


def test_mediation_matches_full_cocone_walk(mo2):
    # the block-family certificate and the member-by-member walk over the
    # same cocone spread out to one leg per member give the same verdict:
    # the same map, or a CoconeError on both sides
    rng = random.Random(17)
    targets = [boolean_algebra(1), boolean_algebra(2), boolean_algebra(3), mo2]
    carriers = small_corpus() + [chain_of_triangles(2)] + generated_corpus(50, 24)
    kinds = {"value": 0, "block": 0, "element": 0}
    messages = set()
    for A in carriers:
        P = boolean_subalgebras(A)
        for B in targets:
            cocones = cocones_into(A, B, max_cocones=3, rng=rng)
            if B is targets[0] and A.n > 1:
                cocones.append(inclusion_cocone(A))
            for c in cocones:
                def walk(c=c):
                    return walk_mediating_morphism(A, P, c.apex, member_legs(P, c))
                want, _ = _verdict(walk)
                assert want[0] == "map"
                assert _verdict(lambda: mediating_morphism(A, c))[0] == want
                for kind, bad in itertools.chain(*(_corrupted(c, rng) for _ in range(2))):
                    want, _ = _verdict(lambda: walk(bad))
                    got, message = _verdict(lambda: mediating_morphism(A, bad))
                    assert got == want, kind
                    kinds[kind] += 1
                    messages.add(message and message.split(":")[0])
    # every corruption is caught, and each kind of fault is met
    assert kinds == dict.fromkeys(kinds, 1390)
    assert messages == {"cocone map is not a morphism", "cocone maps disagree on a shared element",
                        "cocone map does not cover its block"} | {
        f"cocone lacks a map for a maximal block of size {2 ** k}" for k in range(1, 5)}


def test_cocones_biject_with_morphisms(mo2, mo3):
    # by universality, cocones into B correspond exactly to morphisms A -> B,
    # and restricting each morphism to the maximal blocks gives its cocone
    for A in [mo2, mo3, boolean_algebra(2)]:
        for B in [boolean_algebra(1), boolean_algebra(2)]:
            cocones = cocones_into(A, B)
            homs = enumerate_morphisms(A, B)
            assert len(cocones) == len(homs)
            mediated = sorted(mediating_morphism(A, c).map for c in cocones)
            assert mediated == [h.map for h in homs]
            restricted = [cocone_from_morphism(A, h) for h in homs]
            assert [mediating_morphism(A, c).map for c in restricted] == mediated
            assert ({frozenset(c.maps.items()) for c in restricted}
                    == {frozenset(c.maps.items()) for c in cocones})


def test_cocones_match_product_oracle(mo2):
    # the small corpus's blocks share only 0 and 1; the triangle chains'
    # blocks share an atom and its complement, so the join index filters
    targets = [boolean_algebra(1), boolean_algebra(2), boolean_algebra(3), mo2]
    for A in small_corpus() + [chain_of_triangles(2), chain_of_triangles(3)]:
        P = boolean_subalgebras(A)
        for B in targets:
            legs = [member_legs(P, c) for c in cocones_into(A, B)]
            assert legs == cocone_legs_by_product(P, B)


@pytest.mark.parametrize("dom, cod, cap, nodes", [
    pytest.param("mo2", "bool2", None, 21, id="mo2-bool2"),
    pytest.param("mo3", "bool2", None, 85, id="mo3-bool2"),
    pytest.param("mo3", "mo3", None, 585, id="mo3-mo3"),
    pytest.param("mo3", "mo3", 3, 25, id="mo3-mo3-first3"),
])
def test_cocone_budget_is_exact(monkeypatch, mo2, mo3, dom, cod, cap, nodes):
    # one node per compatible prefix, root and complete cocones included;
    # once ``cap`` cocones are found, each prefix still pending counts too
    algs = {"mo2": mo2, "mo3": mo3, "bool2": boolean_algebra(2)}
    A, B = algs[dom], algs[cod]
    P = boolean_subalgebras(A)
    expected = [member_legs(P, c) for c in cocones_into(A, B, max_cocones=cap)]
    monkeypatch.setattr(colimit, "_COCONE_MAX_NODES", nodes)
    assert [member_legs(P, c) for c in cocones_into(A, B, max_cocones=cap)] == expected
    monkeypatch.setattr(colimit, "_COCONE_MAX_NODES", nodes - 1)
    with pytest.raises(SearchCutoffError) as info:
        cocones_into(A, B, max_cocones=cap)
    assert info.value.limit == nodes - 1


def test_block_hom_lists_match_enumeration(mo2, mo3):
    # each maximal member's Hom list, read off the Boolean blocks, is the
    # morphism enumeration over the member's carrier, in its order
    targets = [boolean_algebra(1), boolean_algebra(2), boolean_algebra(3), mo2, mo3]
    blocks = [colimit._target_blocks(B) for B in targets]
    pairs = 0
    for A in small_corpus() + generated_corpus(50, 24):
        for embed, k, subsets in colimit._maximal_blocks(A):
            sub, sub_embed = sub_algebra(A, embed)
            assert sub_embed == embed and k == len(atoms_of_subalgebra(A, frozenset(embed)))
            for B, target in zip(targets, blocks):
                got = colimit._block_homs(k, subsets, target, 2_000_000)
                assert got == [h.map for h in enumerate_morphisms(sub, B)]
                pairs += 1
    assert pairs == 715


def test_boolean_block_of_a_boolean_algebra():
    atoms, below, element = _boolean_block(boolean_algebra(3), range(8))
    assert atoms == [1, 2, 4] and below == element == list(range(8))
    assert _boolean_block(boolean_algebra(3), [0, 3, 4, 7]) == (
        [3, 4], [0, 1, 2, 3], [0, 3, 4, 7])
    assert _boolean_block(trivial_algebra(), [0]) == ([], [0], [0])
    # past 32 elements the transport row kernel reads the meet and join rows
    assert _boolean_block(boolean_algebra(6), range(64)) == (
        [1, 2, 4, 8, 16, 32], list(range(64)), list(range(64)))


def _with(A, **cells):
    """A copy of A with table cells replaced: ``meet=[(a, b, v)]`` sets
    both (a, b) and (b, a), ``neg=[(a, v)]`` one entry, ``comm=[(a, b)]``
    clears the pair; ``one=v`` moves one."""
    meet, join = [list(r) for r in A.meet], [list(r) for r in A.join]
    neg, comm = list(A.neg), list(A.comm)
    for table, name in ((meet, "meet"), (join, "join")):
        for a, b, v in cells.get(name, ()):
            table[a][b] = table[b][a] = v
    for a, v in cells.get("neg", ()):
        neg[a] = v
    for a, b in cells.get("comm", ()):
        comm[a] &= ~(1 << b)
        comm[b] &= ~(1 << a)
    return dataclasses.replace(A, one=cells.get("one", A.one), neg=tuple(neg),
                               comm=tuple(comm), meet=tuple(map(tuple, meet)),
                               join=tuple(map(tuple, join)))


@pytest.mark.parametrize("cells, elems", [
    pytest.param({"meet": [(1, 2, 1)]}, range(4), id="meet"),
    pytest.param({"join": [(2, 2, 3)]}, range(4), id="join"),
    pytest.param({"neg": [(1, 1)]}, range(4), id="neg"),
    pytest.param({"comm": [(1, 2)]}, range(4), id="comm"),
    pytest.param({"one": 1}, range(4), id="one"),
    pytest.param({}, [0, 1, 3], id="not-a-power-of-two"),
    pytest.param({}, [0, 1, 2, 7], id="not-closed"),
    pytest.param({"meet": [(5, 9, 0)]}, range(64), id="large-meet"),
    pytest.param({"join": [(5, 9, 15)]}, range(64), id="large-join"),
    pytest.param({"meet": [(9, 9, 1)]}, range(64), id="large-meet-diagonal"),
    pytest.param({"join": [(62, 63, -1)]}, range(64), id="large-join-undefined"),
    pytest.param({"neg": [(5, 5)]}, range(64), id="large-neg"),
    pytest.param({"comm": [(5, 9)]}, range(64), id="large-comm"),
])
def test_non_boolean_block_is_rejected(cells, elems):
    X = _with(boolean_algebra(max(elems).bit_length()), **cells)
    with pytest.raises(InvalidAlgebraError, match=r"block \{"):
        _boolean_block(X, elems)


def test_non_boolean_block_in_either_carrier_is_rejected(mo2):
    # a join cell inside a block of mo2 or of the target is wrong; the
    # subalgebra poset decodes the same blocks and rejects it too
    bad_a = _with(mo2, join=[(2, 2, 1)])
    assert not validate(bad_a).ok
    with pytest.raises(InvalidAlgebraError, match=r"block \{0, 1, x0, x0'\}"):
        boolean_subalgebras(bad_a)
    with pytest.raises(InvalidAlgebraError, match=r"block \{0, 1, x0, x0'\}"):
        cocones_into(bad_a, boolean_algebra(2))
    bad_b = _with(boolean_algebra(2), meet=[(1, 2, 1)])
    with pytest.raises(InvalidAlgebraError, match=r"block \{00, 01, 10, 11\}"):
        cocones_into(mo2, bad_b)


def test_block_hom_lists_respect_max_nodes(monkeypatch, mo3):
    # one node per function between atom sets, over every block of B,
    # counted apart from the assembly: bool3's block into bool3 and the
    # three blocks of mo3 takes 27 + 3 * 9 nodes; the three maps onto
    # {0, 1} lie in every block of mo3 and are listed once
    k, subsets = colimit._maximal_blocks(boolean_algebra(3))[0][1:]
    target = colimit._target_blocks(boolean_algebra(3)) + colimit._target_blocks(mo3)
    assert len(colimit._block_homs(k, subsets, target, 54)) == 27 + 3 * 6 + 3
    with pytest.raises(SearchCutoffError, match="morphism enumeration") as info:
        colimit._block_homs(k, subsets, target, 53)
    assert info.value.limit == 53
    # bool1 into mo3: three nodes for its one map, and two assembly nodes
    monkeypatch.setattr(colimit, "_COCONE_MAX_NODES", 3)
    assert len(cocones_into(boolean_algebra(1), mo3)) == 1
    monkeypatch.setattr(colimit, "_COCONE_MAX_NODES", 2)
    with pytest.raises(SearchCutoffError, match="morphism enumeration"):
        cocones_into(boolean_algebra(1), mo3)


# ---------------------------------------------------------------------------
# verify_colimit
# ---------------------------------------------------------------------------

def test_verify_boolean_trivial(mo2):
    rep = verify_colimit(boolean_algebra(2))
    assert rep.ok and rep.cocones_checked > 0


def test_verify_paper_algebra(mo2):
    rep = verify_colimit(mo2)
    assert rep.ok
    targets = {e.target_n for e in rep.entries}
    assert targets == {2, 4, 8}


def test_verify_uses_filtered_enumeration_where_feasible(mo2):
    rep = verify_colimit(mo2)
    assert all(e.uniqueness_route == "filtered-enumeration" for e in rep.entries)


def test_verify_constrained_route_without_enumeration_budget(monkeypatch, mo2):
    filtered = verify_colimit(mo2)
    assert {e.uniqueness_route for e in filtered.entries} == {"filtered-enumeration"}
    monkeypatch.setattr(colimit, "_FULL_ENUMERATION_MAX_NODES", 0)
    rep = verify_colimit(mo2)
    assert rep.ok
    assert all(e.uniqueness_route == "constrained-search" for e in rep.entries)
    assert rep.cocones_checked == filtered.cocones_checked


@pytest.mark.parametrize("cod, nodes", [(1, 14), (2, 42), (3, 146)])
def test_verify_filtered_route_budget_is_exact(monkeypatch, mo2, cod, nodes):
    # the route is filtered exactly when the search out of mo2 fits the
    # budget: its node total is that of test_enumerate_morphisms_budget_is_exact
    B = boolean_algebra(cod)
    monkeypatch.setattr(colimit, "_FULL_ENUMERATION_MAX_NODES", nodes)
    fitted = verify_colimit(mo2, targets=[B])
    monkeypatch.setattr(colimit, "_FULL_ENUMERATION_MAX_NODES", nodes - 1)
    cut = verify_colimit(mo2, targets=[B])
    assert fitted.ok and cut.ok and fitted.cocones_checked == cut.cocones_checked > 0
    assert {e.uniqueness_route for e in fitted.entries} == {"filtered-enumeration"}
    assert {e.uniqueness_route for e in cut.entries} == {"constrained-search"}


def test_verify_filtered_cross_check_can_fail(mo2, monkeypatch):
    # the compiled clauses out of mo2 lose its first state: a clause at x1
    # reading x0 drops that state's image of x1 under its image of x0, so of
    # the four cocones into bool1, the one that state restricts to is not
    # unique
    B = boolean_algebra(1)
    first = enumerate_morphisms(mo2, B)[0].map
    x0, x1 = mo2.labels.index("x0"), mo2.labels.index("x1")
    real = colimit._compile_clauses

    def lossy(dom, cod):
        clauses = real(dom, cod)
        full = (1 << cod.n) - 1
        clauses.unary[x1].append(
            ([full & ~(1 << first[x1]) if v == first[x0] else full
              for v in range(cod.n)], x0))
        return clauses

    monkeypatch.setattr(colimit, "_compile_clauses", lossy)
    rep = verify_colimit(mo2, targets=[B])
    assert rep.cocones_checked == 4 and not rep.ok
    assert sum(not e.unique for e in rep.entries) == 1


# seeds 0 and 3, digests taken before cocones were read off Boolean blocks
COLIMIT_REPORT_DIGESTS = {
    0: "0e57e9f148233341", 1: "e4e92482fdd1cc13", 2: "447df4d949b3b159",
    3: "ba7cbc1ae1c629b5", 4: "b2cb91a5a40a53b7", 5: "b2cb91a5a40a53b7",
    6: "967690e2bcac47df", 7: "967690e2bcac47df", 8: "967690e2bcac47df",
    9: "f3d914da79fe38c6", 10: "f3d914da79fe38c6", 11: "f3d914da79fe38c6",
    12: "e3ed7003e5982d26", 13: "e3ed7003e5982d26", 14: "e3ed7003e5982d26",
    15: "69389039c49b6c1c", 16: "967690e2bcac47df", 17: "967690e2bcac47df",
    18: "967690e2bcac47df", 19: "b2cb91a5a40a53b7", 20: "b2cb91a5a40a53b7",
    21: "69389039c49b6c1c", 22: "1874780acdaf0398", 23: "967690e2bcac47df",
    24: "967690e2bcac47df", 25: "967690e2bcac47df", 26: "1874780acdaf0398",
    27: "967690e2bcac47df", 28: "967690e2bcac47df", 29: "967690e2bcac47df",
    30: "ba7cbc1ae1c629b5", 31: "ba7cbc1ae1c629b5", 32: "b2cb91a5a40a53b7",
    33: "447df4d949b3b159", 34: "ba7cbc1ae1c629b5", 35: "1874780acdaf0398",
    36: "ba7cbc1ae1c629b5", 37: "ba7cbc1ae1c629b5", 38: "447df4d949b3b159",
    39: "ba7cbc1ae1c629b5", 40: "ba7cbc1ae1c629b5", 41: "ba7cbc1ae1c629b5",
    42: "ba7cbc1ae1c629b5", 43: "ba7cbc1ae1c629b5", 44: "1874780acdaf0398",
    45: "ba7cbc1ae1c629b5", 46: "b2cb91a5a40a53b7", 47: "ba7cbc1ae1c629b5",
    48: "ba7cbc1ae1c629b5", 49: "ba7cbc1ae1c629b5",
}


def test_verify_colimit_reports_are_pinned():
    for i, A in enumerate(generated_corpus(50, 24)):
        text = "".join(repr(verify_colimit(A, seed=s)) + "\n" for s in (0, 3))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == COLIMIT_REPORT_DIGESTS[i], i


def test_verify_colimit_does_not_build_the_subalgebra_poset(monkeypatch):
    # bool8 has 4,140 members; cocones are block families, so the poset is
    # never built
    def refuse(*args, **kwargs):
        raise AssertionError("boolean_subalgebras called")

    monkeypatch.setattr(colimit, "boolean_subalgebras", refuse)
    assert verify_colimit(boolean_algebra(8)).ok


def test_verify_rejects_large_apex(mo2):
    with pytest.raises(DomainError, match="max_apex"):
        verify_colimit(mo2, targets=[boolean_algebra(5)])


def test_verify_kochen_specker_algebra_vacuous():
    # the 18-ray carrier admits no morphism into small Boolean targets, so
    # no cocones exist either and the verification passes vacuously (the
    # eight-element target is omitted only because its assembly is slow)
    from pbalg.corpus import cabello18_algebra
    rep = verify_colimit(cabello18_algebra(),
                         targets=[boolean_algebra(1), boolean_algebra(2)])
    assert rep.ok
    assert rep.cocones_checked == 0


def test_universal_properties_against_enumeration_sweep(mo2):
    # coproducts and products satisfy their universal properties against the
    # full morphism enumeration over a sweep of small corpus pairs
    b1, b2 = boolean_algebra(1), boolean_algebra(2)
    targets = [b1, b2, mo2]
    for A, B in itertools.product([b1, b2, mo2], repeat=2):
        C, (ia, ib) = coproduct([A, B])
        P, (pa, pb) = product([A, B])
        for Z in targets:
            homs_out = enumerate_morphisms(C, Z)
            got = {(compose(h, ia).map, compose(h, ib).map) for h in homs_out}
            want = {(f.map, g.map) for f in enumerate_morphisms(A, Z)
                    for g in enumerate_morphisms(B, Z)}
            assert got == want and len(homs_out) == len(want)
            homs_in = enumerate_morphisms(Z, P)
            got_in = {(compose(pa, h).map, compose(pb, h).map) for h in homs_in}
            want_in = {(f.map, g.map) for f in enumerate_morphisms(Z, A)
                       for g in enumerate_morphisms(Z, B)}
            assert got_in == want_in and len(homs_in) == len(want_in)


# ---------------------------------------------------------------------------
# coproducts
# ---------------------------------------------------------------------------

def test_coproduct_of_squares_is_paper_algebra(mo2):
    C, injs = coproduct([boolean_algebra(2), boolean_algebra(2)])
    assert C.n == 6
    assert is_isomorphic(C, mo2)
    for inj in injs:
        assert check_morphism(inj).ok


def test_coproduct_unit(mo2):
    C, _ = coproduct([mo2, boolean_algebra(1)])
    assert is_isomorphic(C, mo2)
    C2, _ = coproduct([boolean_algebra(1), boolean_algebra(1)])
    assert is_isomorphic(C2, boolean_algebra(1))


def test_coproduct_cross_summand_never_commeasurable(mo2):
    C, injs = coproduct([mo2, boolean_algebra(2)])
    f, g = injs
    for a in mo2.nontrivial():
        for b in boolean_algebra(2).nontrivial():
            assert not C.comm_pair(f.map[a], g.map[b])


def test_coproduct_universal_property(mo2):
    # morphisms out of the coproduct correspond to pairs of morphisms
    b2 = boolean_algebra(2)
    C, (inj1, inj2) = coproduct([b2, b2])
    Z = boolean_algebra(2)
    homs_c = enumerate_morphisms(C, Z)
    pairs = {(compose(h, inj1).map, compose(h, inj2).map) for h in homs_c}
    expected = {(f.map, g.map)
                for f in enumerate_morphisms(b2, Z)
                for g in enumerate_morphisms(b2, Z)}
    assert pairs == expected
    assert len(homs_c) == len(expected)


def test_coproduct_rejects_degenerate_summand():
    with pytest.raises(DomainError):
        coproduct([trivial_algebra(), boolean_algebra(2)])


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_product_of_squares_is_sixteen():
    P, projs = product([boolean_algebra(2), boolean_algebra(2)])
    assert is_isomorphic(P, boolean_algebra(4))
    for p in projs:
        assert check_morphism(p).ok


def test_product_with_terminal(mo2):
    P, _ = product([mo2, trivial_algebra()])
    assert is_isomorphic(P, mo2)
    T, _ = product([])
    assert T.n == 1


def test_product_componentwise_commeasurability(mo2):
    P, projs = product([mo2, mo2])
    pa, pb = projs
    for i in range(P.n):
        for j in range(P.n):
            expected = (mo2.comm_pair(pa.map[i], pa.map[j])
                        and mo2.comm_pair(pb.map[i], pb.map[j]))
            assert P.comm_pair(i, j) == expected


def test_product_universal_property(mo2):
    b2 = boolean_algebra(2)
    P, (p1, p2) = product([b2, b2])
    W = boolean_algebra(2)
    homs = enumerate_morphisms(W, P)
    pairs = {(compose(p1, h).map, compose(p2, h).map) for h in homs}
    expected = {(f.map, g.map)
                for f in enumerate_morphisms(W, b2)
                for g in enumerate_morphisms(W, b2)}
    assert pairs == expected
    assert len(homs) == len(expected)


# ---------------------------------------------------------------------------
# equalizers
# ---------------------------------------------------------------------------

def test_equalizer_of_equal_maps_is_domain(mo2):
    f = identity_morphism(mo2)
    E, inc = equalizer(f, f)
    assert E.n == mo2.n


def test_equalizer_fixed_points():
    b2 = boolean_algebra(2)
    swap = PbaMorphism(b2, b2, (0, 2, 1, 3))
    assert check_morphism(swap).ok
    E, inc = equalizer(identity_morphism(b2), swap)
    assert set(inc.map) == {0, 3}


def test_equalizer_trivial_agreement():
    b2 = boolean_algebra(2)
    f = PbaMorphism(b2, b2, (0, 1, 2, 3))
    g = PbaMorphism(b2, b2, (0, 2, 1, 3))
    E, inc = equalizer(f, g)
    assert set(inc.map) == {0, 3}
    assert validate(E).ok


# ---------------------------------------------------------------------------
# Boolean free products
# ---------------------------------------------------------------------------

def test_boolean_coproduct_of_squares():
    b2 = boolean_algebra(2)
    F, kc, kd = boolean_coproduct(b2, b2)
    assert is_isomorphic(F, boolean_algebra(4))


def test_boolean_coproduct_unit():
    D = boolean_algebra(3)
    F, kc, kd = boolean_coproduct(boolean_algebra(1), D)
    assert is_isomorphic(F, D)
    # the injection of D is then an isomorphism
    assert sorted(kd.map) == sorted(range(F.n))


def test_boolean_coproduct_sizes():
    F, _, _ = boolean_coproduct(boolean_algebra(2), boolean_algebra(3))
    assert F.n == 64  # six atoms


def test_boolean_coproduct_universal_property():
    # free product: morphism pairs (C -> Z, D -> Z) with Z Boolean correspond
    # to morphisms out of C + D
    C = D = boolean_algebra(2)
    F, kc, kd = boolean_coproduct(C, D)
    Z = boolean_algebra(2)
    homs = enumerate_morphisms(F, Z)
    pairs = {(compose(h, kc).map, compose(h, kd).map) for h in homs}
    expected = {(f.map, g.map)
                for f in enumerate_morphisms(C, Z)
                for g in enumerate_morphisms(D, Z)}
    assert pairs == expected and len(homs) == len(expected)


def test_boolean_coproduct_rejects_partial_input(mo2):
    with pytest.raises(DomainError):
        boolean_coproduct(mo2, boolean_algebra(2))


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def test_tensor_unit_law(mo2):
    T = tensor_product(boolean_algebra(1), mo2)
    assert is_isomorphic(T.algebra, mo2)
    T2 = tensor_product(mo2, boolean_algebra(1))
    assert is_isomorphic(T2.algebra, mo2)


def test_tensor_of_squares():
    T = tensor_product(boolean_algebra(2), boolean_algebra(2))
    assert is_isomorphic(T.algebra, boolean_algebra(4))


def test_tensor_kappa_images_commeasurable(mo2):
    b2 = boolean_algebra(2)
    T = tensor_product(mo2, b2)
    for a in mo2.elements():
        for b in b2.elements():
            assert T.algebra.comm_pair(T.kappa_a.map[a], T.kappa_b.map[b])
    # unlike the coproduct, where nontrivial cross pairs never commute
    C, injs = coproduct([mo2, b2])
    assert not C.comm_pair(injs[0].map[2], injs[1].map[1])


def test_tensor_kappa_preserves_structure(mo2):
    T = tensor_product(mo2, boolean_algebra(2))
    assert check_morphism(T.kappa_a).ok
    assert check_morphism(T.kappa_b).ok
    # kappa_a reflects the non-commeasurability of the two blocks
    assert not T.algebra.comm_pair(T.kappa_a.map[2], T.kappa_a.map[4])


def test_tensor_validates(mo2, mo3):
    for A, B in [(mo2, mo2), (mo3, boolean_algebra(2))]:
        T = tensor_product(A, B)
        assert validate(T.algebra).ok


def test_tensor_grid_cutoff_names_its_slot_bound():
    # the grid's objects hold more than 50,000,000 slots: the error names
    # that bound, not the carrier cutoff
    with pytest.raises(SearchCutoffError, match="^tensor grid too large$") as info:
        tensor_product(boolean_algebra(5), boolean_algebra(6))
    assert info.value.limit == colimit._TENSOR_MAX_SLOTS == 50_000_000


# Digests of T(A, B) taken from the construction that united every grid
# object with every object above it and wrote the tables from all of them:
# sha256 of the serialized carrier, then of (kappa_a, kappa_b, atom_pairs),
# each cut to 16 hex digits.
TENSOR_DIGESTS = {
    "bool1-bool1": ("0fe21ba110a55549", "68af5a54ea63866c"),
    "bool1-bool2": ("761066423963dc38", "a85e8e14e49d018c"),
    "bool1-bool3": ("5ccb7f299c53eb94", "a00deb54f54c0ec4"),
    "bool1-mo2": ("91c9a9401d8c2a3a", "023948ce8fb0feb1"),
    "bool1-mo3": ("3b712c6145e5b0d4", "3c2db1c7df932e1d"),
    "bool2-bool1": ("761066423963dc38", "aa6514be9b2ca916"),
    "bool2-bool2": ("e728116f2c8c577d", "cab638be4a6b0ff7"),
    "bool2-bool3": ("cdb7fd9fc9a8fec7", "4485cb84ccc870a0"),
    "bool2-mo2": ("738c77dcfab2a670", "40954d86c9450dcf"),
    "bool2-mo3": ("2658f726f2bbb7b2", "64ac9a4f9c7c3d10"),
    "bool3-bool1": ("5ccb7f299c53eb94", "a423b801d7b35ebc"),
    "bool3-bool2": ("259da0bd33755dd9", "e50c41c7e083d68e"),
    "bool3-bool3": ("43d9422e698b68eb", "1f326aa445851231"),
    "bool3-mo2": ("9766761f6a3fb65a", "e12f0a2c4ec924e1"),
    "bool3-mo3": ("b4ead8117de5ef2b", "d921637e12b757a3"),
    "mo2-bool1": ("91c9a9401d8c2a3a", "7fb76caf80b87b16"),
    "mo2-bool2": ("045ad71ff1a333f8", "7e0d9f8e80ec4ee7"),
    "mo2-bool3": ("d45ba17dd8ff18d5", "826bbe42557fae10"),
    "mo2-mo2": ("bc4c709212362d71", "4d6a3c7ac88ea081"),
    "mo2-mo3": ("4a336f239dac9644", "8e6cfa8ea230ae7f"),
    "mo3-bool1": ("3b712c6145e5b0d4", "07479088c2e1d1cd"),
    "mo3-bool2": ("abd81444b2dede57", "eebad37b86a1f1d7"),
    "mo3-bool3": ("42d8713287a02884", "db0cb0645e09ba54"),
    "mo3-mo2": ("6b6df64e980f2389", "4672740c07c017d5"),
    "mo3-mo3": ("85cd230fc6f68428", "f5243b8adbb842d3"),
    # the square laws T(bool a, bool b) up to 2x4 beyond the pairs above
    "bool1-bool4": ("adf3f6a99230482f", "d30b1b07055053c5"),
    "bool4-bool1": ("adf3f6a99230482f", "d2261cb09746db43"),
    "bool1-bool5": ("227a04540ee8275c", "701d5abcbedec8ac"),
    "bool5-bool1": ("227a04540ee8275c", "bd9141380a2a3018"),
    "bool1-bool6": ("48134c6eeb43e896", "d3ff030179b893ad"),
    "bool6-bool1": ("48134c6eeb43e896", "ce476e7785f13cb6"),
    "bool2-bool4": ("3fcf99cc09189745", "f965d09d1ba5da64"),
}


def _named_carrier(name: str):
    if name.startswith("bool"):
        return boolean_algebra(int(name[4:]))
    return from_orthomodular(mo_lattice(int(name[2:])))


@pytest.mark.parametrize("pair", sorted(TENSOR_DIGESTS))
def test_tensor_product_is_pinned(pair):
    # uniting each object with the maximal objects only and writing the
    # tables from them leaves the classes, their order, the tables, the
    # injections and the decompositions as they were
    A, B = map(_named_carrier, pair.split("-"))
    T = tensor_product(A, B)
    digests = (
        hashlib.sha256(serialize_algebra(T.algebra).encode()).hexdigest()[:16],
        hashlib.sha256(repr((T.kappa_a.map, T.kappa_b.map, T.atom_pairs)).encode()
                       ).hexdigest()[:16])
    assert digests == TENSOR_DIGESTS[pair]


def test_small_carriers_never_import_numpy():
    # the table writer, validation and the colimit check stay in pure
    # Python up to _SMALL_MAX elements, so a process that builds and checks
    # only small carriers loads no numpy
    code = "\n".join([
        "import sys",
        "import pbalg",
        "from pbalg.colimit import verify_colimit",
        "from pbalg.core import boolean_algebra",
        "from pbalg.corpus import generated_corpus",
        "boolean_algebra(5)",
        "for A in sorted(generated_corpus(50, 24), key=lambda A: A.n)[:5]:",
        "    assert verify_colimit(A).ok",
        "sys.exit('numpy' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr


def test_tensor_cells_share_one_int_per_element():
    # each cell of T's tables references the one int object of its element
    # (or UNDEF), as a table built by ndarray.tolist() would not: 512
    # elements, most of them past the interpreter's small-int cache
    T = tensor_product(boolean_algebra(3), boolean_algebra(3)).algebra
    assert T.n == 512
    assert len({id(v) for table in (T.meet, T.join) for row in table for v in row}) <= T.n + 1


def test_tensor_carrier_passes_the_checked_constructor():
    # tensor_product, product, coproduct, paste_blocks and
    # image_factorization build their carriers with _block_algebra without
    # the constructor's range checks; the checked constructor accepts each
    # such carrier, on both sides of the size switch, and gives it back
    # equal.  Above the switch its tables are the writer's arrays, which
    # the rebuilt carrier keeps, and converted from tuple rows they are
    # equal and hash equal
    pairs = list(itertools.product(small_corpus(), repeat=2))
    carriers = [tensor_product(A, B).algebra for A, B in pairs]
    carriers.append(tensor_product(boolean_algebra(2), boolean_algebra(5)).algebra)
    for A, B in pairs:
        carriers += [product([A, B])[0], coproduct([A, B])[0]]
        carriers += [image_factorization(f).image for f in enumerate_morphisms(A, B)[:3]]
    carriers.append(product([boolean_algebra(4), boolean_algebra(4)])[0])
    carriers += [chain_of_triangles(k) for k in (2, 3, 4)]
    # 40 four-atom blocks in a chain, consecutive ones sharing an atom
    carriers.append(paste_blocks(block_hypergraph(
        [[f"a{3 * i + j}" for j in range(4)] for i in range(40)])))
    assert carriers[-1].n == 484
    assert {C.n > _SMALL_MAX for C in carriers} == {False, True}
    for C in carriers:
        D = dataclasses.replace(C)
        assert D == C
        if C.n > _SMALL_MAX:
            assert isinstance(C.meet, Rows) and (D.meet, D.join) == (C.meet, C.join)
            E = dataclasses.replace(C, meet=tuple(C.meet), join=tuple(C.join))
            assert isinstance(E.meet, Rows) and E.meet.array is not C.meet.array
            assert E == C and hash(E) == hash(C)


def _tables_or_error(build, n, objects):
    try:
        return build(n, objects)
    except AmalgamError as e:
        return e


def test_block_tables_match_cell_walk():
    # seeded element lists of up to three blocks on small pools of
    # elements, placed on carriers of 2-8 elements or padded past
    # _SMALL_MAX so that both writers run.  Three in four lists keep
    # negation consistent by one involution, so that meet and join
    # conflicts arise, within a block too; one in four blocks is instead the
    # image of a Boolean block under a Boolean homomorphism, with repeated
    # elements, as image_factorization passes them.  The writer gives the
    # walk's tables, with comm defined exactly where they are, or raises
    # where the walk raises: below the switch naming the same table, above
    # it possibly another of several conflicting ones.  Above the switch its
    # tables are Rows over the scattered arrays, equal to the walk's
    rng = random.Random(23)
    seen = set()
    for _ in range(1200):
        pool = rng.randint(2, 8)
        n = pool if rng.random() < 0.5 else pool + rng.randint(_SMALL_MAX - 1, 40)
        place = rng.sample(range(n), pool)
        order = rng.sample(range(pool), pool)
        neg = list(range(pool))
        for x, y in zip(order[::2], order[1::2]):
            neg[x], neg[y] = y, x
        objects = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(0, 3)
            if rng.random() < 0.25:
                # atom i of the block goes to the target atoms it owns
                r = rng.randint(0, k)
                target = rng.sample(range(pool), 1 << r) if 1 << r <= pool else None
                if target is not None:
                    image = [0] * k
                    for j in range(r):
                        image[rng.randrange(k)] |= 1 << j
                    local = [target[functools.reduce(
                        int.__or__, (image[i] for i in range(k) if m >> i & 1), 0)]
                        for m in range(1 << k)]
                    objects.append([place[e] for e in local])
                    continue
            local = [rng.randrange(pool) for _ in range(1 << k)]
            if rng.random() < 0.75:
                for m in range((1 << k) // 2):
                    local[(1 << k) - 1 - m] = neg[local[m]]
            objects.append([place[e] for e in local])
        got = _tables_or_error(block_tables, n, objects)
        want = _tables_or_error(walk_block_tables, n, objects)
        large = n > _SMALL_MAX
        if isinstance(want, AmalgamError):
            assert isinstance(got, AmalgamError), objects
            if not large:
                assert str(got).split()[0] == str(want).split()[0], objects
        else:
            neg_t, comm, meet, join = got
            assert (neg_t, tuple(meet), tuple(join)) == want, objects
            assert comm == tuple(sum(1 << b for b, v in enumerate(row) if v != UNDEF)
                                 for row in want[1]), objects
            if large:
                assert [t.array.tolist() for t in (meet, join)] == [
                    list(map(list, table)) for table in want[1:]], objects
            else:
                assert type(meet) is type(join) is tuple
        seen.add((large, str(want).split()[0] if isinstance(want, AmalgamError) else "tables"))
    # the sample reaches every outcome of the walk on both sides of the switch
    assert seen == {(large, outcome) for large in (False, True)
                    for outcome in ("tables", "negation", "meet", "join")}


# ---------------------------------------------------------------------------
# factorization criterion
# ---------------------------------------------------------------------------

def test_factorization_into_boolean_target_always_exists(mo2):
    b2 = boolean_algebra(2)
    T = tensor_product(mo2, b2)
    for f in enumerate_morphisms(mo2, b2)[:4]:
        for g in enumerate_morphisms(b2, b2)[:3]:
            r = tensor_factorization(f, g, T=T)
            assert r.factorizes
            assert compose(r.morphism, T.kappa_a).map == f.map
            assert compose(r.morphism, T.kappa_b).map == g.map


def test_factorization_refused_for_coproduct_injections(mo2):
    b2 = boolean_algebra(2)
    C, (f, g) = coproduct([mo2, b2])
    r = tensor_factorization(f, g)
    assert not r.factorizes
    a, b = r.witness
    assert not C.comm_pair(f.map[a], g.map[b])


def test_factorization_codiagonal_unique():
    b2 = boolean_algebra(2)
    f = identity_morphism(b2)
    T = tensor_product(b2, b2)
    r = tensor_factorization(f, f, T=T)
    assert r.factorizes
    # exhaustive search: the codiagonal is the only morphism restricting to
    # the identity along both injections
    matches = [h for h in enumerate_morphisms(T.algebra, b2)
               if compose(h, T.kappa_a).map == f.map
               and compose(h, T.kappa_b).map == f.map]
    assert len(matches) == 1
    assert matches[0].map == r.morphism.map


def test_factorization_iff_criterion_small(mo2):
    # exhaustive over one instructive pair of algebras
    b2 = boolean_algebra(2)
    T = tensor_product(mo2, mo2)
    for f in enumerate_morphisms(mo2, mo2):
        for g in enumerate_morphisms(mo2, mo2):
            condition = all(
                mo2.comm_pair(f.map[a], g.map[b])
                for a in mo2.elements() for b in mo2.elements())
            r = tensor_factorization(f, g, T=T)
            assert r.factorizes == condition
