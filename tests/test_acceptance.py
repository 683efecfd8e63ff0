"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.

Criteria cover: colimit universality over the generated corpus, the
subalgebra poset structure laws, the block-collapse counterexample, the
Stone extension, Kochen-Specker detection with the bundled 18-ray set,
tensor products with the exhaustive factorization criterion, Bohrification
frames with exhaustive preservation sweeps, the equivalence of the two
commeasurability-reflection formulations, the matrix bridge, and
functoriality of the frame and limit constructions."""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from helpers import point_family, reflects_commeasurability_by_diagram, tensor_iff_exhaustive

from pbalg.core import (
    boolean_algebra,
    check_morphism,
    compose,
    enumerate_morphisms,
    generated_subalgebra,
    identity_morphism,
    is_isomorphic,
    mo_lattice,
)
from pbalg.core import _lattice_tables
from pbalg.colimit import tensor_product, verify_colimit
from pbalg.corpus import (
    CABELLO_RAYS,
    composable_morphism_pairs,
    generated_corpus,
    mo2_algebra,
    mo3_algebra,
    paper_counterexample_morphism,
    small_corpus,
)
from pbalg.bohr import BohrFrame, FrameMap, reflects_commeasurability
from pbalg.poset import boolean_subalgebras, structure_report
from pbalg.stone import (
    boolean_reflection,
    coproduct_stays_kochen_specker,
    is_kochen_specker,
    limit_action,
    stone_limit,
    stone_spectrum,
)
from pbalg.matrixalg import (
    MatrixSeed,
    generated_commutative_algebra,
    mediating_star_map,
    operator_norm,
    proj_commutes_with_subalgebra_functor,
    projection_algebra,
    rays_to_pba,
    support_projection,
)


def _announce(number: int, name: str, detail: str):
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def corpus():
    return generated_corpus(count=50, max_size=24)


def test_criterion_01_colimit_universality(corpus):
    started = time.perf_counter()
    assert len(corpus) >= 50
    assert all(A.n <= 24 for A in corpus)
    cocones = 0
    for A in corpus:
        report = verify_colimit(A, max_cocones_per_target=4, seed=0,
                                max_apex=16)
        assert report.ok, f"colimit verification failed on a {A.n}-element algebra"
        cocones += report.cocones_checked
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s, budget is 60s"
    _announce(1, "colimit-universality",
              f"{len(corpus)} algebras, {cocones} cocones, {elapsed:.1f}s")


def test_criterion_02_subalgebra_poset_structure(corpus):
    for A in corpus:
        P = boolean_subalgebras(A)
        rep = structure_report(P)
        assert rep.least == frozenset({A.zero, A.one})
        expected_atoms = {frozenset(generated_subalgebra(A, [a]))
                          for a in A.nontrivial()}
        assert set(rep.atoms) == expected_atoms
        for member in rep.atoms:
            assert len(member) == 4
        assert rep.is_filtered == A.is_boolean()
        if rep.is_filtered:
            assert rep.maximum == frozenset(range(A.n))
    _announce(2, "subalgebra-poset-structure",
              f"least/atoms/filtered exact on {len(corpus)} algebras")


def test_criterion_03_counterexample_map():
    m = paper_counterexample_morphism()
    A, B = m.dom, m.cod
    assert check_morphism(m).ok
    # lattice meet in the orthomodular source: the two block generators meet
    # at 0, but their images share a block and meet at the image atom
    L = mo_lattice(2)
    zero, one, lmeet, _ = _lattice_tables(L)
    a, b = 2, 4
    assert m.map[lmeet[a][b]] == B.zero
    image_meet = B.meet[m.map[a]][m.map[b]]
    assert image_meet == m.map[a] != B.zero
    # the subalgebra poset of the source is exactly the least member plus the
    # two blocks
    P = boolean_subalgebras(A)
    assert set(P.members) == {frozenset({0, 1}), frozenset({0, 1, 2, 3}),
                              frozenset({0, 1, 4, 5})}
    _announce(3, "block-collapse-counterexample",
              "morphism passes, lattice meet broken, poset exact")


def test_criterion_04_stone_extension():
    for k in (0, 1, 2, 3, 4):
        A = boolean_algebra(k)
        valuations = stone_limit(A)
        points = stone_spectrum(A, frozenset(A.elements())).points if k else ()
        if k == 0:
            assert valuations == ()
            continue
        assert len(valuations) == len(points) == k
        top = frozenset(A.elements())
        P = boolean_subalgebras(A)
        # bijection compatible with evaluation: the limit point at atom p
        # values x at 1 exactly when p lies below x
        seen = set()
        for v in valuations:
            p = point_family(P, v)[top]
            seen.add(p)
            for x in A.elements():
                assert v[x] == (1 if A.meet[p][x] == p else 0)
        assert seen == set(points)
    _announce(4, "stone-extension", "limit = spectrum up to 2^4, exact")


def test_criterion_05_kochen_specker():
    started = time.perf_counter()
    ra = rays_to_pba(list(CABELLO_RAYS), 4)
    assert stone_limit(ra.algebra) == ()
    assert is_kochen_specker(ra.algebra)
    ks_time = time.perf_counter() - started
    assert ks_time < 10.0, f"18-ray search took {ks_time:.1f}s, budget is 10s"

    assert len(stone_limit(mo2_algebra())) == 4

    others = [boolean_algebra(1), boolean_algebra(2), boolean_algebra(3),
              mo2_algebra(), mo3_algebra()]
    for B in others:
        assert coproduct_stays_kochen_specker(ra.algebra, B)
    refl = boolean_reflection(ra.algebra)
    assert refl.reflection.n == 1
    _announce(5, "kochen-specker",
              f"18-ray limit empty in {ks_time:.1f}s, |K(mo2)| = 4, "
              f"coproduct ideal vs {len(others)} summands")


def test_criterion_06_tensor():
    # unit law
    for A in [mo2_algebra(), boolean_algebra(2), mo3_algebra()]:
        T = tensor_product(boolean_algebra(1), A)
        assert is_isomorphic(T.algebra, A)
    # the square of squares
    T22 = tensor_product(boolean_algebra(2), boolean_algebra(2))
    assert is_isomorphic(T22.algebra, boolean_algebra(4))
    # factorization criterion, exhaustive over all morphism pairs between
    # small corpus algebras
    algs = small_corpus()
    pairs = positives = 0
    for A, B in itertools.product(algs, repeat=2):
        T = tensor_product(A, B)
        for Z in algs:
            stats = tensor_iff_exhaustive(A, B, Z, T=T)
            pairs += stats["pairs"]
            positives += stats["positive"]
    _announce(6, "tensor-product",
              f"unit and square laws, iff criterion over {pairs} morphism "
              f"pairs ({positives} factorizations verified)")


def test_criterion_07_bohrification():
    started = time.perf_counter()
    mo2 = mo2_algebra()
    frame = BohrFrame(mo2)
    first = frame.elements()
    second = frame.elements_recursive()
    assert len(first) == len(second) == 17
    assert first == second

    algs = small_corpus()
    frames = [BohrFrame(A) for A in algs]
    elements = [fr.elements() for fr in frames]
    for fr, elems in zip(frames, elements):
        fr.check_frame_laws(elems)

    total = reflecting = 0
    # preservation of meets is only proven sufficient for reflecting
    # morphisms; for the others the outcome is recorded, not asserted
    nonreflecting_meet_ok = nonreflecting_meet_broken = 0
    meet_witness_found = False
    for (a, A), (b, B) in itertools.product(enumerate(algs), repeat=2):
        for f in enumerate_morphisms(A, B):
            total += 1
            rep = FrameMap(f, src=frames[a], dst=frames[b]).report()
            assert rep.preserves_top, "top not preserved"
            assert rep.preserves_joins, "joins not preserved"
            if reflects_commeasurability(f):
                reflecting += 1
                assert rep.preserves_binary_meets, \
                    "meet preservation failed for a reflecting morphism"
            elif rep.preserves_binary_meets:
                nonreflecting_meet_ok += 1
            else:
                nonreflecting_meet_broken += 1
    m = paper_counterexample_morphism()
    src, dst = BohrFrame(m.dom), BohrFrame(m.cod)
    rep = FrameMap(m, src=src, dst=dst).report()
    assert not rep.preserves_binary_meets and rep.meet_witness is not None
    F, G, j = rep.meet_witness
    # re-check on freshly built frames: the bit layout is deterministic
    fm = FrameMap(m)
    lhs = fm(fm.src.meet(F, G))
    rhs = fm.dst.meet(fm(F), fm(G))
    assert fm.dst.opens(lhs, j) != fm.dst.opens(rhs, j)
    meet_witness_found = True

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 7 took {elapsed:.1f}s, budget is 120s"
    assert meet_witness_found
    _announce(7, "bohrification",
              f"|S| = 17 twice, frame laws on {len(algs)} carriers, "
              f"{total} morphisms swept ({reflecting} reflecting; of the "
              f"rest, {nonreflecting_meet_broken} break meets and "
              f"{nonreflecting_meet_ok} happen to preserve them), "
              f"witness found, {elapsed:.1f}s")


def test_criterion_08_reflection_equivalence():
    # reflects_commeasurability reads pulled-back comm rows; the diagram
    # formulation in tests/helpers.py is computed independently, and the
    # two must agree on every morphism between small corpus algebras and on
    # the paper's map, which does not reflect
    algs = small_corpus()
    maps = [f for A, B in itertools.product(algs, repeat=2)
            for f in enumerate_morphisms(A, B)]
    maps.append(paper_counterexample_morphism())
    disagreements = sum(reflects_commeasurability(f)
                        != reflects_commeasurability_by_diagram(f) for f in maps)
    assert disagreements == 0
    assert not reflects_commeasurability(maps[-1])
    _announce(8, "reflection-equivalence",
              f"both formulations agree on {len(maps)} morphisms")


def test_criterion_09_matrix_bridge():
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    pa = projection_algebra(MatrixSeed(dim=2, generators=[sz, sx]))
    assert is_isomorphic(pa.algebra, mo2_algebra())

    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    seeds = [
        MatrixSeed(dim=2, generators=[sz, sx]),
        MatrixSeed(dim=2, generators=[]),
        MatrixSeed(dim=2, generators=[sz]),
        MatrixSeed(dim=3, generators=[np.diag([1.0, 2, 2]).astype(complex)]),
        MatrixSeed(dim=3, generators=[np.diag([1.0, 2, 2]).astype(complex),
                                      np.diag([3.0, 3, 4]).astype(complex)]),
        MatrixSeed(dim=3, generators=[np.diag([1.0, 2, 3]).astype(complex)]),
        MatrixSeed(dim=4, generators=[np.kron(sz, np.eye(2))]),
        MatrixSeed(dim=4, generators=[np.kron(sz, np.eye(2)),
                                      np.kron(np.eye(2), sx)]),
        MatrixSeed(dim=4, generators=[np.kron(sz, np.eye(2)),
                                      np.kron(sx, np.eye(2))]),
        MatrixSeed(dim=2, generators=[h @ sz @ h.conj().T]),
    ]
    assert len(seeds) == 10
    for seed in seeds:
        assert proj_commutes_with_subalgebra_functor(projection_algebra(seed))

    rng = np.random.default_rng(20260811)
    checked = 0
    while checked < 100:
        dim = int(rng.integers(2, 7))
        zeros = int(rng.integers(0, dim))
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        u, r = np.linalg.qr(x)
        u = u @ np.diag(np.diagonal(r) / np.abs(np.diagonal(r)))
        eigs = rng.uniform(0.5, 2.0, size=dim) * np.exp(
            2j * np.pi * rng.uniform(size=dim))
        eigs[:zeros] = 0.0
        a = u @ np.diag(eigs) @ u.conj().T
        C = generated_commutative_algebra([a])
        rp = support_projection(a, context=C)  # annihilator property checked
        assert operator_norm(a @ (np.eye(dim) - rp)) <= 1e-8
        checked += 1

    conj_checked = 0
    while conj_checked < 20:
        dim = int(rng.integers(2, 6))
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        u, r = np.linalg.qr(x)
        u = u @ np.diag(np.diagonal(r) / np.abs(np.diagonal(r)))
        seed = MatrixSeed(dim=dim, generators=[
            np.diag(rng.integers(1, 4, size=dim).astype(float)).astype(complex)])
        m = mediating_star_map(seed, lambda C, a, u=u: u @ a @ u.conj().T)
        probe = np.diag(rng.integers(-3, 4, size=dim).astype(float)) \
            + 1j * np.diag(rng.integers(-3, 4, size=dim).astype(float))
        assert operator_norm(m(probe) - u @ probe @ u.conj().T) <= 1e-10
        conj_checked += 1

    _announce(9, "matrix-bridge",
              "pauli pair matches the paper algebra, functors commute on 10 "
              "seeds, 100 support projections, 20 conjugation cocones")


def test_criterion_10_functoriality():
    pairs = composable_morphism_pairs(limit=20)
    assert len(pairs) == 20
    # the frame action of the identity is the identity
    mo2 = mo2_algebra()
    frames = {mo2: BohrFrame(mo2)}
    for f, g in pairs:
        for X in (f.dom, f.cod, g.cod):
            if X not in frames:
                frames[X] = BohrFrame(X)
    fm = FrameMap(identity_morphism(mo2), src=frames[mo2], dst=frames[mo2])
    for F in frames[mo2].elements():
        assert fm(F) == F
    for f, g in pairs:
        src, mid, dst = (frames[X] for X in (f.dom, f.cod, g.cod))
        sf = FrameMap(f, src=src, dst=mid)
        sg = FrameMap(g, src=mid, dst=dst)
        sgf = FrameMap(compose(g, f), src=src, dst=dst)
        for F in src.elements():
            assert sgf(F) == sg(sf(F))
        # the limit acts contravariantly and compositionally
        act_f = limit_action(f)
        act_g = limit_action(g)
        act_gf = limit_action(compose(g, f))
        assert set(act_gf) == set(act_g)
        for val in act_gf:
            assert act_gf[val] == act_f[act_g[val]]
    _announce(10, "functoriality",
              f"frame and limit actions compose on {len(pairs)} pairs")
