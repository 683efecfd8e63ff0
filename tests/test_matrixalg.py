"""Tests for the matrix fragment: normality, commutative subalgebra
generation, spectral projections, support projections, the projection
bridge, mediating maps, ray ingestion, amplification."""

from __future__ import annotations

import dataclasses
import itertools
import random

import numpy as np
import pytest
from helpers import walk_projection_closure
from test_stone import _peres33_rays

from pbalg import matrixalg
from pbalg.core import (
    boolean_algebra,
    from_orthomodular,
    is_isomorphic,
    mo_lattice,
    validate,
)
from pbalg.corpus import CABELLO_RAYS, PERES_RAYS
from pbalg.data import corpus_path
from pbalg.errors import (
    AmbiguousSpectrumError,
    CoconeError,
    DomainError,
    SearchCutoffError,
    StructuralError,
)
from pbalg.formats import parse_matrix_seed_text
from pbalg.matrixalg import (
    MatrixSeed,
    amplify,
    commeasurable,
    generated_commutative_algebra,
    is_normal,
    joint_spectral_projections,
    mediating_star_map,
    operator_norm,
    proj_commutes_with_subalgebra_functor,
    projection_algebra,
    projection_supremum,
    rays_to_pba,
    selfadjoint_parts,
    spectral_projections,
    star_morphism_defect,
    support_projection,
)
from pbalg.stone import is_kochen_specker

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])


def random_unitary(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(x)
    return q @ np.diag(np.diagonal(r) / np.abs(np.diagonal(r)))


def random_normal(rng, dim, zero_eigs=0):
    """Normal matrix with eigenvalues either exactly zero or well away from
    zero, conjugated by a random unitary."""
    u = random_unitary(rng, dim)
    mags = rng.uniform(0.5, 2.0, size=dim)
    phases = np.exp(2j * np.pi * rng.uniform(size=dim))
    eigs = mags * phases
    eigs[:zero_eigs] = 0.0
    return u @ np.diag(eigs) @ u.conj().T


# ---------------------------------------------------------------------------
# scalars: normality, parts, commeasurability
# ---------------------------------------------------------------------------

def test_is_normal_basics():
    assert is_normal(np.eye(3))
    assert not is_normal([[0, 1], [0, 0]])
    assert is_normal(SZ) and is_normal(SX)
    rng = np.random.default_rng(0)
    u = random_unitary(rng, 4)
    assert is_normal(u)
    h = u + u.conj().T
    assert is_normal(h)


def test_selfadjoint_parts():
    h = np.diag([1.0, 2.0]).astype(complex)
    a1, a2 = selfadjoint_parts(h)
    assert np.allclose(a1, h) and np.allclose(a2, 0)
    a1, a2 = selfadjoint_parts(1j * np.eye(2))
    assert np.allclose(a1, 0) and np.allclose(a2, np.eye(2))
    # direct formula on the rank-1 nilpotent
    a1, a2 = selfadjoint_parts([[0, 1], [0, 0]])
    assert np.allclose(a1, SX / 2)
    assert np.allclose(a2, SY / 2)


def test_selfadjoint_parts_roundtrip_and_uniqueness():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a1, a2 = selfadjoint_parts(a)
        assert np.allclose(a1 + 1j * a2, a, atol=1e-14)
        assert operator_norm(a1 - a1.conj().T) < 1e-12
        assert operator_norm(a2 - a2.conj().T) < 1e-12
        # uniqueness: any self-adjoint pair summing to a equals (a1, a2)
        b1 = a1 + np.diag([0.1, 0, 0, 0])
        assert not np.allclose(b1 + 1j * a2, a)


def test_commeasurable():
    assert commeasurable(np.diag([1.0, 2]), np.diag([3.0, 4]))
    assert not commeasurable(SX, SZ)
    a = np.diag([1 + 1j, 2 - 1j])
    assert commeasurable(a, a.conj().T)
    # non-normal inputs are never commeasurable
    assert not commeasurable([[0, 1], [0, 0]], np.eye(2))


# ---------------------------------------------------------------------------
# generated commutative subalgebras
# ---------------------------------------------------------------------------

def test_generated_algebra_dimensions():
    assert generated_commutative_algebra([], dim=3).algebra_dim() == 1
    assert generated_commutative_algebra([np.diag([1.0, 2, 2])]).algebra_dim() == 2
    C = generated_commutative_algebra([np.diag([1.0, 2, 2]), np.diag([3.0, 3, 4])])
    assert C.algebra_dim() == 3


def test_generated_algebra_rejects_noncommuting():
    with pytest.raises(DomainError):
        generated_commutative_algebra([SZ, SX])


def test_generated_algebra_word_closure_oracle():
    # closure by explicit words in the generators spans the same space
    g1, g2 = np.diag([1.0, 2, 2]).astype(complex), np.diag([3.0, 3, 4]).astype(complex)
    C = generated_commutative_algebra([g1, g2])
    words = [np.eye(3, dtype=complex), g1, g2, g1 @ g1, g1 @ g2, g2 @ g2,
             g1 @ g1 @ g2]
    for w in words:
        assert C.contains(w)


def test_joint_spectral_projections_examples():
    C = generated_commutative_algebra([np.diag([1.0, 2, 2])])
    ps = joint_spectral_projections(C)
    assert sorted(int(round(np.trace(p).real)) for p in ps) == [1, 2]
    assert any(np.allclose(p, np.diag([1.0, 0, 0])) for p in ps)
    C0 = generated_commutative_algebra([], dim=3)
    (p,) = joint_spectral_projections(C0)
    assert np.allclose(p, np.eye(3))
    C3 = generated_commutative_algebra([np.diag([1.0, 2, 2]), np.diag([3.0, 3, 4])])
    assert len(joint_spectral_projections(C3)) == 3


def test_joint_projections_on_conjugated_algebra():
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 4)
    g = u @ np.diag([1.0, 1, 2, 3]) @ u.conj().T
    C = generated_commutative_algebra([g])
    ps = joint_spectral_projections(C)
    assert sorted(int(round(np.trace(p).real)) for p in ps) == [1, 1, 2]
    total = sum(ps)
    assert operator_norm(total - np.eye(4)) < 1e-10


# ---------------------------------------------------------------------------
# support projections
# ---------------------------------------------------------------------------

def test_support_projection_basics():
    assert np.allclose(support_projection(np.zeros((3, 3))), 0)
    assert np.allclose(support_projection(np.diag([2.0, 1, 3])), np.eye(3))
    assert np.allclose(support_projection(np.diag([0.0, 3])), np.diag([0, 1.0]))


def test_support_projection_annihilator_property():
    a = np.diag([0.0, 3.0]).astype(complex)
    C = generated_commutative_algebra([a])
    rp = support_projection(a, context=C)
    # (1-RP)C spans the annihilator {b in C : ab = 0} = diag(*, 0)
    assert np.allclose(rp, np.diag([0, 1.0]))


def test_support_projection_randomized_annihilator():
    rng = np.random.default_rng(8)
    for trial in range(30):
        dim = int(rng.integers(2, 7))
        zeros = int(rng.integers(0, dim))
        a = random_normal(rng, dim, zero_eigs=zeros)
        C = generated_commutative_algebra([a])
        rp = support_projection(a, context=C)
        assert operator_norm(a @ (np.eye(dim) - rp)) < 1e-8
        assert operator_norm(rp @ rp - rp) < 1e-8


def test_support_projection_ambiguity():
    with pytest.raises(AmbiguousSpectrumError):
        support_projection(np.diag([5e-9, 1.0]))


# ---------------------------------------------------------------------------
# projection suprema
# ---------------------------------------------------------------------------

def test_projection_supremum_examples():
    p = np.diag([1.0, 0])
    assert np.allclose(projection_supremum([p, np.eye(2) - p]), np.eye(2))
    assert np.allclose(projection_supremum([], dim=3), 0)
    s = projection_supremum([np.diag([1.0, 0, 0]), np.diag([0.0, 1, 0])])
    assert np.allclose(s, np.diag([1.0, 1, 0]))


def test_projection_supremum_is_least_upper_bound():
    ps = [np.diag([1.0, 0, 0, 0]), np.diag([1.0, 1, 0, 0]), np.diag([0.0, 0, 1, 0])]
    s = projection_supremum(ps)
    for p in ps:
        assert operator_norm(p @ s - p) < 1e-10  # p <= s
    # any commuting upper bound dominates s
    for q in [np.diag([1.0, 1, 1, 0]), np.eye(4)]:
        assert all(operator_norm(p @ q - p) < 1e-10 for p in ps)
        assert operator_norm(s @ q - s) < 1e-10


def test_projection_supremum_rejects_noncommuting():
    p = np.array([[1, 0], [0, 0]], dtype=complex)
    q = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    with pytest.raises(DomainError):
        projection_supremum([p, q])


# ---------------------------------------------------------------------------
# the projection bridge
# ---------------------------------------------------------------------------

def test_spectral_projections_of_single_matrix():
    ps = spectral_projections(SZ)
    assert len(ps) == 2
    assert any(np.allclose(p, np.diag([1.0, 0])) for p in ps)
    assert np.allclose(sum(ps), np.eye(2))
    # a genuinely complex normal matrix still splits cleanly
    ps2 = spectral_projections(np.diag([1 + 1j, 2 - 1j, 1 + 1j]))
    assert sorted(int(round(np.trace(p).real)) for p in ps2) == [1, 2]


def test_projection_algebra_single_generator():
    pa = projection_algebra(MatrixSeed(dim=3, generators=[np.diag([1.0, 2, 2])]))
    assert is_isomorphic(pa.algebra, boolean_algebra(2))
    ranks = sorted(int(round(np.trace(m).real)) for m in pa.projections)
    assert ranks == [0, 1, 2, 3]


def test_projection_algebra_pauli_pair_is_paper_algebra():
    pa = projection_algebra(MatrixSeed(dim=2, generators=[SZ, SX]))
    assert pa.algebra.n == 6
    assert is_isomorphic(pa.algebra, from_orthomodular(mo_lattice(2)))


def test_projection_algebra_scalars_only():
    pa = projection_algebra(MatrixSeed(dim=2, generators=[]))
    assert pa.algebra.n == 2


PROJECTION_SEEDS = [
    MatrixSeed(dim=2, generators=[SZ, SX]),
    MatrixSeed(dim=3, generators=[np.diag([1.0, 2, 2]), np.diag([3.0, 3, 4])]),
    MatrixSeed(dim=4, generators=[np.kron(SZ, np.eye(2)), np.kron(SX, np.eye(2))]),
]


def test_projection_algebra_validates():
    for seed in PROJECTION_SEEDS:
        pa = projection_algebra(seed)
        assert validate(pa.algebra).ok


def test_proj_and_subalgebra_functors_commute():
    seeds = [
        MatrixSeed(dim=2, generators=[SZ, SX]),
        MatrixSeed(dim=3, generators=[np.diag([1.0, 2, 2])]),
        MatrixSeed(dim=2, generators=[]),
        MatrixSeed(dim=3, generators=[np.diag([1.0, 2, 3])]),
        MatrixSeed(dim=4, generators=[np.kron(SZ, np.eye(2))]),
    ]
    for seed in seeds:
        assert proj_commutes_with_subalgebra_functor(projection_algebra(seed))


# ---------------------------------------------------------------------------
# mediating maps
# ---------------------------------------------------------------------------

def diag_seed(dim=3):
    return MatrixSeed(dim=dim, generators=[
        np.diag(np.arange(1.0, dim + 1)).astype(complex)])


def test_mediating_identity_legs():
    seed = diag_seed()
    m = mediating_star_map(seed, lambda C, a: a)
    x = np.diag([1 + 2j, 3 - 1j, 0j])
    assert operator_norm(m(x) - x) < 1e-12


def test_mediating_conjugation_legs():
    rng = np.random.default_rng(11)
    for trial in range(5):
        dim = int(rng.integers(2, 6))
        u = random_unitary(rng, dim)
        seed = MatrixSeed(dim=dim, generators=[
            np.diag(rng.integers(1, 4, size=dim).astype(float)).astype(complex)])
        m = mediating_star_map(seed, lambda C, a, u=u: u @ a @ u.conj().T)
        x = random_normal(rng, dim)
        assert operator_norm(m(x) - u @ x @ u.conj().T) < 1e-10


def test_mediating_character_legs():
    seed = diag_seed()
    m = mediating_star_map(seed, lambda C, a: np.array([[a[0, 0]]]))
    assert np.allclose(m(np.diag([5.0, 1, 2])), [[5.0]])
    assert np.allclose(m(np.diag([2j, 0, 0])), [[2j]])


def test_mediating_is_star_morphism_numerically():
    rng = np.random.default_rng(13)
    u = random_unitary(rng, 3)
    seed = diag_seed()
    m = mediating_star_map(seed, lambda C, a: u @ a @ u.conj().T)
    pairs = [(np.diag([1.0, 2, 3]).astype(complex), np.diag([4.0, 5, 6]).astype(complex)),
             (np.diag([1j, 2, 0]), np.diag([3.0, 1 - 1j, 2]))]
    assert star_morphism_defect(m, pairs) < 1e-10


def test_mediating_rejects_incoherent_cocone():
    seed = MatrixSeed(dim=3, generators=[
        np.diag([1.0, 2, 2]).astype(complex), np.diag([3.0, 3, 4]).astype(complex)])

    def bad_leg(C, a):
        # scales differently depending on the subalgebra dimension: legs
        # cannot agree along inclusions
        return a * C.algebra_dim()

    with pytest.raises(CoconeError):
        mediating_star_map(seed, bad_leg)


# ---------------------------------------------------------------------------
# rays
# ---------------------------------------------------------------------------

def test_cabello_rays_block_structure():
    ra = rays_to_pba(list(CABELLO_RAYS), 4)
    assert len(ra.blocks) == 9
    assert all(len(b) == 4 for b in ra.blocks)
    counts = {}
    for b in ra.blocks:
        for lab in b:
            counts[lab] = counts.get(lab, 0) + 1
    assert set(counts.values()) == {2}  # each ray in exactly two bases
    assert validate(ra.algebra).ok


def test_two_disjoint_bases_give_paper_algebra():
    ra = rays_to_pba([[1, 0], [0, 1], [1, 1], [1, -1]], 2)
    assert is_isomorphic(ra.algebra, from_orthomodular(mo_lattice(2)))


def test_single_basis_gives_powerset():
    ra = rays_to_pba([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    assert is_isomorphic(ra.algebra, boolean_algebra(3))


def test_ray_pasting_agreement_on_loop_free_inputs():
    # where orthogonality lives entirely inside blocks, the projection
    # closure and the combinatorial pasting agree
    from pbalg.core import block_hypergraph, paste_blocks
    ra = rays_to_pba([[1, 0], [0, 1], [1, 1], [1, -1]], 2)
    pasted = paste_blocks(block_hypergraph([["r0", "r1"], ["r2", "r3"]]))
    assert is_isomorphic(ra.algebra, pasted)


def test_rays_without_complete_basis_rejected():
    with pytest.raises(DomainError):
        rays_to_pba([[1, 0, 0], [0, 1, 0]], 3)  # no third direction
    with pytest.raises(DomainError, match="no complete"):
        rays_to_pba([[1, 0], [1, 1]], 2)


def test_peres_rays_are_kochen_specker():
    # bases of the 24-ray set overlap in two rays; as contexts they need no
    # Greechie condition, and the closure has no two-valued state
    ra = rays_to_pba(list(PERES_RAYS), 4)
    assert ra.algebra.n == 140
    assert len(ra.blocks) == 24
    assert is_kochen_specker(ra.algebra)


def test_non_finite_rays_rejected():
    with pytest.raises(StructuralError, match="ray 2 has non-finite entries"):
        rays_to_pba([[1, 0], [0, 1], [float("nan"), 1]], 2)
    with pytest.raises(StructuralError, match="ray 0 has non-finite entries"):
        rays_to_pba([[complex(0, float("inf"))]], 1)
    with pytest.raises(DomainError, match="ray 2 has a norm too large"):
        rays_to_pba([[1, 0], [0, 1], [1e308, 1e308]], 2)


def test_assert_gap_reports_first_close_pair():
    # two near-duplicate pairs, (0, 2) and (1, 3): the first in
    # combinations order is named, with its Frobenius distance
    pool = matrixalg._ProjectionPool(tol=0.01)
    for diag in ([1, 0], [0, 1], [1, 0.05], [0, 1.02]):
        pool.add(np.diag(np.array(diag, dtype=complex)))
    with pytest.raises(StructuralError) as info:
        pool.assert_gap()
    assert str(info.value) == ("projections 0 and 2 are 5.00e-02 apart, inside "
                               "the deduplication gap 1.00e-01")
    pool.mats[2:] = [np.diag(np.array([0.5, 0.5], dtype=complex))]
    pool.assert_gap()


@pytest.mark.parametrize("budget", [139, 140])
def test_closure_budget_boundary(monkeypatch, budget):
    # Cabello-18 closes to exactly 140 projections
    monkeypatch.setattr(matrixalg, "_CLOSURE_MAX_PROJECTIONS", budget)
    if budget < 140:
        with pytest.raises(SearchCutoffError) as err:
            rays_to_pba(list(CABELLO_RAYS), 4)
        assert err.value.limit == budget
    else:
        assert rays_to_pba(list(CABELLO_RAYS), 4).algebra.n == 140


def _ray_closure_input(rays, dim):
    """The closure input rays_to_pba builds from pairwise non-parallel rays:
    normalized rank-1 projections labelled r<i>."""
    vecs = [np.asarray(r, dtype=complex) for r in rays]
    seeds = [np.outer(v, v.conj()) for v in (v / np.linalg.norm(v) for v in vecs)]
    return seeds, dim, matrixalg.STRUCT_TOL, [f"r{i}" for i in range(len(rays))]


def _complete_bases(rays, dim):
    def orth(a, b):
        return abs(sum(x * y for x, y in zip(rays[a], rays[b]))) < 1e-9

    return [t for t in itertools.combinations(range(len(rays)), dim)
            if all(orth(a, b) for a, b in itertools.combinations(t, 2))]


def _seeded_unions(count: int, seed: int):
    """``count`` unions of two to six complete bases of Cabello-18, Peres-24
    or Peres-33, drawn from one seeded generator."""
    families = [(4, [tuple(map(float, r)) for r in CABELLO_RAYS]),
                (4, [tuple(map(float, r)) for r in PERES_RAYS]),
                (3, _peres33_rays())]
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        dim, rays = rng.choice(families)
        bases = _complete_bases(rays, dim)
        chosen = sorted(set().union(*rng.sample(bases, rng.randint(2, 6))))
        out.append(_ray_closure_input([rays[i] for i in chosen], dim))
    return out


def _matrix_closure_input(seed: MatrixSeed):
    base = [p for g in seed.generators for p in spectral_projections(g, seed.tol)]
    return base, seed.dim, seed.tol, ()


def _closure_inputs():
    with open(corpus_path("pauli_zx.mseed"), encoding="utf-8") as fh:
        pauli_zx = parse_matrix_seed_text(fh.read())
    yield "cabello18", _ray_closure_input(CABELLO_RAYS, 4)
    yield "peres24", _ray_closure_input(PERES_RAYS, 4)
    yield "peres33", _ray_closure_input(_peres33_rays(), 3)
    for k, args in enumerate(_seeded_unions(20, seed=2025)):
        yield f"union{k:02d}", args
    yield "pauli_zx", _matrix_closure_input(pauli_zx)
    for k, seed in enumerate(PROJECTION_SEEDS):
        yield f"seed{k}", _matrix_closure_input(seed)
    yield "dim0", _matrix_closure_input(MatrixSeed(dim=0, generators=[]))


def test_closure_matches_pair_walk(monkeypatch):
    # the stacked commutator test adds each turn's results in the pair
    # walk's order, so the pool holds the same keys at the same indices
    # (which decides where the cutoff fires), and the canonical order,
    # labels, tables and projections agree with the walk's
    pools = []
    assert_gap = matrixalg._ProjectionPool.assert_gap

    def recording_assert_gap(pool):
        pools.append(list(pool.keys))
        assert_gap(pool)

    monkeypatch.setattr(matrixalg._ProjectionPool, "assert_gap", recording_assert_gap)
    for name, args in _closure_inputs():
        A, mats, seeds = matrixalg._projection_closure(*args)
        W, walk_mats, walk_seeds = walk_projection_closure(*args)
        assert pools[-2] == pools[-1], name
        for field in dataclasses.fields(A):
            assert getattr(A, field.name) == getattr(W, field.name), (name, field.name)
        assert seeds == walk_seeds, name
        assert matrixalg._keys(np.stack(mats)) == matrixalg._keys(np.stack(walk_mats)), name


def test_parallel_rays_deduplicated():
    ra = rays_to_pba([[1, 0], [2, 0], [0, 1], [1, 1], [-1, -1], [1, -1]], 2)
    assert len(ra.ray_elements) == 4


# ---------------------------------------------------------------------------
# amplification
# ---------------------------------------------------------------------------

def test_amplify_examples():
    assert np.allclose(amplify(np.eye(2), 2), np.eye(4))
    assert np.allclose(amplify(SZ, 2), np.diag([1.0, 1, -1, -1]))


def test_amplify_preserves_and_reflects_commutation():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = random_normal(rng, 3)
        b = random_normal(rng, 3)
        assert commeasurable(amplify(a, 2), amplify(b, 2)) == commeasurable(a, b)
    assert is_normal(amplify(random_normal(rng, 3), 3))
