"""Finite-dimensional fragments of matrix partial C*-algebras.

Normal complex matrices with commutation as commeasurability: commutative
*-subalgebra generation, joint spectral projections, support projections,
projection suprema, the bridge from projection families to partial Boolean
algebras, mediating maps for cocones of *-morphisms, and ray-set ingestion
for Kochen-Specker pipelines.

The subalgebra diagram of a matrix algebra is infinite; everything here acts
on the fragment generated by the seed's spectral projections and subsets of
generators (the "enumerated fragment").  Default tolerances: 1e-9 for
structural predicates, 1e-8 for derived equalities; projections are
deduplicated by norm-distance clustering with the nearest distinct pair
required to exceed ten times the structural tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AmbiguousSpectrumError,
    CoconeError,
    DomainError,
    InvalidAlgebraError,
    SearchCutoffError,
    StructuralError,
)
from .core import (
    PartialBooleanAlgebra,
    bron_kerbosch,
    make_pba,
    maximal_cliques,
    validate,
)
from .poset import _set_partitions, boolean_subalgebras

STRUCT_TOL = 1e-9
DERIVED_TOL = 1e-8
# relative eigenvalue gap that separates two joint eigenspaces
CLUSTER_TOL = 1e-6


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StructuralError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise StructuralError("matrix has non-finite entries")
    return m


def operator_norm(a) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(_as_matrix(a), 2))


def is_normal(a, tol: float = STRUCT_TOL) -> bool:
    m = _as_matrix(a)
    return operator_norm(m @ m.conj().T - m.conj().T @ m) <= tol * max(
        1.0, operator_norm(m)) ** 2


def selfadjoint_parts(a) -> tuple[np.ndarray, np.ndarray]:
    """The unique self-adjoint pair (a1, a2) with a = a1 + i a2."""
    m = _as_matrix(a)
    return (m + m.conj().T) / 2, (m - m.conj().T) / 2j


def commeasurable(a, b, tol: float = STRUCT_TOL) -> bool:
    """Commutation of two normal matrices; non-normal inputs are never
    commeasurable (reflexivity forces normality)."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if not (is_normal(ma, tol) and is_normal(mb, tol)):
        return False
    scale = max(1.0, operator_norm(ma)) * max(1.0, operator_norm(mb))
    return operator_norm(ma @ mb - mb @ ma) <= tol * scale


@dataclass(eq=False)
class MatrixSeed:
    """A finite list of equal-sized normal generators plus the working
    tolerance; presents a fragment of the normal part of a matrix algebra."""

    dim: int
    generators: list[np.ndarray]
    tol: float = STRUCT_TOL

    def __post_init__(self):
        self.generators = [_as_matrix(g) for g in self.generators]
        for i, g in enumerate(self.generators):
            if g.shape != (self.dim, self.dim):
                raise StructuralError(f"generator {i} has shape {g.shape}, "
                                      f"expected {(self.dim, self.dim)}")
            if not is_normal(g, self.tol):
                raise DomainError(f"generator {i} is not normal")


# ---------------------------------------------------------------------------
# Commutative *-subalgebras
# ---------------------------------------------------------------------------

def _hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.vdot(a, b))


def _orthonormal_extend(basis: list[np.ndarray], m: np.ndarray,
                        tol: float) -> bool:
    """Gram-Schmidt step against the Hilbert-Schmidt inner product; adds the
    residual direction when it is numerically nonzero."""
    r = m.copy()
    for _ in range(2):  # re-orthogonalize once for stability
        for b in basis:
            r = r - _hs_inner(b, r) * b
    norm = float(np.linalg.norm(r))
    if norm <= tol * max(1.0, float(np.linalg.norm(m))):
        return False
    basis.append(r / norm)
    return True


def _eigenspace_refinement(sa_mats: Sequence[np.ndarray], dim: int) -> list[np.ndarray]:
    """Joint eigenspaces of a commuting self-adjoint family, as orthonormal
    column frames, deterministically ordered by ascending eigenvalue along
    each refinement step."""
    spaces = [np.eye(dim, dtype=complex)]
    for g in sa_mats:
        scale = max(1.0, operator_norm(g))
        nxt = []
        for V in spaces:
            sub = V.conj().T @ g @ V
            w, U = np.linalg.eigh((sub + sub.conj().T) / 2)
            start = 0
            for i in range(1, len(w) + 1):
                if i == len(w) or w[i] - w[i - 1] > CLUSTER_TOL * scale:
                    nxt.append(V @ U[:, start:i])
                    start = i
        spaces = nxt
    return spaces


def generated_commutative_algebra(
    S: Sequence[np.ndarray],
    dim: int | None = None,
    tol: float = STRUCT_TOL,
) -> "CommutativeStarSubalgebra":
    """Least unital *-closed, product-closed span containing a pairwise
    commeasurable family of normal matrices."""
    mats = [_as_matrix(m) for m in S]
    if dim is None:
        if not mats:
            raise DomainError("need a dimension for the empty generating set")
        dim = mats[0].shape[0]
    for i, j in itertools.combinations(range(len(mats)), 2):
        if not commeasurable(mats[i], mats[j], tol):
            raise DomainError(f"generators {i} and {j} do not commute")
    for i, m in enumerate(mats):
        if m.shape != (dim, dim):
            raise StructuralError(f"generator {i} has mismatched dimension")
        if not is_normal(m, tol):
            raise DomainError(f"generator {i} is not normal")

    basis: list[np.ndarray] = []
    _orthonormal_extend(basis, np.eye(dim, dtype=complex), tol)
    queue = list(mats) + [m.conj().T for m in mats]
    for m in queue:
        _orthonormal_extend(basis, m, tol)
    changed = True
    while changed:
        changed = False
        snapshot = list(basis)
        for a in snapshot:
            if _orthonormal_extend(basis, a.conj().T, tol):
                changed = True
        for a, b in itertools.product(snapshot, repeat=2):
            if _orthonormal_extend(basis, a @ b, tol):
                changed = True
        if len(basis) > dim * dim:
            raise StructuralError("span closure exceeded the full matrix algebra")

    sa_parts: list[np.ndarray] = []
    for b in basis:
        h1, h2 = selfadjoint_parts(b)
        sa_parts.extend([h1, h2])
    spaces = _eigenspace_refinement(sa_parts, dim)
    if len(spaces) != len(basis):
        raise AmbiguousSpectrumError(
            f"found {len(spaces)} joint eigenspaces for a {len(basis)}-dimensional "
            "commutative algebra; eigenvalues are too close for the tolerance. "
            "Use exactly representable inputs or a looser clustering.",
        )
    projections = [V @ V.conj().T for V in spaces]
    return CommutativeStarSubalgebra(
        dim=dim, basis=basis, minimal_projections=projections,
        generators=mats, tol=tol)


@dataclass(eq=False)
class CommutativeStarSubalgebra:
    """A finite-dimensional commutative *-subalgebra of a matrix algebra:
    Hilbert-Schmidt orthonormal basis of the span, joint spectral projections
    summing to the identity, and the generators it came from."""

    dim: int
    basis: list[np.ndarray]
    minimal_projections: list[np.ndarray]
    generators: list[np.ndarray]
    tol: float = STRUCT_TOL

    def algebra_dim(self) -> int:
        return len(self.basis)

    def contains(self, m, tol: float | None = None) -> bool:
        m = _as_matrix(m)
        tol = tol if tol is not None else DERIVED_TOL
        r = m.copy()
        for b in self.basis:
            r = r - _hs_inner(b, r) * b
        return float(np.linalg.norm(r)) <= tol * max(1.0, float(np.linalg.norm(m)))

    def includes(self, other: "CommutativeStarSubalgebra") -> bool:
        return all(self.contains(b) for b in other.basis)


def joint_spectral_projections(C: CommutativeStarSubalgebra) -> list[np.ndarray]:
    """The minimal projections of a commutative subalgebra: pairwise
    orthogonal, summing to the identity, spanning the algebra."""
    ps = C.minimal_projections
    dim = C.dim
    acc = np.zeros((dim, dim), dtype=complex)
    for i, p in enumerate(ps):
        if operator_norm(p @ p - p) > DERIVED_TOL or \
           operator_norm(p - p.conj().T) > DERIVED_TOL:
            raise StructuralError(f"minimal projection {i} is not a projection")
        for q in ps[i + 1:]:
            if operator_norm(p @ q) > DERIVED_TOL:
                raise StructuralError("minimal projections are not orthogonal")
        acc = acc + p
    if operator_norm(acc - np.eye(dim)) > DERIVED_TOL:
        raise StructuralError("minimal projections do not sum to the identity")
    for b in C.basis:
        coeffs = [complex(np.trace(p @ b)) / max(1, round(np.trace(p).real)) for p in ps]
        recon = sum(c * p for c, p in zip(coeffs, ps))
        if operator_norm(recon - b) > DERIVED_TOL * max(1.0, operator_norm(b)):
            raise StructuralError("basis element is not spanned by the projections")
    return list(ps)


# ---------------------------------------------------------------------------
# Support projections and projection suprema
# ---------------------------------------------------------------------------

def support_projection(a, context: CommutativeStarSubalgebra | None = None,
                       tol: float = STRUCT_TOL) -> np.ndarray:
    """The projection onto the range of a normal matrix: the sum of its
    spectral projections at nonzero eigenvalues.  The complement generates
    the annihilator inside a commutative context (checked when given).

    Eigenvalues in the dead zone (tol, 10*tol] raise an ambiguity error
    reporting the offending magnitude.
    """
    m = _as_matrix(a)
    if not is_normal(m, tol):
        raise DomainError("support projection needs a normal matrix")
    dim = m.shape[0]
    h1, h2 = selfadjoint_parts(m)
    spaces = _eigenspace_refinement([h1, h2], dim)
    scale = max(1.0, operator_norm(m))
    rp = np.zeros((dim, dim), dtype=complex)
    for V in spaces:
        sub = V.conj().T @ m @ V
        lam = complex(np.trace(sub)) / V.shape[1]
        mag = abs(lam)
        if tol * scale < mag <= 10 * tol * scale:
            raise AmbiguousSpectrumError(
                f"eigenvalue magnitude {mag:.3e} sits between the zero tolerance "
                f"{tol * scale:.3e} and its safety factor", gap=mag)
        if mag > 10 * tol * scale:
            rp = rp + V @ V.conj().T
    if operator_norm(m @ (np.eye(dim) - rp)) > DERIVED_TOL * scale:
        raise StructuralError("support projection does not annihilate the kernel")
    if context is not None:
        _check_annihilator(m, rp, context)
    return rp


def _check_annihilator(a: np.ndarray, rp: np.ndarray,
                       C: CommutativeStarSubalgebra) -> None:
    """(1 - RP(a)) * C must span exactly {b in C : ab = 0}."""
    if not C.contains(a):
        raise DomainError("element lies outside its commutative context")
    dim = C.dim
    comp = np.eye(dim) - rp
    # dimension of the annihilator inside C
    rows = np.array([(a @ b).ravel() for b in C.basis])
    s = np.linalg.svd(rows.T, compute_uv=False) if len(C.basis) else np.array([])
    ann_dim = len(C.basis) - int(np.sum(s > DERIVED_TOL * max(1.0, operator_norm(a))))
    # dimension of (1 - RP) C, and containment in the annihilator
    comp_rows = []
    for b in C.basis:
        cb = comp @ b
        comp_rows.append(cb.ravel())
        if operator_norm(a @ cb) > DERIVED_TOL * max(1.0, operator_norm(a)):
            raise StructuralError("(1-RP)C is not contained in the annihilator")
    s2 = np.linalg.svd(np.array(comp_rows).T, compute_uv=False)
    comp_dim = int(np.sum(s2 > DERIVED_TOL))
    if comp_dim != ann_dim:
        raise StructuralError(
            f"annihilator dimension {ann_dim} differs from (1-RP)C dimension {comp_dim}")


def projection_supremum(ps: Sequence[np.ndarray], dim: int | None = None,
                        tol: float = STRUCT_TOL) -> np.ndarray:
    """Least upper bound of pairwise commuting projections: the projection
    onto the sum of their ranges (empty input gives 0)."""
    mats = [_as_matrix(p) for p in ps]
    if dim is None:
        if not mats:
            raise DomainError("need a dimension for the empty supremum")
        dim = mats[0].shape[0]
    for i, p in enumerate(mats):
        if operator_norm(p @ p - p) > tol or operator_norm(p - p.conj().T) > tol:
            raise DomainError(f"input {i} is not a projection")
    for i, j in itertools.combinations(range(len(mats)), 2):
        if operator_norm(mats[i] @ mats[j] - mats[j] @ mats[i]) > tol:
            raise DomainError(f"projections {i} and {j} do not commute")
    if not mats:
        return np.zeros((dim, dim), dtype=complex)
    stacked = np.hstack(mats)
    u, s, _ = np.linalg.svd(stacked)
    rank = int(np.sum(s > 10 * tol))
    ur = u[:, :rank]
    return ur @ ur.conj().T


# ---------------------------------------------------------------------------
# Projection closures and the bridge to partial Boolean algebras
# ---------------------------------------------------------------------------

# Budget of the projection closure.  The largest closure seen on the bundled
# corpus and the benchmark workloads has 140 projections (Cabello-18 and
# Peres-24).
_CLOSURE_MAX_PROJECTIONS = 4000


def _keys(stack: np.ndarray) -> list[tuple[float, ...]]:
    """Dedup key of each matrix in a stack: its entries rounded to 7
    decimals as interleaved (real, imag) floats, hashable for deduplication
    and ordered for the canonical sort.  The one key routine of this module."""
    r = np.round(np.asarray(stack, dtype=complex), 7) + 0.0  # normalize -0.0
    flat = r.view(np.float64).reshape(len(r), 2 * r.shape[-1] ** 2)
    return list(map(tuple, flat.tolist()))


class _ProjectionPool:
    """Deduplicated projection store: rounded-entry keys plus a final gap
    assertion (nearest distinct pair must exceed 10x the tolerance).  The
    entries are also kept in one growing stack, so a closure turn can test
    a projection against all earlier ones without re-stacking them."""

    def __init__(self, tol: float):
        self.tol = tol
        self.mats: list[np.ndarray] = []
        self.keys: list[tuple[float, ...]] = []
        self._index: dict[tuple[float, ...], int] = {}
        self._stack: np.ndarray | None = None

    @property
    def stack(self) -> np.ndarray:
        """The entries so far as one (n, dim, dim) complex array."""
        return self._stack[:len(self.mats)]

    def add(self, m: np.ndarray) -> int:
        return self.add_all(np.asarray(m)[None])[0]

    def add_all(self, ms: np.ndarray) -> list[int]:
        """Add a stack of matrices in order; the pool index of each."""
        start = len(self.mats)
        out = []
        for m, k in zip(ms, _keys(ms)):
            i = self._index.get(k)
            if i is None:
                i = self._index[k] = len(self.mats)
                self.mats.append(m)
                self.keys.append(k)
            out.append(i)
        n = len(self.mats)
        if self._stack is None or n > len(self._stack):
            self._stack = np.empty((2 * n,) + ms.shape[1:], dtype=complex)
            start = 0
        if n > start:
            self._stack[start:n] = self.mats[start:]
        return out

    def assert_gap(self):
        """Raise on the first pair (i, j), i < j, within 10x the tolerance;
        one vectorised row of Frobenius distances per i."""
        eps = 10 * self.tol
        stacked = np.stack(self.mats)
        for i in range(len(stacked) - 1):
            dist = np.linalg.norm(stacked[i + 1:] - stacked[i], axis=(1, 2))
            close = np.flatnonzero(dist <= eps)
            if close.size:
                j = i + 1 + int(close[0])
                raise StructuralError(
                    f"projections {i} and {j} are {float(dist[close[0]]):.2e} "
                    f"apart, inside the deduplication gap {eps:.2e}")


def _projection_closure(
    seeds: Sequence[np.ndarray], dim: int, tol: float,
    seed_labels: Sequence[str] = (),
) -> tuple[PartialBooleanAlgebra, list[np.ndarray], list[int]]:
    """Close a projection family under complement and commuting meet/join
    and read off the validated partial Boolean algebra.

    A worklist: when projection p = i's turn comes it is complemented and
    tested against every earlier j < i in one stacked product, and the
    commuting pairs' meets QP and joins Q + p - QP are formed as stacks, so
    every unordered pair is tested and multiplied exactly once.  The turn's
    results join the pool in pair order (the complement, then each j
    ascending with its meet before its join), so pool indices are those of
    a pair-at-a-time walk.  The closure is operation-closed, so its maximal
    commuting cliques are Boolean blocks and the algebra is valid.
    Elements are then ordered canonically (0 first, then by rank and
    rounded entries), which only permutes the recorded tables.

    Returns the algebra, its projections element by element, and the
    element of each seed.  Elements are labelled 0, 1 and p<i>; the first
    len(seed_labels) seeds take those labels, and their complements
    ~<label> where no seed claims them.
    """
    pool = _ProjectionPool(tol)
    eye = np.eye(dim, dtype=complex)
    pool.add(np.zeros((dim, dim), dtype=complex))
    one = pool.add(eye)
    seed_ids = [pool.add(_as_matrix(p)) for p in seeds]
    comp: list[int] = []  # complement of each pool entry
    meets: list[tuple[int, int, int]] = []
    joins: list[tuple[int, int, int]] = []
    i = 0
    while i < len(pool.mats):
        p = pool.mats[i]
        q = pool.stack[:i]
        qp = q @ p
        # initial=0.0 defines the reduction when dim is 0; not (gap > tol)
        # rather than gap <= tol, so a NaN commutator commutes, as in the
        # pair test
        gap = np.abs(qp - p @ q).max(axis=(1, 2), initial=0.0)
        both = np.flatnonzero(~(gap > tol))
        batch = np.empty((1 + 2 * len(both), dim, dim), dtype=complex)
        batch[0] = eye - p
        batch[1::2] = qp[both]
        batch[2::2] = q[both] + p - batch[1::2]
        ids = pool.add_all(batch)
        comp.append(ids[0])
        js = both.tolist()
        meets.extend(zip(js, itertools.repeat(i), ids[1::2]))
        joins.extend(zip(js, itertools.repeat(i), ids[2::2]))
        if len(pool.mats) > _CLOSURE_MAX_PROJECTIONS:
            raise SearchCutoffError(
                f"projection closure exceeded {_CLOSURE_MAX_PROJECTIONS} elements",
                limit=_CLOSURE_MAX_PROJECTIONS)
        i += 1
    pool.assert_gap()

    n = len(pool.mats)
    ranks = [int(round(float(np.trace(m).real))) for m in pool.mats]
    order = sorted(range(n), key=lambda k: (ranks[k] != 0, ranks[k], pool.keys[k]))
    pos = [0] * n
    for e, k in enumerate(order):
        pos[k] = e
    zero, one = pos[0], pos[one]
    labels = ["0" if e == zero else "1" if e == one else f"p{e}" for e in range(n)]
    neg = [pos[comp[k]] for k in order]
    seed_elements = [pos[k] for k in seed_ids]
    for lab, e in zip(seed_labels, seed_elements):
        labels[e] = lab
        if labels[neg[e]].startswith("p"):
            labels[neg[e]] = "~" + lab
    A = make_pba(n, zero, one, neg,
                 [(pos[j], pos[k]) for j, k, _ in meets],
                 [(pos[j], pos[k], pos[v]) for j, k, v in meets],
                 [(pos[j], pos[k], pos[v]) for j, k, v in joins], labels)
    report = validate(A)
    if not report.ok:
        raise InvalidAlgebraError("projection algebra fails validation",
                                  report=report)
    return A, [pool.mats[k] for k in order], seed_elements


@dataclass(eq=False)
class ProjectionAlgebra:
    """The partial Boolean algebra of projections in the enumerated fragment
    of a matrix seed, with the carrier matrices element by element."""

    algebra: PartialBooleanAlgebra
    projections: list[np.ndarray]
    seed: MatrixSeed


def spectral_projections(a, tol: float = STRUCT_TOL) -> list[np.ndarray]:
    """Spectral projections of one normal matrix, deterministically ordered."""
    m = _as_matrix(a)
    if not is_normal(m, tol):
        raise DomainError("spectral projections need a normal matrix")
    h1, h2 = selfadjoint_parts(m)
    spaces = _eigenspace_refinement([h1, h2], m.shape[0])
    return [V @ V.conj().T for V in spaces]


def projection_algebra(seed: MatrixSeed) -> ProjectionAlgebra:
    """The partial Boolean algebra generated by the seed's spectral
    projections: commutation as commeasurability, complement as negation,
    product as meet on commuting pairs.  Validated before returning."""
    base: list[np.ndarray] = []
    for g in seed.generators:
        base.extend(spectral_projections(g, seed.tol))
    A, mats, _ = _projection_closure(base, seed.dim, seed.tol)
    return ProjectionAlgebra(algebra=A, projections=mats, seed=seed)


def proj_commutes_with_subalgebra_functor(pa: ProjectionAlgebra) -> bool:
    """Check {Proj(C) : C enumerated commutative subalgebra} equals the set
    of Boolean subalgebras of the projection algebra.

    The left side enumerates, per Boolean block, the subalgebras spanned by
    the partition-sums of its minimal projections (matrix side); the right
    side enumerates Boolean subalgebras of the carrier (order side).
    """
    A = pa.algebra
    index = {k: i for i, k in enumerate(_keys(np.stack(pa.projections)))}

    def idx(m) -> int:
        return index.get(_keys(m[None])[0], -1)

    lhs: set[frozenset[int]] = set()
    for clique in maximal_cliques(A):
        elems = [i for i in range(A.n) if (clique >> i) & 1]
        block_alg = generated_commutative_algebra(
            [pa.projections[i] for i in elems if i != A.zero],
            dim=pa.seed.dim, tol=pa.seed.tol)
        minimal = block_alg.minimal_projections
        for partition in _set_partitions(list(range(len(minimal)))):
            sums = [sum(minimal[i] for i in part) for part in partition]
            member = set()
            for r in range(len(sums) + 1):
                for chosen in itertools.combinations(range(len(sums)), r):
                    total = np.zeros((pa.seed.dim, pa.seed.dim), dtype=complex)
                    for c in chosen:
                        total = total + sums[c]
                    e = idx(total)
                    if e < 0:
                        return False  # matrix-side member escapes the carrier
                    member.add(e)
            lhs.add(frozenset(member))
    rhs = set(boolean_subalgebras(A).members)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Mediating maps for cocones of *-morphisms
# ---------------------------------------------------------------------------

def enumerated_subalgebras(seed: MatrixSeed) -> list[CommutativeStarSubalgebra]:
    """The fragment of the commutative subalgebra diagram generated by
    pairwise commeasurable subsets of the seed generators."""
    out = []
    gens = seed.generators
    for r in range(len(gens) + 1):
        for subset in itertools.combinations(range(len(gens)), r):
            mats = [gens[i] for i in subset]
            if all(commeasurable(a, b, seed.tol)
                   for a, b in itertools.combinations(mats, 2)):
                out.append(generated_commutative_algebra(
                    mats, dim=seed.dim, tol=seed.tol))
    return out


def mediating_star_map(
    seed: MatrixSeed,
    leg: Callable[[CommutativeStarSubalgebra, np.ndarray], np.ndarray],
) -> Callable[[np.ndarray], np.ndarray]:
    """Assemble the map induced by a cocone of *-morphisms on the enumerated
    fragment: each element evaluates through the subalgebras generated by
    its self-adjoint parts, m(a) = leg(<a1>, a1) + i leg(<a2>, a2).

    Cocone coherence (legs agree along inclusions) and the restriction
    property m . i_C = leg_C are checked on the enumerated fragment before
    the map is returned; incoherent cocones raise CoconeError.
    """
    fragment = enumerated_subalgebras(seed)
    for C in fragment:
        for D in fragment:
            if C is D or not D.includes(C):
                continue
            for b in C.basis:
                if operator_norm(leg(C, b) - leg(D, b)) > DERIVED_TOL * max(
                        1.0, operator_norm(b)):
                    raise CoconeError(
                        "cocone legs disagree on a nested subalgebra pair",
                        pair=(C, D))

    def mediate(a: np.ndarray) -> np.ndarray:
        a = _as_matrix(a)
        if not is_normal(a, seed.tol):
            raise DomainError("mediating map is defined on normal elements")
        a1, a2 = selfadjoint_parts(a)
        c1 = generated_commutative_algebra([a1], dim=seed.dim, tol=seed.tol)
        c2 = generated_commutative_algebra([a2], dim=seed.dim, tol=seed.tol)
        return leg(c1, a1) + 1j * leg(c2, a2)

    for C in fragment:
        for b in C.basis:
            if operator_norm(mediate(b) - leg(C, b)) > DERIVED_TOL * max(
                    1.0, operator_norm(b)):
                raise CoconeError(
                    "mediating map does not restrict to a cocone leg",
                    pair=(C, None))
    return mediate


def star_morphism_defect(f: Callable[[np.ndarray], np.ndarray],
                         pairs: Sequence[tuple[np.ndarray, np.ndarray]],
                         scalars: Sequence[complex] = (1, 1j, 2 - 3j),
                         tol: float = STRUCT_TOL) -> float:
    """Largest violation of the partial *-morphism clauses over given
    commeasurable pairs: preservation of commeasurability, multiplicativity,
    additivity, scalar action, adjoints, the unit, and the split
    f(a + ib) = f(a) + i f(b) for self-adjoint parts."""
    worst = 0.0
    for a, b in pairs:
        if not commeasurable(a, b, tol):
            raise DomainError("defect pairs must be commeasurable")
        fa, fb = f(a), f(b)
        worst = max(worst, operator_norm(fa @ fb - fb @ fa))
        worst = max(worst, operator_norm(f(a @ b) - fa @ fb))
        worst = max(worst, operator_norm(f(a + b) - (fa + fb)))
        for z in scalars:
            worst = max(worst, operator_norm(f(z * a) - z * f(a)))
        worst = max(worst, operator_norm(f(a.conj().T) - fa.conj().T))
        a1, a2 = selfadjoint_parts(a)
        worst = max(worst, operator_norm(f(a1 + 1j * a2) - (f(a1) + 1j * f(a2))))
        dim = _as_matrix(a).shape[0]
        eye = np.eye(dim, dtype=complex)
        feye = f(eye)
        worst = max(worst, operator_norm(
            feye - np.eye(feye.shape[0], dtype=complex)))
    return worst


# ---------------------------------------------------------------------------
# Ray ingestion
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RayAlgebra:
    """Result of ingesting a ray set: the contexts (complete orthogonal
    bases found among the rays) and the partial Boolean algebra generated
    by the rank-1 projections."""

    algebra: PartialBooleanAlgebra
    projections: list[np.ndarray]
    blocks: tuple[frozenset[str], ...]
    ray_elements: dict[str, int]


def rays_to_pba(rays: Sequence[Sequence[complex]], dim: int,
                tol: float = STRUCT_TOL) -> RayAlgebra:
    """Build the partial Boolean algebra generated by the rank-1 projections
    of a ray set; ray i is labelled r<i>.

    Blocks are the contexts, the mutually orthogonal dim-sized subsets, in
    ascending order; two may share any number of rays.  At least one
    complete basis must occur.  The carrier is the closure of the ray
    projections under complement and commuting meet/join, the least valid
    carrier containing them.  It holds the pasted block algebra, but may be
    larger even when every orthogonal pair and triple lies in one block:
    in the 600-cell's 60 rays with their 75 bases, rank-2 projections of
    different bases commute and meet in rays outside the set."""
    vecs = []
    for i, r in enumerate(rays):
        v = np.asarray(r, dtype=complex).reshape(-1)
        if v.shape != (dim,):
            raise StructuralError(f"ray {i} has length {v.shape[0]}, expected {dim}")
        if not np.all(np.isfinite(v)):
            raise StructuralError(f"ray {i} has non-finite entries")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(v))
        if not np.isfinite(norm):
            raise DomainError(f"ray {i} has a norm too large to represent")
        if norm <= tol:
            raise DomainError(f"ray {i} is numerically zero")
        vecs.append(v / norm)
    labels = [f"r{i}" for i in range(len(vecs))]

    # deduplicate parallel rays
    keep: list[int] = []
    for i, v in enumerate(vecs):
        if not any(abs(abs(np.vdot(vecs[j], v)) - 1.0) <= 10 * tol for j in keep):
            keep.append(i)
    vecs = [vecs[i] for i in keep]
    labels = [labels[i] for i in keep]

    n = len(vecs)
    adj = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if abs(np.vdot(vecs[i], vecs[j])) <= 10 * tol:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    blocks = []
    for clique in bron_kerbosch(adj, n):
        if clique.bit_count() == dim:
            blocks.append(frozenset(labels[i] for i in range(n) if (clique >> i) & 1))
    if not blocks:
        raise DomainError("no complete orthogonal basis among the rays")
    covered = set().union(*blocks)
    missing = [lab for lab in labels if lab not in covered]
    if missing:
        raise DomainError(f"rays {missing} lie in no complete basis")

    A, mats, elements = _projection_closure(
        [np.outer(v, v.conj()) for v in vecs], dim, tol, labels)
    return RayAlgebra(algebra=A, projections=mats,
                      blocks=tuple(sorted(blocks, key=sorted)),
                      ray_elements=dict(zip(labels, elements)))


def amplify(a, k: int) -> np.ndarray:
    """Tensor a matrix with the k-dimensional identity (the block-diagonal
    amplification); preserves normality, commutation, and non-commutation."""
    m = _as_matrix(a)
    if k < 1:
        raise DomainError("amplification factor must be positive")
    if not is_normal(m):
        raise DomainError("amplification is defined on normal elements")
    return np.kron(m, np.eye(k, dtype=complex))
