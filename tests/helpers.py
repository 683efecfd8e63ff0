"""Shared machinery for the test suite: the Boolean algebra built by
comprehensions, vectorized exhaustive checks for the tensor factorization
criterion, a pairwise morphism-clause walk and the morphism check walked
over every row, a brute-force isomorphism oracle with a carrier
relabelling to feed it, the isomorphism search as it was before its
used-image mask, product-and-filter oracles for cocones and maximal
cliques, block-family cocones spread out to per-member legs with the
member-by-member cocone walk and mediation, a Bron-Kerbosch whose pivot
scan reads every vertex, crown-shaped orders, the point family a
two-valued state induces on the member poset, the frame-map report over
every pair of frame elements, the diagram formulation of reflecting
commeasurability, validation and the block tables walked cell by cell, the
projection closure walked one pair at a time, and the exhaustive oracles
for a block's Boolean axioms, the extension clause, generated subalgebras
and the subalgebra poset's inclusion rows and reports."""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from pbalg import core
from pbalg.bohr import FrameMap, member_image
from pbalg.core import (
    UNDEF,
    MorphismCheck,
    PartialBooleanAlgebra,
    PbaMorphism,
    ValidationReport,
    Violation,
    _bits,
    _candidate_classes,
    _columns,
    _gather,
    _require_pairwise_comm,
    _signature,
    atoms_of_subalgebra,
    check_morphism,
    enumerate_morphisms,
    generated_subalgebra,
    make_pba,
    maximal_cliques,
    sub_algebra,
    validate,
)
from pbalg.colimit import Cocone, TensorResult, tensor_factorization, tensor_product
from pbalg.errors import (
    AmalgamError,
    CoconeError,
    DomainError,
    InvalidAlgebraError,
    SearchCutoffError,
)
from pbalg.matrixalg import _CLOSURE_MAX_PROJECTIONS, _ProjectionPool, _as_matrix
from pbalg.poset import (StructureReport, SubalgebraPoset, boolean_subalgebras,
                         structure_report)


# ---------------------------------------------------------------------------
# the Boolean algebra built by comprehensions
# ---------------------------------------------------------------------------

def comprehension_boolean_algebra(k: int) -> PartialBooleanAlgebra:
    """core.boolean_algebra as it was before it went through the block
    table writer: each table a comprehension over the bitmask elements.
    The reference for its tables."""
    n = 1 << k
    full = n - 1
    labels = tuple(format(x, f"0{k}b") if k else "0" for x in range(n))
    comm = tuple((1 << n) - 1 for _ in range(n))
    meet = tuple(tuple(a & b for b in range(n)) for a in range(n))
    join = tuple(tuple(a | b for b in range(n)) for a in range(n))
    neg = tuple(full ^ a for a in range(n))
    return PartialBooleanAlgebra(n=n, zero=0, one=full, neg=neg, comm=comm,
                                 meet=meet, join=join, labels=labels)


# ---------------------------------------------------------------------------
# exhaustive tensor factorization criterion
# ---------------------------------------------------------------------------

def _z_tables(Z: PartialBooleanAlgebra):
    meet = np.array(Z.meet, dtype=np.int64)
    join = np.array(Z.join, dtype=np.int64)
    comm = np.zeros((Z.n, Z.n), dtype=bool)
    for i in range(Z.n):
        for j in range(Z.n):
            comm[i, j] = Z.comm_pair(i, j)
    neg = np.array(Z.neg, dtype=np.int64)
    return meet, join, comm, neg


def _tensor_arrays(T: TensorResult):
    nT = T.algebra.n
    width = max((len(p) for p in T.atom_pairs), default=0)
    pa = np.zeros((nT, max(width, 1)), dtype=np.int64)
    pb = np.zeros((nT, max(width, 1)), dtype=np.int64)
    valid = np.zeros((nT, max(width, 1)), dtype=bool)
    for t, pairs in enumerate(T.atom_pairs):
        for k, (a, b) in enumerate(pairs):
            pa[t, k], pb[t, k], valid[t, k] = a, b, True
    TA = T.algebra
    i_arr, j_arr, m_arr, jn_arr = [], [], [], []
    for i in range(nT):
        for j in range(i + 1, nT):
            if TA.comm_pair(i, j):
                i_arr.append(i)
                j_arr.append(j)
                m_arr.append(TA.meet[i][j])
                jn_arr.append(TA.join[i][j])
    return (pa, pb, valid,
            np.array(i_arr), np.array(j_arr), np.array(m_arr), np.array(jn_arr),
            np.array(T.algebra.neg, dtype=np.int64))


def tensor_iff_exhaustive(A: PartialBooleanAlgebra, B: PartialBooleanAlgebra,
                          Z: PartialBooleanAlgebra,
                          T: TensorResult | None = None,
                          spot_check_stride: int = 997) -> dict:
    """Check the factorization criterion over every morphism pair
    (f: A -> Z, g: B -> Z).

    Where the commeasurability condition holds, the factorizing map is
    constructed and verified to be a morphism restricting to f and g along
    the canonical injections (vectorized); where it fails, no factorization
    can exist because the injection images are always commeasurable in the
    tensor carrier (checked once) and morphisms preserve commeasurability.
    A strided subsample is re-verified through the reference path.
    """
    if T is None:
        T = tensor_product(A, B)
    TA = T.algebra
    # the cross-commeasurability property that rules out factorizations of
    # refused pairs
    for a in range(A.n):
        for b in range(B.n):
            assert TA.comm_pair(T.kappa_a.map[a], T.kappa_b.map[b])

    homA = enumerate_morphisms(A, Z)
    homB = enumerate_morphisms(B, Z)
    Zmeet, Zjoin, Zcomm, Zneg = _z_tables(Z)
    pa, pb, valid, i_arr, j_arr, m_arr, jn_arr, negT = _tensor_arrays(T)
    kapA = np.array(T.kappa_a.map, dtype=np.int64)
    kapB = np.array(T.kappa_b.map, dtype=np.int64)
    Fmat = np.array([f.map for f in homA], dtype=np.int64)
    Gmat = np.array([g.map for g in homB], dtype=np.int64)

    # condition by image sets (memoized: few distinct images)
    imagesA = [frozenset(f.map) for f in homA]
    imagesB = [frozenset(g.map) for g in homB]

    @lru_cache(maxsize=None)
    def images_ok(im_f: frozenset, im_g: frozenset) -> bool:
        return all(Zcomm[x, y] for x in im_f for y in im_g)

    stats = {"pairs": 0, "positive": 0, "negative": 0, "spot_checked": 0}
    width = pa.shape[1]
    for fi, f in enumerate(homA):
        cond = np.array([images_ok(imagesA[fi], im) for im in imagesB])
        stats["pairs"] += len(homB)
        stats["negative"] += int((~cond).sum())
        if not cond.any():
            continue
        G = Gmat[cond]
        ng = G.shape[0]
        stats["positive"] += ng
        # vectorized cotuple: h[g, t] = join over slots of f(pa) meet g(pb)
        h = np.zeros((ng, TA.n), dtype=np.int64)
        h[:, :] = Z.zero
        fvals = Fmat[fi]
        for k in range(width):
            vals = Zmeet[fvals[pa[:, k]][None, :], G[:, pb[:, k]]]
            vals = np.where(valid[:, k][None, :], vals, Z.zero)
            h = Zjoin[h, vals]
        assert (h >= 0).all(), "cotuple escaped a common block"
        # restriction along the canonical injections
        assert (h[:, kapA] == fvals[None, :]).all()
        assert (h[:, kapB] == G).all()
        # morphism clauses, batched
        assert (h[:, TA.zero] == Z.zero).all() and (h[:, TA.one] == Z.one).all()
        assert (Zneg[h] == h[:, negT]).all()
        hi, hj = h[:, i_arr], h[:, j_arr]
        assert Zcomm[hi, hj].all()
        assert (Zmeet[hi, hj] == h[:, m_arr]).all()
        assert (Zjoin[hi, hj] == h[:, jn_arr]).all()

    # strided reference-path re-verification, including refusal witnesses
    idx = 0
    for fi, f in enumerate(homA):
        for gi, g in enumerate(homB):
            idx += 1
            if idx % spot_check_stride:
                continue
            stats["spot_checked"] += 1
            r = tensor_factorization(f, g, T=T)
            assert r.factorizes == images_ok(imagesA[fi], imagesB[gi])
            if not r.factorizes:
                a, b = r.witness
                assert not Z.comm_pair(f.map[a], g.map[b])
    return stats



# ---------------------------------------------------------------------------
# pairwise morphism-clause walk
# ---------------------------------------------------------------------------

def check_morphism_pairwise(f: PbaMorphism) -> MorphismCheck:
    """The clauses of ``check_morphism`` in its order, read by walking every
    pair a < b through ``comm_pair``: the first violation and its witness."""
    A, B, m = f.dom, f.cod, f.map
    if m[A.zero] != B.zero:
        return MorphismCheck(False, "zero", (A.zero,), "does not preserve 0")
    if m[A.one] != B.one:
        return MorphismCheck(False, "one", (A.one,), "does not preserve 1")
    for a in range(A.n):
        if m[A.neg[a]] != B.neg[m[a]]:
            return MorphismCheck(False, "neg", (a,),
                                 f"neg not preserved at {A.labels[a]}")
    pairs = [(a, b) for a, b in itertools.combinations(range(A.n), 2)
             if A.comm_pair(a, b)]
    for a, b in pairs:
        if not B.comm_pair(m[a], m[b]):
            return MorphismCheck(False, "comm", (a, b),
                                 f"commeasurability not preserved at ({A.labels[a]}, {A.labels[b]})")
    for a, b in pairs:
        if m[A.meet[a][b]] != B.meet[m[a]][m[b]]:
            return MorphismCheck(False, "meet", (a, b),
                                 f"meet not preserved at ({A.labels[a]}, {A.labels[b]})")
        if m[A.join[a][b]] != B.join[m[a]][m[b]]:
            return MorphismCheck(False, "join", (a, b),
                                 f"join not preserved at ({A.labels[a]}, {A.labels[b]})")
    return MorphismCheck(True)


def walk_check_morphism(f: PbaMorphism) -> MorphismCheck:
    """core.check_morphism as it was before its numpy row test: the walk
    over every row.  The reference for the rows the test picks."""
    A, B, m = f.dom, f.cod, f.map
    if m[A.zero] != B.zero:
        return MorphismCheck(False, "zero", (A.zero,), "does not preserve 0")
    if m[A.one] != B.one:
        return MorphismCheck(False, "one", (A.one,), "does not preserve 1")
    for a in range(A.n):
        if m[A.neg[a]] != B.neg[m[a]]:
            return MorphismCheck(False, "neg", (a,),
                                 f"neg not preserved at {A.labels[a]}")
    bad = None
    for a in range(A.n):
        row = B.comm[m[a]]
        meet, join = A.meet[a], A.join[a]
        meet_b, join_b = B.meet[m[a]], B.join[m[a]]
        for b, digit in enumerate(bin(A.comm[a] >> (a + 1))[:1:-1], a + 1):
            if digit == "0":
                continue
            if not row >> m[b] & 1:
                return MorphismCheck(False, "comm", (a, b),
                                     f"commeasurability not preserved at ({A.labels[a]}, {A.labels[b]})")
            if bad is None:
                if m[meet[b]] != meet_b[m[b]]:
                    bad = ("meet", a, b)
                elif m[join[b]] != join_b[m[b]]:
                    bad = ("join", a, b)
    if bad is not None:
        clause, a, b = bad
        return MorphismCheck(False, clause, (a, b),
                             f"{clause} not preserved at ({A.labels[a]}, {A.labels[b]})")
    return MorphismCheck(True)


# ---------------------------------------------------------------------------
# brute-force isomorphism oracle
# ---------------------------------------------------------------------------

def _is_isomorphism(A: PartialBooleanAlgebra, B: PartialBooleanAlgebra,
                    m: list[int]) -> bool:
    """m preserves 0, 1 and neg, preserves and reflects commeasurability,
    and preserves meets and joins of commeasurable pairs (read from the
    public tables only)."""
    if m[A.zero] != B.zero or m[A.one] != B.one:
        return False
    for a in range(A.n):
        if m[A.neg[a]] != B.neg[m[a]]:
            return False
        for x in range(A.n):
            c = bool(A.comm[a] >> x & 1)
            if c != bool(B.comm[m[a]] >> m[x] & 1):
                return False
            if c and (m[A.meet[a][x]] != B.meet[m[a]][m[x]]
                      or m[A.join[a][x]] != B.join[m[a]][m[x]]):
                return False
    return True


def brute_force_isomorphic(A: PartialBooleanAlgebra, B: PartialBooleanAlgebra) -> bool:
    """Try every bijection A -> B that sends 0 to 0 and 1 to 1 (small
    carriers only)."""
    if A.n != B.n or (A.zero == A.one) != (B.zero == B.one):
        return False
    rest_a = [a for a in range(A.n) if a not in (A.zero, A.one)]
    rest_b = [b for b in range(B.n) if b not in (B.zero, B.one)]
    m = [0] * A.n
    m[A.zero], m[A.one] = B.zero, B.one
    for images in itertools.permutations(rest_b):
        for a, b in zip(rest_a, images):
            m[a] = b
        if _is_isomorphism(A, B, m):
            return True
    return False


def relabel(A: PartialBooleanAlgebra, perm: list[int]) -> PartialBooleanAlgebra:
    """The carrier A with element a renamed perm[a]; perm itself is then an
    isomorphism from A onto the result."""
    n = A.n
    inv = [0] * n
    for a, p in enumerate(perm):
        inv[p] = a

    def moved(v: int) -> int:
        return UNDEF if v == UNDEF else perm[v]

    return PartialBooleanAlgebra(
        n=n, zero=perm[A.zero], one=perm[A.one],
        neg=tuple(perm[A.neg[inv[i]]] for i in range(n)),
        comm=tuple(sum(1 << perm[x] for x in range(n) if A.comm[inv[i]] >> x & 1)
                   for i in range(n)),
        meet=tuple(tuple(moved(A.meet[inv[i]][inv[j]]) for j in range(n))
                   for i in range(n)),
        join=tuple(tuple(moved(A.join[inv[i]][inv[j]]) for j in range(n))
                   for i in range(n)),
        labels=tuple(A.labels[inv[i]] for i in range(n)))


# ---------------------------------------------------------------------------
# reference isomorphism search
# ---------------------------------------------------------------------------

def eager_isomorphism_search(candidates: Sequence[int],
                              relations: Sequence[tuple[Sequence[int], Sequence[int]]],
                              closure: Callable[[int, int, list[int], int],
                                                Iterable[tuple[int, int]]] | None = None,
                              ) -> list[int] | None:
    """Reference isomorphism search, the library's before its used-image
    mask: every assignment clears its image from every unassigned mask.

    A bijection f of 0..n-1 with f[a] in candidates[a] for every a and
    ``rows_a[a]`` bit x == ``rows_b[f[a]]`` bit f[x] for every relation
    ``(rows_a, rows_b)`` and every a assigned before x (pass a relation's
    columns as a second relation to cover the other order), or None.

    ``closure(a, b, f, done)``, if given, runs when a is assigned b, with
    ``done`` the mask of elements assigned before a; it returns pairs
    ``(x, y)`` that force f[x] == y, and a negative x or y is a
    contradiction.  Every decision and every forced image narrows the
    candidate masks of the unassigned elements (forward checking); an
    element left with one candidate is assigned in turn.  The search
    branches on the unassigned element with the fewest candidates, lowest
    image first, on an explicit stack whose entries keep the masks and
    images as they were at their decision, so undo memory is one snapshot
    per decision level.  Each image tried at a decision is one node; past
    ``core._ISO_MAX_NODES`` it raises SearchCutoffError.
    """
    n = len(candidates)
    full = (1 << n) - 1

    def propagate(queue: list[int], masks: list[int], f: list[int], free: int) -> int:
        """Assign the queued elements and everything they force; returns
        the new free mask, or -1 on a contradiction."""
        while queue:
            a = queue.pop()
            if f[a] >= 0:
                continue
            b = masks[a].bit_length() - 1
            for rows_a, rows_b in relations:
                if (rows_a[a] >> a & 1) != (rows_b[b] >> b & 1):
                    return -1
            f[a] = b
            done = full ^ free
            free ^= 1 << a
            cells = [(free, full ^ 1 << b)]
            for rows_a, rows_b in relations:
                inside, row = rows_a[a], rows_b[b]
                cells = [(part & side, keep & image)
                         for part, keep in cells
                         for side, image in ((inside, row), (~inside, ~row))
                         if part & side]
            for part, keep in cells:
                while part:
                    low = part & -part
                    part ^= low
                    x = low.bit_length() - 1
                    old = masks[x]
                    m = old & keep
                    if m != old:
                        if not m:
                            return -1
                        masks[x] = m
                        if not m & (m - 1):
                            queue.append(x)
            if closure is not None:
                for x, y in closure(a, b, f, done):
                    if x < 0 or y < 0:
                        return -1
                    if f[x] >= 0:
                        if f[x] != y:
                            return -1
                        continue
                    m = masks[x]
                    if not m >> y & 1:
                        return -1
                    if m != 1 << y:
                        masks[x] = 1 << y
                        queue.append(x)
        return free

    if not all(candidates):
        return None
    masks = list(candidates)
    f = [-1] * n
    queue = [a for a, m in enumerate(masks) if not m & (m - 1)]
    stack: list[tuple[int, int, list[int], list[int], int]] = []
    free = propagate(queue, masks, f, full)
    max_nodes = core._ISO_MAX_NODES
    nodes = 0
    while True:
        if free == 0:
            return f
        if free > 0:
            best, a, rest = n + 1, -1, free
            while rest:
                low = rest & -rest
                rest ^= low
                x = low.bit_length() - 1
                c = masks[x].bit_count()
                if c < best:
                    best, a = c, x
            cand = masks[a]
            stack.append((a, cand, masks, f, free))
        elif not stack:
            return None
        nodes += 1
        if nodes > max_nodes:
            raise SearchCutoffError(
                f"search too large: isomorphism search exceeded {max_nodes} nodes",
                limit=max_nodes)
        a, cand, saved_masks, saved_f, free = stack[-1]
        low = cand & -cand
        if cand == low:
            stack.pop()
            masks, f = saved_masks, saved_f
        else:
            stack[-1] = (a, cand ^ low, saved_masks, saved_f, free)
            masks, f = list(saved_masks), list(saved_f)
        masks[a] = low
        free = propagate([a], masks, f, free)


def eager_find_isomorphism(A: PartialBooleanAlgebra, B: PartialBooleanAlgebra
                           ) -> tuple[int, ...] | None:
    """``find_isomorphism``'s search as it was before the used-image mask,
    with a closure that returns every forced pair, and without the
    certificate: the map it finds, or None."""
    if A.n != B.n:
        return None
    candidates = _candidate_classes([_signature(A, a) for a in range(A.n)],
                                    [_signature(B, b) for b in range(B.n)])
    if candidates is None:
        return None
    cols_a, cols_b = _columns(A.comm), _columns(B.comm)
    relations = [(cols_a, cols_b)]
    if cols_a != list(A.comm) or cols_b != list(B.comm):
        relations.append((A.comm, B.comm))
    near = [r | c for r, c in zip(A.comm, cols_a)]

    def closure(a: int, b: int, f: list[int], done: int) -> list[tuple[int, int]]:
        forced = [(A.neg[a], B.neg[b])]
        rest = near[a] & done
        while rest:
            low = rest & -rest
            rest ^= low
            x = low.bit_length() - 1
            fx = f[x]
            p, q, fp, fq = (a, x, b, fx) if a < x else (x, a, fx, b)
            if A.comm[p] >> q & 1:
                forced.append((A.meet[p][q], B.meet[fp][fq]))
                forced.append((A.join[p][q], B.join[fp][fq]))
        return forced

    f = eager_isomorphism_search(candidates, relations, closure)
    return None if f is None else tuple(f)


# ---------------------------------------------------------------------------
# oracles for cocone assembly and mediation, and for maximal cliques
# ---------------------------------------------------------------------------

def cocone_legs_by_product(P: SubalgebraPoset, B: PartialBooleanAlgebra
                           ) -> list[dict[frozenset[int], dict[int, int]]]:
    """The legs of every cocone over the subalgebra diagram into B: one
    morphism per maximal member, taken in the overlap-greedy member order
    from the Hom lists in enumeration order, kept when every element gets
    one value.  Listed in ``itertools.product`` order."""
    order: list[frozenset[int]] = []
    remaining = [P.members[i] for i in P.maximal_indices()]
    covered: set[int] = set()
    while remaining:
        best = max(remaining, key=lambda m: (len(m & covered), -len(m)))
        order.append(best)
        covered |= best
        remaining.remove(best)
    homs = []
    for member in order:
        sub, embed = sub_algebra(P.algebra, member)
        homs.append([dict(zip(embed, h.map)) for h in enumerate_morphisms(sub, B)])
    out = []
    for combo in itertools.product(*homs):
        value: dict[int, int] = {}
        if all(value.setdefault(a, b) == b for leg in combo for a, b in leg.items()):
            out.append({m: {a: value[a] for a in m} for m in P.members})
    return out


def member_legs(P: SubalgebraPoset, c: Cocone) -> dict[frozenset[int], dict[int, int]]:
    """A block-family cocone spread out to one leg per member of P: each
    member takes its leg from the first block of ``c.maps`` that holds it,
    zipped with that block's map (so a short map leaves elements out); a
    member no block holds gets no leg."""
    blocks = [(set(block), block, h) for block, h in c.maps.items()]
    legs = {}
    for member in P.members:
        for elems, block, h in blocks:
            if member <= elems:
                legs[member] = {a: b for a, b in zip(block, h) if a in member}
                break
    return legs


def walk_check_cocone(A: PartialBooleanAlgebra, P: SubalgebraPoset,
                      apex: PartialBooleanAlgebra,
                      legs: dict[frozenset[int], dict[int, int]]) -> None:
    """The member-by-member cocone walk: each member's leg checked as a
    morphism out of the member's carrier, then every nested member pair
    compared.  A leg missing an element of its member raises a bare
    KeyError."""
    for member in P.members:
        if member not in legs:
            raise CoconeError(f"cocone lacks a leg for a member of size {len(member)}",
                              pair=(member, None))
        sub, embed = sub_algebra(A, member)
        leg = legs[member]
        f = PbaMorphism(sub, apex, tuple(leg[a] for a in embed))
        chk = check_morphism(f)
        if not chk.ok:
            raise CoconeError(f"cocone leg is not a morphism: {chk.message}",
                              pair=(member, None))
    for s in P.members:
        for t in P.members:
            if s < t:
                if any(legs[t][a] != legs[s][a] for a in s):
                    raise CoconeError(
                        "cocone legs disagree on a nested member pair",
                        pair=(s, t))


def walk_mediating_morphism(A: PartialBooleanAlgebra, P: SubalgebraPoset,
                            apex: PartialBooleanAlgebra,
                            legs: dict[frozenset[int], dict[int, int]]) -> PbaMorphism:
    """Mediation as a full walk over per-member legs: ``walk_check_cocone``,
    then m(x) from the subalgebra generated by x, one generated subalgebra
    per element, then a morphism check and a comparison with every leg."""
    walk_check_cocone(A, P, apex, legs)
    values = []
    for x in range(A.n):
        gen = generated_subalgebra(A, [x])
        values.append(legs[gen][x])
    m = PbaMorphism(A, apex, tuple(values))
    chk = check_morphism(m)
    if not chk.ok:
        raise InvalidAlgebraError(
            f"mediating map is not a morphism ({chk.message}); "
            "the input diagram is not a valid partial Boolean algebra")
    for member in P.members:
        for a in member:
            if m.map[a] != legs[member][a]:
                raise CoconeError("mediating map disagrees with a cocone leg",
                                  pair=(member, None))
    return m


def maximal_cliques_by_subsets(adj: list[int], n: int) -> list[int]:
    """Every vertex subset that is a clique and has no clique one vertex
    larger, as bitmasks in (popcount, value) order (small graphs only)."""
    def is_clique(mask: int) -> bool:
        return all((mask & ~(1 << v) & ~adj[v]) == 0 for v in range(n) if mask >> v & 1)

    cliques = [mask for mask in range(1 << n) if is_clique(mask)
               and not any(is_clique(mask | 1 << v) for v in range(n)
                           if not mask >> v & 1)]
    return sorted(cliques, key=lambda m: (m.bit_count(), m))


def bron_kerbosch_full_scan(adj: list[int], n: int) -> tuple[list[int], int]:
    """Reference Bron-Kerbosch whose pivot scan reads every u in P | X: the
    maximal cliques in (popcount, value) order and the number of (R, P, X)
    states the pivoted search visits."""
    cliques: list[int] = []
    stack = [(0, (1 << n) - 1, 0)]
    nodes = 0
    while stack:
        nodes += 1
        r, p, x = stack.pop()
        if p == 0 and x == 0:
            cliques.append(r)
            continue
        counts = [((p & adj[u]).bit_count(), -u) for u in range(n) if (p | x) >> u & 1]
        pivot = -max(counts)[1]
        children = []
        for v in range(n):
            if (p & ~adj[pivot]) >> v & 1:
                children.append((r | 1 << v, p & adj[v], x & adj[v]))
                p &= ~(1 << v)
                x |= 1 << v
        stack.extend(reversed(children))
    return sorted(cliques, key=lambda m: (m.bit_count(), m)), nodes


def crown(edges: list[tuple[int, int]]) -> list[int]:
    """Height-2 poset on minimal elements 0-3 and maximal elements 4-7, as
    row bitmasks of its order relation."""
    leq = [1 << i for i in range(8)]
    for lo, hi in edges:
        leq[lo] |= 1 << hi
    return leq


# ---------------------------------------------------------------------------
# a limit point as a family of spectrum points
# ---------------------------------------------------------------------------

def point_family(P: SubalgebraPoset, valuation: tuple[int, ...]
                 ) -> dict[frozenset[int], int]:
    """The spectrum point a two-valued valuation picks at each member of P:
    the member's one atom valued 1 (asserted to be exactly one)."""
    family = {}
    for member in P.members:
        true_atoms = [p for p in atoms_of_subalgebra(P.algebra, member)
                      if valuation[p] == 1]
        assert len(true_atoms) == 1, f"{len(true_atoms)} true atoms at {sorted(member)}"
        family[member] = true_atoms[0]
    return family


# ---------------------------------------------------------------------------
# the frame-map preservation report over every pair of frame elements, and
# reflecting commeasurability read off member diagrams
# ---------------------------------------------------------------------------

def frame_map_report_by_elements(fm: FrameMap, elements: Sequence[int]
                                 ) -> tuple[bool, tuple | None, tuple | None]:
    """``FrameMap.report`` as it was before it read the generators: top,
    then ``fm`` compared on ``|`` and on ``&`` of every pair of the listed
    source elements.  Returns (top preserved, join witness, meet witness),
    each witness two elements plus the first target member they differ at."""
    elems = list(elements)
    top_ok = fm(fm.src.top()) == fm.dst.top()
    images = {F: fm(F) for F in elems}
    witnesses = []
    for src_op, dst_op in ((fm.src.join, fm.dst.join),
                           (fm.src.meet, fm.dst.meet)):
        witness = None
        for F, G in itertools.combinations_with_replacement(elems, 2):
            H = src_op(F, G)
            img = images[H] if H in images else fm(H)
            expected = dst_op(images[F], images[G])
            if img != expected:
                witness = (F, G, next(
                    j for j in range(len(fm.dst.spectra))
                    if fm.dst.opens(img, j) != fm.dst.opens(expected, j)))
                break
        witnesses.append(witness)
    join_witness, meet_witness = witnesses
    return top_ok, join_witness, meet_witness


def reflects_commeasurability_by_diagram(f: PbaMorphism) -> bool:
    """The diagram formulation of reflecting commeasurability, independent
    of ``bohr.reflects_commeasurability``: whenever two members C, C' of
    the source land inside one target member D, some source member C''
    holds both and still lands inside D."""
    PA = boolean_subalgebras(f.dom)
    PB = boolean_subalgebras(f.cod)
    diagrammatic = True
    for C in PA.members:
        for Cp in PA.members:
            for D in PB.members:
                if not (member_image(f, C) <= D and member_image(f, Cp) <= D):
                    continue
                if not any(C <= Cpp and Cp <= Cpp and member_image(f, Cpp) <= D
                           for Cpp in PA.members):
                    diagrammatic = False
                    break
            if not diagrammatic:
                break
        if not diagrammatic:
            break
    return diagrammatic


# ---------------------------------------------------------------------------
# validation and tensor tables, walked cell by cell
# ---------------------------------------------------------------------------

def _walk_transport_violations(A: PartialBooleanAlgebra, elems: list[int]
                               ) -> list[Violation]:
    """The transport check of a block, every meet and join row walked cell
    by cell, and a cell off the block (UNDEF included) a wrong one."""
    lab = A.labels
    inside = set(elems)
    nonzero = [a for a in elems if a != A.zero]
    atoms = [a for a in nonzero
             if not any(b != a and A.meet[a][b] == b for b in nonzero)]
    k = len(atoms)
    if len(elems) != 1 << k:
        return [Violation("clique_not_boolean", tuple(elems[:3]),
                          f"clique of size {len(elems)} has {k} atoms")]
    mask_at: list[int | None] = [None] * (A.n + 1)
    seen_mask: dict[int, int] = {}
    for t in elems:
        m = sum(1 << i for i, a in enumerate(atoms) if A.meet[a][t] == a)
        if m in seen_mask:
            return [Violation("clique_not_boolean", (seen_mask[m], t),
                              f"elements {lab[seen_mask[m]]} and {lab[t]} sit "
                              "over the same atom set")]
        seen_mask[m] = t
        mask_at[t] = m
    full = (1 << k) - 1
    for t in elems:
        if A.neg[t] not in inside or mask_at[A.neg[t]] != full ^ mask_at[t]:
            return [Violation("complement", (t,),
                              f"neg({lab[t]}) is not the atomwise complement")]
    for a in elems:
        for b in elems:
            if mask_at[A.meet[a][b]] != mask_at[a] & mask_at[b]:
                return [Violation("clique_not_boolean", (a, b),
                                  f"meet({lab[a]}, {lab[b]}) is not the atom "
                                  "intersection")]
            if mask_at[A.join[a][b]] != mask_at[a] | mask_at[b]:
                return [Violation("clique_not_boolean", (a, b),
                                  f"join({lab[a]}, {lab[b]}) is not the atom "
                                  "union")]
    return []


def walk_validate(A: PartialBooleanAlgebra) -> ValidationReport:
    """validate with every row of the pair walk and of the transport check
    walked cell by cell: the reference for the row tests, which only pick
    the rows to walk."""
    out: list[Violation] = []
    lab = A.labels
    n = A.n
    for a in range(n):
        if not A.comm_pair(a, a):
            out.append(Violation("comm_reflexive", (a,), f"{lab[a]} not commeasurable with itself"))
        if not A.comm_pair(A.zero, a):
            out.append(Violation("comm_zero", (a,), f"0 not commeasurable with {lab[a]}"))
        if not A.comm_pair(A.one, a):
            out.append(Violation("comm_one", (a,), f"1 not commeasurable with {lab[a]}"))
        if not A.comm_pair(a, A.neg[a]):
            out.append(Violation("comm_neg", (a,), f"{lab[a]} not commeasurable with its negation"))
        if A.neg[A.neg[a]] != a:
            out.append(Violation("neg_involution", (a,),
                                 f"neg(neg({lab[a]})) = {lab[A.neg[A.neg[a]]]} != {lab[a]}"))
    if A.neg[A.zero] != A.one:
        out.append(Violation("neg_zero", (A.zero,), "neg(0) != 1"))
    for a in range(n):
        for b in range(a, n):
            if A.comm_pair(a, b) != A.comm_pair(b, a):
                out.append(Violation("comm_symmetric", (a, b),
                                     f"comm asymmetric on ({lab[a]}, {lab[b]})"))
            for name, table in (("meet", A.meet), ("join", A.join)):
                for p, q in ((a, b), (b, a)):
                    defined = A.comm_pair(p, q)
                    if (table[p][q] != UNDEF) != defined:
                        word = "undefined on commeasurable" if defined else "defined on non-commeasurable"
                        out.append(Violation("op_defined_iff_comm", (p, q),
                                             f"{name} {word} pair ({lab[p]}, {lab[q]})"))
                        break
                if table[a][b] != table[b][a]:
                    out.append(Violation(f"{name}_commutative", (a, b),
                                         f"{name} not commutative on ({lab[a]}, {lab[b]})"))
    if not any(v.rule.startswith(("comm_", "neg_", "op_defined")) for v in out):
        for clique in maximal_cliques(A):
            out.extend(_walk_transport_violations(A, list(_bits(clique))))
    return ValidationReport(tuple(out))


def walk_block_tables(n: int, objects: Iterable[Sequence[int]]):
    """neg, meet and join written from each block's element list, one row
    and one cell at a time, as tensor_product wrote them before its
    scatter: each cell compared with its value so far, AmalgamError at the
    first conflict.  The reference for core.block_tables."""
    neg = [UNDEF] * n
    meet = [[UNDEF] * n for _ in range(n)]
    join = [[UNDEF] * n for _ in range(n)]
    for local in objects:
        full = len(local) - 1
        for mask, e in enumerate(local):
            if neg[e] not in (UNDEF, local[full ^ mask]):
                raise AmalgamError("negation ill-defined on the tensor carrier")
            neg[e] = local[full ^ mask]
        for ma, e in enumerate(local):
            for name, table, op in (("meet", meet, int.__and__), ("join", join, int.__or__)):
                for mb, f in enumerate(local):
                    v = local[op(ma, mb)]
                    if table[e][f] not in (UNDEF, v):
                        raise AmalgamError(f"{name} ill-defined on the tensor carrier")
                    table[e][f] = v
    return tuple(neg), tuple(map(tuple, meet)), tuple(map(tuple, join))


# ---------------------------------------------------------------------------
# the projection closure walked one pair at a time
# ---------------------------------------------------------------------------

def walk_projection_closure(
    seeds: Sequence[np.ndarray], dim: int, tol: float,
    seed_labels: Sequence[str] = (),
) -> tuple[PartialBooleanAlgebra, list[np.ndarray], list[int]]:
    """matrixalg._projection_closure as it was before its stacked
    commutator test: each turn complements projection i and tests,
    multiplies and adds each earlier j < i in its own iteration.  The
    reference for the batched closure's pool order and its output."""
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
        comp.append(pool.add(eye - p))
        for j in range(i):
            q = pool.mats[j]
            qp = q @ p
            if float(np.abs(qp - p @ q).max()) > tol:
                continue
            meets.append((j, i, pool.add(qp)))
            joins.append((j, i, pool.add(q + p - qp)))
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


# ---------------------------------------------------------------------------
# exhaustive oracles for validation, generated subalgebras and the
# subalgebra poset's reports
# ---------------------------------------------------------------------------

def boolean_axiom_oracle(A: PartialBooleanAlgebra, elems: list[int]) -> list[Violation]:
    """Check that a clique, with the restricted operations, is a Boolean
    algebra: closure, then bounds, complements, absorption, associativity
    and distributivity, each axiom looped over every pair or triple at
    every size.  The first violation of each rule is reported.  The
    independent oracle for the block decoder, which it never calls; cubic,
    so for blocks of up to a few dozen elements."""
    out = []
    lab = A.labels
    inside = set(elems)
    first = {}  # rule -> already reported

    def report(rule, witness, message):
        if rule not in first:
            first[rule] = True
            out.append(Violation(rule, witness, message))

    for a in elems:
        if A.neg[a] not in inside:
            report("clique_closed_neg", (a,), f"clique not closed under neg at {lab[a]}")
    # the pairs (a, b) with b at or after a in elems, one row at a time; a
    # row whose cells all lie in the clique (UNDEF never does) is clean, and
    # only the other rows are walked cell by cell for their witnesses
    gather = _gather(elems)
    for i, a in enumerate(elems):
        row_m = gather(A.meet[a])[i:]
        row_j = gather(A.join[a])[i:]
        if inside.issuperset(row_m) and inside.issuperset(row_j):
            continue
        for b, m, j in zip(elems[i:], row_m, row_j):
            if m == UNDEF or j == UNDEF:
                report("op_undefined_on_comm", (a, b),
                       f"meet/join undefined on commeasurable pair ({lab[a]}, {lab[b]})")
                continue
            if m not in inside or j not in inside:
                report("clique_closed_ops", (a, b),
                       f"clique not closed under meet/join at ({lab[a]}, {lab[b]})")
    if out:
        return out  # closure failed; deeper axioms would read bad cells

    # the rows as tuples, each read once: the cubic loops below index them
    # at tuple speed, not through a large carrier's Rows
    meet = tuple(A.meet)
    join = tuple(A.join)
    # the closure pass reads each row from a on; the loops below index every
    # cell, so an UNDEF before the diagonal stops them here
    for i, a in enumerate(elems):
        for b in elems[:i]:
            if meet[a][b] == UNDEF or join[a][b] == UNDEF:
                report("op_undefined_on_comm", (a, b),
                       f"meet/join undefined on commeasurable pair ({lab[a]}, {lab[b]})")
    if out:
        return out
    for a in elems:
        if meet[a][A.one] != a or join[a][A.zero] != a:
            report("bounds", (a,), f"0/1 are not bounds at {lab[a]}")
        if meet[a][A.neg[a]] != A.zero or join[a][A.neg[a]] != A.one:
            report("complement", (a,), f"neg({lab[a]}) is not a complement")
    for a, b in itertools.combinations(elems, 2):
        if join[a][meet[a][b]] != a or meet[a][join[a][b]] != a:
            report("absorption", (a, b), f"absorption fails at ({lab[a]}, {lab[b]})")
    for a, b, c in itertools.combinations_with_replacement(elems, 3):
        # associativity and distributivity, all rotations
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            if meet[meet[x][y]][z] != meet[x][meet[y][z]]:
                report("assoc_meet", (x, y, z),
                       f"meet not associative at ({lab[x]}, {lab[y]}, {lab[z]})")
            if join[join[x][y]][z] != join[x][join[y][z]]:
                report("assoc_join", (x, y, z),
                       f"join not associative at ({lab[x]}, {lab[y]}, {lab[z]})")
            if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
                report("distributive", (x, y, z),
                       f"meet does not distribute over join at ({lab[x]}, {lab[y]}, {lab[z]})")
            if join[x][meet[y][z]] != meet[join[x][y]][join[x][z]]:
                report("distributive", (x, y, z),
                       f"join does not distribute over meet at ({lab[x]}, {lab[y]}, {lab[z]})")
    return out


def extension_clause_oracle(A: PartialBooleanAlgebra) -> bool:
    """Slow oracle for the extension clause: every pairwise-commeasurable
    subset is contained in some pairwise-commeasurable, operation-closed,
    Boolean superset.  Exhaustive over all subsets; use for small carriers.
    """
    cliques = maximal_cliques(A)
    good: list[set[int]] = []
    for clique in cliques:
        elems = list(_bits(clique))
        if not boolean_axiom_oracle(A, elems):
            good.append(set(elems))
    for r in range(1, A.n + 1):
        for subset in itertools.combinations(range(A.n), r):
            if all(A.comm_pair(a, b) for a, b in itertools.combinations(subset, 2)):
                if not any(set(subset) <= g for g in good):
                    return False
    return True


def generated_subalgebra_oracle(A: PartialBooleanAlgebra, S: Iterable[int]) -> frozenset[int]:
    """Independent oracle: intersection of all operation-closed supersets of
    S ∪ {0, 1}.  Exponential; small carriers only."""
    S = set(_require_pairwise_comm(A, S)) | {A.zero, A.one}
    best: set[int] | None = None
    rest = [a for a in range(A.n) if a not in S]
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            candidate = S | set(extra)
            if not all(A.comm_pair(a, b) for a, b in itertools.combinations(candidate, 2)):
                continue
            ok = all(A.neg[a] in candidate for a in candidate)
            if ok:
                for a, b in itertools.combinations(candidate, 2):
                    if A.meet_of(a, b) not in candidate or A.join_of(a, b) not in candidate:
                        ok = False
                        break
            if ok and (best is None or len(candidate) < len(best)):
                best = candidate
        if best is not None:
            break  # supersets found at this size are minimal by construction
    if best is None:
        raise DomainError("no closed superset found; algebra invalid")
    return frozenset(best)


def hasse_edges_cubic(P: SubalgebraPoset) -> list[tuple[int, int]]:
    """Cover pairs (i, j) with member i directly below member j, by testing
    every third member k for i < k < j."""
    n = len(P.members)
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j or not P.contains(i, j):
                continue
            if not any(k != i and k != j and P.contains(i, k)
                       and P.contains(k, j) for k in range(n)):
                edges.append((i, j))
    return edges


def structure_report_cubic(P: SubalgebraPoset) -> StructureReport:
    """Least member, poset atoms, filteredness (every pair of members has a
    common upper bound) and the maximum, each by its definition."""
    A = P.algebra
    least = frozenset({A.zero, A.one})
    li = P.index_of(least)
    n = len(P.members)
    atoms = tuple(P.members[i] for i in range(n)
                  if i != li and not any(
                      j != li and j != i and P.contains(j, i) for j in range(n)))
    is_filtered = all(
        any(P.contains(i, k) and P.contains(j, k) for k in range(n))
        for i in range(n) for j in range(i + 1, n))
    maximum = None
    for i in range(n):
        if all(P.contains(j, i) for j in range(n)):
            maximum = P.members[i]
    return StructureReport(least=least, atoms=atoms,
                           is_filtered=is_filtered, maximum=maximum)


def poset_leq_by_subsets(members: Sequence[frozenset[int]]) -> tuple[int, ...]:
    """The inclusion rows of the members, one subset test per pair:
    ``leq[i]`` bit j iff member i is included in member j."""
    leq = []
    for s in members:
        row = 0
        for j, t in enumerate(members):
            if s <= t:
                row |= 1 << j
        leq.append(row)
    return tuple(leq)


def commeasurability_from_members(P: SubalgebraPoset) -> list[int]:
    """Recover the commeasurability relation from the poset: a ⊙ b iff both
    belong to some member.  Used as a structural cross-check."""
    A = P.algebra
    comm = [0] * A.n
    for member in P.members:
        for a in member:
            for b in member:
                comm[a] |= 1 << b
    return comm


def report_text(P: SubalgebraPoset) -> str:
    """Human-readable structure report: members by label plus Hasse edges."""
    A = P.algebra
    rep = structure_report(P)
    lines = [f"subalgebra poset of a {A.n}-element algebra: {len(P.members)} members"]
    for i, member in enumerate(P.members):
        names = ",".join(A.labels[a] for a in sorted(member))
        lines.append(f"  member {i}: {{{names}}}")
    lines.append("hasse edges: " + " ".join(
        f"{i}<{j}" for i, j in P.hasse_edges()))
    lines.append(f"least: {{{','.join(A.labels[a] for a in sorted(rep.least))}}}")
    lines.append(f"atoms: {len(rep.atoms)}")
    lines.append(f"filtered: {'yes' if rep.is_filtered else 'no'}")
    if rep.maximum is not None:
        lines.append("maximum: present")
    return "\n".join(lines)
