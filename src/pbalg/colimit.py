"""Categorical constructions in the finite fragment: mediating morphisms and
colimit verification over the Boolean subalgebra diagram, coproducts,
products, equalizers, Boolean free products, and the commeasurable tensor
product with its factorization criterion.

Colimit carriers are built by amalgamation: quotient the disjoint union of
the diagram carriers by the equivalence generated by the diagram maps, read
commeasurability off shared objects, and certify the result by validation
and universal-property checks.  Conflicting identifications raise rather
than being repaired.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import (
    AmalgamError,
    CoconeError,
    DomainError,
    InvalidAlgebraError,
    PbalgError,
    SearchCutoffError,
)
from .core import (
    UNDEF,
    PartialBooleanAlgebra,
    PbaMorphism,
    _bit_positions,
    _block_algebra,
    _boolean_block,
    _compile_clauses,
    _count_morphisms,
    _satisfies_clauses,
    _target_blocks,
    atoms_of_subalgebra,
    boolean_algebra,
    check_morphism,
    compose,
    generated_subalgebra,
    maximal_cliques,
    sub_algebra,
    validate,
)
from .poset import boolean_subalgebras


# ---------------------------------------------------------------------------
# Cocones over the subalgebra diagram
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cocone:
    """A cocone over the Boolean subalgebra diagram of A into an apex, given
    by its maps on the maximal blocks of A, which cover A and so fix it:
    ``maps[block]`` lists the images of ``block``'s elements (ascending, the
    key) in that order.  A member's leg is the map of a block holding it,
    restricted to the member."""

    apex: PartialBooleanAlgebra
    maps: Mapping[tuple[int, ...], Sequence[int]]

    def leg(self, member: frozenset[int]) -> dict[int, int]:
        """The leg on ``member``, read off the first block map whose block
        holds it; KeyError if no block does."""
        for block, h in self.maps.items():
            if member.issubset(block):
                return {a: b for a, b in zip(block, h) if a in member}
        raise KeyError(member)


def _block_keys(A: PartialBooleanAlgebra) -> list[tuple[int, ...]]:
    """The maximal blocks of A as a cocone's keys, in ``maximal_cliques``
    order."""
    return [tuple(_bit_positions(q)) for q in maximal_cliques(A)]


def inclusion_cocone(A: PartialBooleanAlgebra) -> Cocone:
    """The tautological cocone: every leg is the inclusion into A itself."""
    return Cocone(apex=A, maps={block: block for block in _block_keys(A)})


def cocone_from_morphism(A: PartialBooleanAlgebra, f: PbaMorphism) -> Cocone:
    """Restrict a morphism out of A to every maximal block."""
    return Cocone(apex=f.cod, maps={block: tuple([f.map[a] for a in block])
                                    for block in _block_keys(A)})


def mediating_morphism(A: PartialBooleanAlgebra, c: Cocone) -> PbaMorphism:
    """The unique morphism m with m ∘ i_C = leg_C for every member C.

    The maximal blocks cover A, so their maps pin m at every element; every
    commeasurable pair lies in one of them, so m is a morphism exactly when
    each block map is one; and every member lies in one, so each leg is
    then m restricted to its member.  The certificate is therefore: the
    cocone's blocks are exactly the maximal cliques of A, each map covers
    its block inside the apex, the maps agree where blocks overlap, and the
    flattened map passes one ``check_morphism``.  The first fault, in that
    order, raises CoconeError naming the block at fault (for a
    disagreement, the block that set the element and the one that differs)."""
    blocks = _block_keys(A)
    maps = c.maps
    for block in blocks:
        if block not in maps:
            raise CoconeError(f"cocone lacks a map for a maximal block of size {len(block)}",
                              pair=(block, None))
    if len(maps) != len(blocks):
        known = set(blocks)
        raise CoconeError("cocone has a map for a set that is not a maximal block",
                          pair=(next(k for k in maps if k not in known), None))
    n = c.apex.n
    m: list[int] = [-1] * A.n
    owner: list[tuple[int, ...]] = [()] * A.n
    for block in blocks:
        h = maps[block]
        if len(h) != len(block):
            raise CoconeError("cocone map does not cover its block", pair=(block, None))
        if min(h) < 0 or max(h) >= n:
            raise CoconeError("cocone map leaves the apex", pair=(block, None))
        for a, b in zip(block, h):
            if owner[a]:
                if m[a] != b:
                    raise CoconeError("cocone maps disagree on a shared element",
                                      pair=(owner[a], block))
            else:
                m[a], owner[a] = b, block
    f = PbaMorphism(A, c.apex, tuple(m))
    chk = check_morphism(f)
    if not chk.ok:
        at = set(chk.witness)
        raise CoconeError(f"cocone map is not a morphism: {chk.message}",
                          pair=(next(b for b in blocks if at.issubset(b)), None))
    return f


# ---------------------------------------------------------------------------
# Cocone generation and colimit verification
# ---------------------------------------------------------------------------

# a maximal block of A: (its elements ascending, its atom count, the atom
# set below each of those elements)
_Block = tuple[tuple[int, ...], int, list[int]]


def _maximal_blocks(A: PartialBooleanAlgebra) -> list[_Block]:
    """The maximal blocks of A (the maximal cliques of commeasurability,
    which are its maximal Boolean members) in overlap-greedy order.  Raises
    InvalidAlgebraError unless every block is the Boolean algebra on its
    atoms."""
    # overlap-greedy ordering: each new block should share as many elements
    # as possible with the ones already placed, so that compatibility
    # constraints prune the assembly early; ties go to the first block in
    # the member order of the subalgebra poset (size, then element tuple)
    remaining = sorted((tuple(_bit_positions(c)) for c in maximal_cliques(A)),
                       key=lambda t: (len(t), t))
    blocks = []
    covered: set[int] = set()
    while remaining:
        embed = max(remaining, key=lambda t: (len(covered.intersection(t)), -len(t)))
        covered.update(embed)
        remaining.remove(embed)
        atoms, below, _ = _boolean_block(A, embed)
        blocks.append((embed, len(atoms), below))
    return blocks


def _block_homs(k: int, subsets: Sequence[int],
                targets: Sequence[tuple[int, list[int]]],
                max_nodes: int) -> list[tuple[int, ...]]:
    """Every morphism from a Boolean block with ``k`` atoms into B, as maps
    on the block's elements (``subsets[p]``: the atom set below element p),
    sorted.  A morphism sends the block into one block of B (``targets``:
    each block's atom count r and its element per atom set), and there it is
    the Boolean homomorphism of a function φ from the r atoms of that block
    to the k atoms: x goes to the join of the atoms φ sends below x.  Each φ
    is one node; past ``max_nodes`` this raises SearchCutoffError."""
    if sum(k ** r for r, _ in targets) > max_nodes:
        raise SearchCutoffError(
            f"search too large: morphism enumeration exceeded {max_nodes} nodes",
            limit=max_nodes)
    size = 1 << k
    homs = set()
    for r, element in targets:
        for phi in itertools.product(range(k), repeat=r):
            pre = [0] * k  # the B-atoms sent to each atom, as a bitmask
            for j, i in enumerate(phi):
                pre[i] |= 1 << j
            image = [0] * size
            for s in range(1, size):
                low = s & -s
                image[s] = image[s ^ low] | pre[low.bit_length() - 1]
            homs.add(tuple([element[image[s]] for s in subsets]))
    return sorted(homs)


def _assemble(blocks: Sequence[_Block], B: PartialBooleanAlgebra, limit: int | None,
              max_nodes: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every compatible family of morphisms from the ``blocks`` of
    ``_maximal_blocks`` into B, each as its tuple of per-block maps (on each
    block's elements ascending), in the order of ``itertools.product`` over
    the blocks' Hom lists; with ``limit``, only the first ``limit``.

    Each function between atom sets behind a Hom list is one node, as is
    each compatible family of maps on a prefix of the blocks; past
    ``max_nodes``, counted apart for each list and for the assembly, it
    raises SearchCutoffError.  Once ``limit`` families are found, every
    prefix still pending counts as one more node."""
    targets = _target_blocks(B)
    # join index: block k's Hom list grouped by the images of the elements
    # it shares with blocks 0..k-1, each group held as the stack entries
    # (k + 1, map) in reverse list order; ``sources[k]`` says where the maps
    # chosen for those blocks hold the shared elements
    position: dict[int, tuple[int, int]] = {}
    sources: list[list[tuple[int, int]]] = []
    index: list[dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]]] = []
    for k, (embed, rank, subsets) in enumerate(blocks):
        shared = [p for p, a in enumerate(embed) if a in position]
        sources.append([position[embed[p]] for p in shared])
        groups: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
        for h in reversed(_block_homs(rank, subsets, targets, max_nodes)):
            key = tuple([h[p] for p in shared])
            groups.setdefault(key, []).append((k + 1, h))
        index.append(groups)
        for p, a in enumerate(embed):
            position.setdefault(a, (k, p))

    # one explicit stack of compatible prefixes, each entry (k, map chosen
    # for block k - 1) with its parent's choices still in ``chosen``
    depth = len(blocks)
    chosen: list[tuple[int, ...]] = [()] * depth
    found: list[tuple[tuple[int, ...], ...]] = []
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    nodes = 0
    while stack:
        k, cand = stack.pop()
        capped = limit is not None and len(found) >= limit
        nodes += (1 + len(stack)) if capped else 1
        if nodes > max_nodes:
            raise SearchCutoffError(
                f"search too large: cocone assembly exceeded {max_nodes} nodes",
                limit=max_nodes)
        if capped:
            break
        if k:
            chosen[k - 1] = cand
        if k == depth:
            found.append(tuple(chosen))
            continue
        stack.extend(index[k].get(tuple([chosen[j][p] for j, p in sources[k]]), ()))
    return found


def _flatten(blocks: Sequence[_Block], maps: Sequence[tuple[int, ...]], n: int) -> list[int]:
    """The element map of one assembled family: the blocks cover every
    element, and their maps agree where they overlap."""
    m = [0] * n
    for (embed, _, _), h in zip(blocks, maps):
        for a, b in zip(embed, h):
            m[a] = b
    return m


# Node budget of the cocone assembly, counted apart for each block's Hom
# list and for the assembly.
_COCONE_MAX_NODES = 2_000_000


def cocones_into(A: PartialBooleanAlgebra, B: PartialBooleanAlgebra,
                 max_cocones: int | None = None,
                 rng: random.Random | None = None) -> list[Cocone]:
    """All cocones over the subalgebra diagram of A into B, assembled from
    compatible families of morphisms on the maximal blocks.  When
    ``max_cocones`` is given and fewer cocones are wanted than exist, a
    deterministic seeded sample is returned.

    Each block's Hom list is read off Boolean blocks: each block of A and
    of B must be the Boolean algebra on its atoms (else
    InvalidAlgebraError), and the list is ``enumerate_morphisms`` over the
    block's carrier, in its order.  Each function between atom sets behind a
    list is one node, as is each compatible family of maps on a prefix of
    the blocks; past ``_COCONE_MAX_NODES``, counted apart for each list and
    for the assembly, it raises SearchCutoffError."""
    return _cocones(_maximal_blocks(A), B, max_cocones, rng)


def _cocones(blocks: Sequence[_Block], B: PartialBooleanAlgebra,
             max_cocones: int | None, rng: random.Random | None) -> list[Cocone]:
    """``cocones_into`` over the ``blocks`` of ``_maximal_blocks(A)``."""
    # with sampling requested, enumerate a deterministic prefix several times
    # larger than the sample and draw from it; unbounded enumeration of the
    # full cocone space can explode combinatorially
    hard_cap = None
    if max_cocones is not None:
        hard_cap = max_cocones if rng is None else max(64 * max_cocones, 512)
    found = _assemble(blocks, B, hard_cap, _COCONE_MAX_NODES)
    if max_cocones is not None and rng is not None and len(found) > max_cocones:
        found = rng.sample(found, max_cocones)
    embeds = [embed for embed, _, _ in blocks]
    return [Cocone(apex=B, maps=dict(zip(embeds, maps))) for maps in found]


@dataclass(frozen=True)
class ColimitEntry:
    target_n: int
    cocone_index: int
    mediates: bool
    is_morphism: bool
    unique: bool
    uniqueness_route: str  # "filtered-enumeration" or "constrained-search"


@dataclass(frozen=True)
class ColimitReport:
    entries: tuple[ColimitEntry, ...]
    cocones_checked: int

    @property
    def ok(self) -> bool:
        return all(e.mediates and e.is_morphism and e.unique for e in self.entries)


# Node budget of the unconstrained morphism search behind verify_colimit's
# "filtered-enumeration" route, decided by the search's exact frontier count.
_FULL_ENUMERATION_MAX_NODES = 200_000

# verify_colimit's default targets, built once rather than on every call
_BOOLEAN_TARGETS = (boolean_algebra(1), boolean_algebra(2), boolean_algebra(3))


def verify_colimit(A: PartialBooleanAlgebra,
                   targets: Sequence[PartialBooleanAlgebra] = _BOOLEAN_TARGETS,
                   max_cocones_per_target: int = 8,
                   seed: int = 0,
                   max_apex: int = 16) -> ColimitReport:
    """Check that A is the colimit of its Boolean subalgebra diagram against
    generated trial cocones: the mediating morphism exists, is a morphism,
    satisfies the cocone equations, and is the only morphism that does.

    ``mediating_morphism`` certifies existence: it raises unless the
    cocone's block maps agree where the blocks overlap and flatten to a
    morphism.  The maximal blocks cover A, so those maps pin the map
    everywhere and it is the only candidate ("constrained-search").  When
    the unconstrained morphism search out of A fits
    ``_FULL_ENUMERATION_MAX_NODES`` (a frontier count of its exact node
    total decides this once per target),
    the mediating map is also walked through that search's compiled
    clauses: an independent check that the search would list it
    ("filtered-enumeration").  Apexes larger than ``max_apex`` are rejected.
    """
    for B in targets:
        if B.n > max_apex:
            raise DomainError(f"apex of size {B.n} exceeds max_apex={max_apex}")
    blocks = _maximal_blocks(A)
    rng = random.Random(seed)
    entries: list[ColimitEntry] = []
    for B in targets:
        cocones = _cocones(blocks, B, max_cocones_per_target, rng)
        clauses = _compile_clauses(A, B)
        counted = _count_morphisms(clauses, _FULL_ENUMERATION_MAX_NODES)
        route = "constrained-search" if counted is None else "filtered-enumeration"
        for ci, c in enumerate(cocones):
            m = mediating_morphism(A, c)
            entries.append(ColimitEntry(
                target_n=B.n, cocone_index=ci, mediates=True, is_morphism=True,
                unique=counted is None or _satisfies_clauses(clauses, m.map),
                uniqueness_route=route))
    return ColimitReport(entries=tuple(entries), cocones_checked=len(entries))


# ---------------------------------------------------------------------------
# Coproducts, products, equalizers
# ---------------------------------------------------------------------------

def coproduct(algs: Sequence[PartialBooleanAlgebra]) -> tuple[PartialBooleanAlgebra, list[PbaMorphism]]:
    """Disjoint union with all bottoms identified and all tops identified;
    elements of different summands are never commeasurable.  The empty
    coproduct is the initial algebra {0, 1}."""
    for A in algs:
        if A.zero == A.one:
            raise DomainError("coproduct summands must have 0 distinct from 1")
    offsets = []
    labels = ["0", "1"]
    origin = []  # (summand, element) per nontrivial carrier slot
    for si, A in enumerate(algs):
        offsets.append(len(labels))
        for a in A.nontrivial():
            labels.append(A.labels[a])
            origin.append((si, a))
    n = len(labels)
    if n == 2 and not algs:
        return boolean_algebra(1), []

    seen: set[str] = set()
    for i, lab in enumerate(labels):
        if lab in seen and i >= 2:
            base = f"{lab}_{origin[i - 2][0]}"
            candidate = base
            k = 0
            while candidate in seen:
                k += 1
                candidate = f"{base}.{k}"
            labels[i] = candidate
        seen.add(labels[i])

    pos: list[dict[int, int]] = []
    for si, A in enumerate(algs):
        table = {A.zero: 0, A.one: 1}
        nontriv = A.nontrivial()
        for k, a in enumerate(nontriv):
            table[a] = offsets[si] + k
        pos.append(table)

    # the maximal blocks of the coproduct are those of its summands
    out = _block_algebra(n, [[pos[si][e] for e in element]
                             for si, A in enumerate(algs) for _, element in _target_blocks(A)],
                         0, 1, tuple(labels))
    report = validate(out)
    if not report.ok:
        raise InvalidAlgebraError("coproduct carrier fails validation", report=report)
    injections = [PbaMorphism(A, out, tuple(pos[si][a] for a in A.elements()))
                  for si, A in enumerate(algs)]
    for inj in injections:
        chk = check_morphism(inj)
        if not chk.ok:
            raise AmalgamError(f"coproduct injection fails: {chk.message}")
    return out, injections


def product(algs: Sequence[PartialBooleanAlgebra]) -> tuple[PartialBooleanAlgebra, list[PbaMorphism]]:
    """Cartesian product with commeasurability and operations defined
    componentwise.  The empty product is the terminal one-element algebra."""
    if not algs:
        return boolean_algebra(0), []
    tuples = list(itertools.product(*[range(A.n) for A in algs]))
    labels = ["(" + ",".join(A.labels[x] for A, x in zip(algs, t)) + ")"
              for t in tuples]
    # the maximal blocks of the product are the products of its factors'
    # maximal blocks, each on its factors' atoms in turn: a tuple's index
    # grows by one factor's element at a time, as in itertools.product
    blocks = [[0]]
    for A in algs:
        blocks = [[p * A.n + e for e in element for p in local]
                  for local in blocks for _, element in _target_blocks(A)]
    # every block holds zero at the empty atom set and one at the full one
    out = _block_algebra(len(tuples), blocks, blocks[0][0], blocks[0][-1], tuple(labels))
    report = validate(out)
    if not report.ok:
        raise InvalidAlgebraError("product carrier fails validation", report=report)
    projections = [PbaMorphism(out, A, tuple(t[k] for t in tuples))
                   for k, A in enumerate(algs)]
    for p in projections:
        chk = check_morphism(p)
        if not chk.ok:
            raise PbalgError(f"product projection fails: {chk.message}")
    return out, projections


def equalizer(f: PbaMorphism, g: PbaMorphism) -> tuple[PartialBooleanAlgebra, PbaMorphism]:
    """The subalgebra {a : f(a) = g(a)} with inherited structure, plus its
    inclusion."""
    if f.dom != g.dom or f.cod != g.cod:
        raise DomainError("equalizer needs a parallel pair")
    S = [a for a in f.dom.elements() if f.map[a] == g.map[a]]
    sub, embed = sub_algebra(f.dom, S)
    report = validate(sub)
    if not report.ok:
        raise InvalidAlgebraError("equalizer carrier fails validation", report=report)
    return sub, PbaMorphism(sub, f.dom, embed)


# ---------------------------------------------------------------------------
# Boolean free products
# ---------------------------------------------------------------------------

def boolean_coproduct(C: PartialBooleanAlgebra, D: PartialBooleanAlgebra
                      ) -> tuple[PartialBooleanAlgebra, PbaMorphism, PbaMorphism]:
    """The coproduct of two finite total Boolean algebras: the free product,
    whose atoms are the pairs of atoms."""
    for X in (C, D):
        if not X.is_total():
            raise DomainError("boolean coproduct needs total Boolean inputs")
    atoms_c = atoms_of_subalgebra(C, frozenset(C.elements()))
    atoms_d = atoms_of_subalgebra(D, frozenset(D.elements()))
    k = len(atoms_c) * len(atoms_d)
    out = boolean_algebra(k)
    pair_index = {(c, d): i for i, (c, d) in
                  enumerate(itertools.product(atoms_c, atoms_d))}

    def inj_c(x: int) -> int:
        mask = 0
        for (c, d), i in pair_index.items():
            if C.meet[c][x] == c:
                mask |= 1 << i
        return mask

    def inj_d(y: int) -> int:
        mask = 0
        for (c, d), i in pair_index.items():
            if D.meet[d][y] == d:
                mask |= 1 << i
        return mask

    kc = PbaMorphism(C, out, tuple(inj_c(x) for x in C.elements()))
    kd = PbaMorphism(D, out, tuple(inj_d(y) for y in D.elements()))
    for k in (kc, kd):
        chk = check_morphism(k)
        if not chk.ok:
            raise AmalgamError(f"free product injection fails: {chk.message}")
    return out, kc, kd


# ---------------------------------------------------------------------------
# The commeasurable tensor product
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorResult:
    algebra: PartialBooleanAlgebra
    kappa_a: PbaMorphism
    kappa_b: PbaMorphism
    # decomposition of every carrier element for factorization: a tuple of
    # atom pairs (element of A, element of B) whose images join to it
    atom_pairs: tuple[tuple[tuple[int, int], ...], ...]


# tensor grid slots, summed over its objects, past which tensor_product stops
_TENSOR_MAX_SLOTS = 50_000_000


def tensor_product(A: PartialBooleanAlgebra, B: PartialBooleanAlgebra,
                   max_carrier: int = 5000) -> TensorResult:
    """Amalgamated colimit of the grid of Boolean free products of members
    of the two subalgebra diagrams.  Elements coming from the two factors
    are always commeasurable, unlike in the coproduct.  The carrier is
    certified by validation; conflicting identifications raise AmalgamError.
    """
    PA = boolean_subalgebras(A)
    PB = boolean_subalgebras(B)
    atoms_a = [atoms_of_subalgebra(A, m) for m in PA.members]
    atoms_b = [atoms_of_subalgebra(B, m) for m in PB.members]

    # object (i, j): free product on atom pairs atoms_a[i] x atoms_b[j];
    # its elements are submasks over those pairs
    pair_lists: dict[tuple[int, int], list[tuple[int, int]]] = {}
    obj_offsets: dict[tuple[int, int], int] = {}
    total = 0
    objects = [(i, j) for i in range(len(PA.members)) for j in range(len(PB.members))]
    for obj in objects:
        i, j = obj
        pairs = list(itertools.product(atoms_a[i], atoms_b[j]))
        pair_lists[obj] = pairs
        obj_offsets[obj] = total
        total += 1 << len(pairs)
        if total > _TENSOR_MAX_SLOTS:
            raise SearchCutoffError("tensor grid too large", limit=_TENSOR_MAX_SLOTS)

    parent = list(range(total))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    def slot(obj, mask: int) -> int:
        return obj_offsets[obj] + mask

    # atom splitting along inclusions: atom p of the smaller member is the
    # join of the atoms of the larger member below it
    def atom_split(X: PartialBooleanAlgebra, small: list[int], large: list[int]
                   ) -> dict[int, list[int]]:
        return {p: [q for q in large if X.meet[q][p] == q] for p in small}

    # Each inclusion of grid objects refines atoms, so it is a Boolean
    # homomorphism, and the refinement into a larger object factors through
    # every object between.  Uniting each object with the maximal objects
    # above it therefore generates the same equivalence as uniting it with
    # every object above it.
    maximal = [(i, j) for i in PA.maximal_indices() for j in PB.maximal_indices()]
    for (i, j) in objects:
        for (i2, j2) in maximal:
            if (i2, j2) == (i, j):
                continue
            if not (PA.contains(i, i2) and PB.contains(j, j2)):
                continue
            split_a = atom_split(A, atoms_a[i], atoms_a[i2])
            split_b = atom_split(B, atoms_b[j], atoms_b[j2])
            dst_index = {p: k for k, p in enumerate(pair_lists[(i2, j2)])}
            targets = [0]   # targets[mask]: the image of the submask mask
            for (pa, pb) in pair_lists[(i, j)]:
                m = 0
                for qa in split_a[pa]:
                    for qb in split_b[pb]:
                        m |= 1 << dst_index[(qa, qb)]
                targets += [t | m for t in targets]
            src, dst = slot((i, j), 0), slot((i2, j2), 0)
            for mask, target in enumerate(targets):
                union(src + mask, dst + target)

    # classes, canonically ordered with 0 first and 1 second
    root_of = [find(s) for s in range(total)]
    zero_root = root_of[slot(objects[0], 0)]
    one_root = root_of[slot(objects[0], (1 << len(pair_lists[objects[0]])) - 1)]
    roots = sorted(set(root_of), key=lambda r: (r != zero_root, r != one_root, r))
    if len(roots) > max_carrier:
        raise SearchCutoffError(
            f"tensor carrier has {len(roots)} elements, over the cutoff",
            limit=max_carrier)
    root_index = {r: i for i, r in enumerate(roots)}
    n = len(roots)
    zero_idx = root_index[zero_root]
    one_idx = root_index[one_root]

    # Every smaller object's entries are images of a maximal object's
    # entries under a Boolean homomorphism, so the maximal objects write
    # every distinct entry and meet every conflict.  Each one's elements
    # (local[mask] for each submask) form one block of T.  They cover T, so
    # every cell is in range and the constructor's range checks are skipped.
    labels = [f"t{i}" for i in range(n)]
    labels[zero_idx] = "0"
    if one_idx != zero_idx:
        labels[one_idx] = "1"
    T = _block_algebra(n, [
        list(map(root_index.__getitem__,
                 root_of[slot(obj, 0):slot(obj, 1 << len(pair_lists[obj]))]))
        for obj in maximal], zero_idx, one_idx, tuple(labels))
    report = validate(T)
    if not report.ok:
        raise AmalgamError(f"tensor carrier fails validation: {report}")

    # canonical injections: x goes through the object (<x>, <0>)
    least_b = PB.index_of(frozenset({B.zero, B.one}))
    least_a = PA.index_of(frozenset({A.zero, A.one}))

    def kappa_a_value(x: int) -> int:
        gi = PA.index_of(generated_subalgebra(A, [x]))
        obj = (gi, least_b)
        mask = 0
        for k, (pa, pb) in enumerate(pair_lists[obj]):
            if A.meet[pa][x] == pa:
                mask |= 1 << k
        return root_index[root_of[slot(obj, mask)]]

    def kappa_b_value(y: int) -> int:
        gj = PB.index_of(generated_subalgebra(B, [y]))
        obj = (least_a, gj)
        mask = 0
        for k, (pa, pb) in enumerate(pair_lists[obj]):
            if B.meet[pb][y] == pb:
                mask |= 1 << k
        return root_index[root_of[slot(obj, mask)]]

    ka = PbaMorphism(A, T, tuple(kappa_a_value(x) for x in A.elements()))
    kb = PbaMorphism(B, T, tuple(kappa_b_value(y) for y in B.elements()))
    for kmor in (ka, kb):
        chk = check_morphism(kmor)
        if not chk.ok:
            raise AmalgamError(f"canonical tensor injection fails: {chk.message}")

    # each class's root is its least slot, and slots run in (object, mask)
    # order, so the root is the class's least (object, mask) member
    offsets = [obj_offsets[obj] for obj in objects]
    decomp = []
    for r in roots:
        at = bisect_right(offsets, r) - 1
        obj, mask = objects[at], r - offsets[at]
        pairs = tuple(pair_lists[obj][k]
                      for k in range(len(pair_lists[obj])) if (mask >> k) & 1)
        decomp.append(pairs)
    return TensorResult(algebra=T, kappa_a=ka, kappa_b=kb,
                        atom_pairs=tuple(decomp))


@dataclass(frozen=True)
class FactorizationResult:
    morphism: PbaMorphism | None
    witness: tuple[int, int] | None

    @property
    def factorizes(self) -> bool:
        return self.morphism is not None


def tensor_factorization(f: PbaMorphism, g: PbaMorphism,
                         T: TensorResult | None = None) -> FactorizationResult:
    """Factor the cotuple of f and g through the tensor product of their
    domains: possible exactly when every f-image is commeasurable with every
    g-image; otherwise the first witnessing pair is returned."""
    if f.cod != g.cod:
        raise DomainError("factorization needs a common codomain")
    A, B, Z = f.dom, g.dom, f.cod
    for a in range(A.n):
        for b in range(B.n):
            if not Z.comm_pair(f.map[a], g.map[b]):
                return FactorizationResult(morphism=None, witness=(a, b))
    if T is None:
        T = tensor_product(A, B)
    values = []
    for pairs in T.atom_pairs:
        acc = Z.zero
        for (pa, pb) in pairs:
            v = Z.meet[f.map[pa]][g.map[pb]]
            if v == UNDEF:
                raise AmalgamError("cotuple values escape a common block")
            nxt = Z.join[acc][v]
            if nxt == UNDEF:
                raise AmalgamError("cotuple values escape a common block")
            acc = nxt
        values.append(acc)
    h = PbaMorphism(T.algebra, Z, tuple(values))
    chk = check_morphism(h)
    if not chk.ok:
        raise AmalgamError(f"factorizing map is not a morphism: {chk.message}")
    if compose(h, T.kappa_a).map != f.map or compose(h, T.kappa_b).map != g.map:
        raise AmalgamError("factorizing map does not restrict to the inputs")
    return FactorizationResult(morphism=h, witness=None)
