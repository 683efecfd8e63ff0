"""Deterministic corpus of partial Boolean algebras for verification runs:
named standard carriers plus a seeded generated family.

Everything here is reproducible: the generated corpus is a pure function of
its seed, and all named algebras are built from fixed data.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .core import (
    PartialBooleanAlgebra,
    PbaMorphism,
    block_hypergraph,
    boolean_algebra,
    from_orthomodular,
    mo_lattice,
    paste_blocks,
    validate,
)
from .colimit import coproduct, product
from .errors import InvalidAlgebraError, StructuralError

# the standard 18-ray, 9-basis Kochen-Specker set in dimension 4
CABELLO_RAYS: tuple[tuple[int, int, int, int], ...] = (
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
    (1, 1, 1, 1), (1, -1, 1, -1), (1, -1, -1, 1),
    (1, -1, -1, -1), (1, -1, 1, 1), (1, 1, 1, -1),
    (1, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1),
    (0, 1, 0, 1), (0, 1, 0, -1), (1, 0, -1, 0),
    (1, 0, 0, -1), (1, 0, 0, 1), (0, 1, -1, 0),
)

# the 24-ray Peres set in dimension 4; its bases overlap in up to two rays,
# and as contexts it closes to a 140-element Kochen-Specker carrier (kept as
# ray-file data)
PERES_RAYS: tuple[tuple[int, int, int, int], ...] = (
    (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2),
    (1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1),
    (1, -1, -1, -1), (1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1),
    (1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1),
    (0, 1, 0, 1), (0, 1, 0, -1), (1, 0, 1, 0), (1, 0, -1, 0),
    (1, 0, 0, -1), (1, 0, 0, 1), (0, 1, -1, 0), (0, 1, 1, 0),
)


def mo2_algebra() -> PartialBooleanAlgebra:
    """The six-element algebra: two four-element blocks glued at 0 and 1."""
    return from_orthomodular(mo_lattice(2))


def mo3_algebra() -> PartialBooleanAlgebra:
    return from_orthomodular(mo_lattice(3))


def paper_counterexample_morphism() -> PbaMorphism:
    """The block-collapsing map out of the six-element algebra into the
    four-element Boolean algebra: both blocks land on the same complement
    pair.  A morphism of partial Boolean algebras, but not a lattice map."""
    src = mo2_algebra()
    dst = boolean_algebra(2)
    c, c1 = 0b10, 0b01
    return PbaMorphism(src, dst, (dst.zero, dst.one, c, c1, c, c1))


@lru_cache(maxsize=None)
def cabello18_algebra() -> PartialBooleanAlgebra:
    """The partial Boolean algebra generated by the 18-ray projections (the
    closure has 140 elements over 24 Boolean blocks; admits no two-valued
    state)."""
    from .matrixalg import rays_to_pba

    return rays_to_pba(list(CABELLO_RAYS), 4).algebra


def chain_of_triangles(k: int) -> PartialBooleanAlgebra:
    """k three-atom blocks pasted in a chain, consecutive blocks sharing one
    atom."""
    blocks = []
    for i in range(k):
        blocks.append([f"a{2 * i}", f"a{2 * i + 1}", f"a{2 * i + 2}"])
    return paste_blocks(block_hypergraph(blocks))


def _random_hypergraph_algebra(rng: random.Random) -> PartialBooleanAlgebra | None:
    """One attempt at a random pasted algebra; None when the draw is not a
    Greechie diagram (two blocks share more than one atom) or the pasting
    is rejected (invalid hypergraph or invalid carrier)."""
    atom_count = rng.randint(4, 8)
    atoms = [f"a{i}" for i in range(atom_count)]
    blocks: list[list[str]] = []
    for _ in range(rng.randint(2, 3)):
        size = rng.choice([2, 3])
        blocks.append(rng.sample(atoms, size))
    # Greechie diagrams only: two blocks share at most one atom
    if any(len(set(b1) & set(b2)) > 1 for b1, b2 in itertools.combinations(blocks, 2)):
        return None
    try:
        h = block_hypergraph(blocks)
        A = paste_blocks(h)
    except (StructuralError, InvalidAlgebraError):
        return None
    return A if A.n <= 24 else None


def generated_corpus(count: int = 50, max_size: int = 24,
                     seed: int = 20260811) -> list[PartialBooleanAlgebra]:
    """At least ``count`` validated partial Boolean algebras, each with at
    most ``max_size`` elements: stock families, pastings, products,
    coproducts, and seeded random pastings.  Pure function of the seed."""
    out: list[PartialBooleanAlgebra] = []

    def push(A: PartialBooleanAlgebra):
        if A.n <= max_size and validate(A).ok:
            out.append(A)

    for k in range(0, 5):
        push(boolean_algebra(k))
    for k in range(2, 12):
        push(from_orthomodular(mo_lattice(k)))
    for k in range(2, 5):
        push(chain_of_triangles(k))
    push(paste_blocks(block_hypergraph(
        [["a", "b"], ["c", "d"], ["e", "f"], ["g", "h"]])))
    push(paste_blocks(block_hypergraph([["a", "b", "c", "d"], ["d", "e", "f", "g"]])))
    push(paste_blocks(block_hypergraph([["a", "b", "c"], ["c", "d"], ["d", "e", "f"]])))

    mo2 = mo2_algebra()
    b1, b2, b3 = boolean_algebra(1), boolean_algebra(2), boolean_algebra(3)
    push(product([b2, b2])[0])
    push(product([mo2, b1])[0])
    push(product([mo2, b2])[0])
    push(product([mo3_algebra(), b1])[0])
    push(coproduct([mo2, b2])[0])
    push(coproduct([mo2, mo2])[0])
    push(coproduct([b3, b2])[0])
    push(coproduct([b3, b3])[0])
    push(coproduct([mo2, b3, b2])[0])
    push(coproduct([chain_of_triangles(2), b2])[0])

    rng = random.Random(seed)
    attempts = 0
    while len(out) < count and attempts < 10_000:
        attempts += 1
        A = _random_hypergraph_algebra(rng)
        if A is not None:
            out.append(A)
    if len(out) < count:
        raise StructuralError("could not assemble the requested corpus size")
    return out


def small_corpus() -> list[PartialBooleanAlgebra]:
    """The bundled small carriers used for exhaustive morphism sweeps, each
    of at most 8 elements."""
    return [boolean_algebra(1), boolean_algebra(2), boolean_algebra(3),
            mo2_algebra(), mo3_algebra()]


def composable_morphism_pairs(limit: int = 20
                              ) -> list[tuple[PbaMorphism, PbaMorphism]]:
    """Deterministic composable pairs (f: A -> B, g: B -> C) drawn across the
    small corpus with a fixed stride for variety."""
    from .core import enumerate_morphisms

    algs = small_corpus()
    pairs: list[tuple[PbaMorphism, PbaMorphism]] = []
    for A, B, C in itertools.product(algs, repeat=3):
        homs_ab = enumerate_morphisms(A, B)
        homs_bc = enumerate_morphisms(B, C)
        if not homs_ab or not homs_bc:
            continue
        f = homs_ab[len(homs_ab) // 2]
        g = homs_bc[len(homs_bc) // 3]
        pairs.append((f, g))
        if len(pairs) >= limit:
            return pairs
    return pairs
