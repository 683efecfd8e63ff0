"""Finite Stone duality over the subalgebra diagram: spectra of Boolean
members, the limit of spectra (compatible point families, each determined
by its two-valued valuation), the Boolean reflection with its unit, and
Kochen-Specker detection.

A point of the limit is a morphism into the two-element algebra, so the
limit is the ``boolean_algebra(1)`` case of the cocone assembly over the
maximal blocks (one true atom per block, consistent across shared
elements), which is exponentially smaller than backtracking over the whole
member poset; the poset-limit definition is kept as a cross-check oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DomainError, SearchCutoffError
from .core import (
    PartialBooleanAlgebra,
    PbaMorphism,
    atoms_of_subalgebra,
    boolean_algebra,
    check_morphism,
    generated_subalgebra,
)
from .colimit import _assemble, _flatten, _maximal_blocks, coproduct
from .poset import SubalgebraPoset, boolean_subalgebras


# ---------------------------------------------------------------------------
# Spectra of Boolean members
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StoneSpace:
    """The spectrum of a Boolean member: its atoms as points.  The point at
    atom p is the two-valued morphism sending x to 1 iff p lies below x."""

    member: frozenset[int]
    points: tuple[int, ...]

    def evaluate(self, A: PartialBooleanAlgebra, p: int, x: int) -> int:
        if p not in self.points or x not in self.member:
            raise DomainError("evaluation outside the spectrum")
        return 1 if A.meet[p][x] == p else 0


def stone_spectrum(A: PartialBooleanAlgebra, C: frozenset[int]) -> StoneSpace:
    """Points of a total Boolean subalgebra: its atoms, in ascending order."""
    for a, b in itertools.combinations(sorted(C), 2):
        if not A.comm_pair(a, b):
            raise DomainError("spectrum needs a totally commeasurable subalgebra")
    if generated_subalgebra(A, C) != frozenset(C):
        raise DomainError("spectrum needs an operation-closed subalgebra")
    return StoneSpace(member=frozenset(C), points=tuple(atoms_of_subalgebra(A, frozenset(C))))


def restriction_map(A: PartialBooleanAlgebra, C: frozenset[int],
                    Cp: frozenset[int]) -> dict[int, int]:
    """For C included in C', the point map Spec(C') -> Spec(C): each atom of
    C' goes to the unique atom of C above it."""
    if not C <= Cp:
        raise DomainError("restriction needs nested members")
    small = stone_spectrum(A, C).points
    out = {}
    for q in stone_spectrum(A, Cp).points:
        above = [p for p in small if A.meet[q][p] == q]
        if len(above) != 1:
            raise DomainError("point restriction is not single-valued")
        out[q] = above[0]
    return out


# ---------------------------------------------------------------------------
# The limit of spectra
# ---------------------------------------------------------------------------

# Node budget of stone_limit's assembly into boolean_algebra(1)
_STONE_MAX_NODES = 5_000_000


def stone_limit(A: PartialBooleanAlgebra,
                max_solutions: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All points of the limit of spectra, each as its two-valued valuation
    (one 0/1 entry per element), in ascending order.  The point at a member
    is the member's atom valued 1.

    A two-valued state is a morphism into ``boolean_algebra(1)``, that is a
    cocone into it, so the points are the cocone assembly's families on the
    maximal blocks (one true atom per block, consistent on shared
    elements), with its nodes: past ``_STONE_MAX_NODES`` it raises
    SearchCutoffError, as ``cocones_into`` does.  With ``max_solutions`` it
    stops after that many points (the first in assembly order), so
    ``max_solutions=1`` decides emptiness.
    """
    blocks = _maximal_blocks(A)
    found = _assemble(blocks, boolean_algebra(1), max_solutions, _STONE_MAX_NODES)
    # a degenerate carrier (0 = 1) has a block without atoms, hence no point
    return tuple(sorted(tuple(_flatten(blocks, maps, A.n)) for maps in found))


def stone_limit_poset_oracle(A: PartialBooleanAlgebra,
                             P: SubalgebraPoset | None = None
                             ) -> tuple[tuple[tuple[frozenset[int], int], ...], ...]:
    """The limit computed directly from its definition: backtracking over
    members with the restriction-map compatibility constraints.  Slow; used
    to cross-check the block assembly."""
    P = P or boolean_subalgebras(A)
    members = list(P.members)
    spectra = {m: stone_spectrum(A, m).points for m in members}
    restrictions = {}
    for s in members:
        for t in members:
            if s < t:
                restrictions[(s, t)] = restriction_map(A, s, t)

    out = []
    choice: dict[frozenset[int], int] = {}

    def assign(k: int):
        if k == len(members):
            out.append(tuple(sorted(choice.items(), key=lambda kv: tuple(sorted(kv[0])))))
            return
        m = members[k]
        for p in spectra[m]:
            ok = True
            for prev in members[:k]:
                if prev < m and restrictions[(prev, m)][p] != choice[prev]:
                    ok = False
                elif m < prev and restrictions[(m, prev)][choice[prev]] != p:
                    ok = False
                if not ok:
                    break
            if ok:
                choice[m] = p
                assign(k + 1)
                del choice[m]

    if A.n > 1:
        assign(0)
    return tuple(out)


def two_valued_morphisms(A: PartialBooleanAlgebra) -> list[PbaMorphism]:
    """Morphisms into the initial algebra: the limit points' valuations."""
    two = boolean_algebra(1)
    return [PbaMorphism(A, two, v) for v in stone_limit(A)]


def limit_action(f: PbaMorphism) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Contravariant action on limits: a morphism f: A -> B turns each
    point over B into one over A by composing valuations.  Keys and values
    are valuations."""
    points_a = set(stone_limit(f.dom))
    out = {}
    for v in stone_limit(f.cod):
        pulled = tuple(v[f.map[a]] for a in range(f.dom.n))
        if pulled not in points_a:
            raise DomainError("pullback of a two-valued state is not a state")
        out[v] = pulled
    return out


# ---------------------------------------------------------------------------
# The Boolean reflection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Reflection:
    """The powerset algebra over the limit points together with the unit
    morphism eta sending a to the set of points that hold at a."""

    reflection: PartialBooleanAlgebra
    eta: PbaMorphism
    families: tuple[tuple[int, ...], ...]  # the limit points' valuations


def boolean_reflection(A: PartialBooleanAlgebra, max_carrier: int = 5000) -> Reflection:
    """Left reflection into total Boolean algebras: the powerset of the
    limit point set, with eta(a) = the points valuing a at 1.  For carriers
    with no two-valued states the reflection is the one-element algebra.
    A powerset of more than ``max_carrier`` elements raises
    SearchCutoffError before it is built."""
    families = stone_limit(A)
    k = len(families)
    if 1 << k > max_carrier:
        raise SearchCutoffError(
            f"reflection carrier has 2^{k} elements, over the cutoff",
            limit=max_carrier)
    L = boolean_algebra(k)
    values = []
    for a in range(A.n):
        mask = 0
        for i, v in enumerate(families):
            mask |= v[a] << i
        values.append(mask)
    eta = PbaMorphism(A, L, tuple(values))
    chk = check_morphism(eta)
    if not chk.ok:
        raise DomainError(f"reflection unit is not a morphism: {chk.message}")
    return Reflection(reflection=L, eta=eta, families=families)


def is_kochen_specker(A: PartialBooleanAlgebra) -> bool:
    """True iff the carrier admits no two-valued state (empty limit;
    equivalently, the Boolean reflection is the one-element algebra)."""
    return len(stone_limit(A, max_solutions=1)) == 0


def coproduct_stays_kochen_specker(A: PartialBooleanAlgebra,
                                   B: PartialBooleanAlgebra) -> bool:
    """Kochen-Specker carriers absorb coproducts: check that A + B is again
    Kochen-Specker (requires A to be Kochen-Specker)."""
    if not is_kochen_specker(A):
        raise DomainError("first summand must be Kochen-Specker")
    C, _ = coproduct([A, B])
    return is_kochen_specker(C)
