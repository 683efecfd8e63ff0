"""The external Bohrification frame of a finite partial Boolean algebra and
its action on morphisms.

A frame element assigns to every Boolean member an open (point subset) of
its spectrum, admissibly: along every inclusion of members, points whose
restriction lies in the chosen open must themselves be chosen.  This is the
pullback reading of monotonicity; plain containment is meaningless across
different spectra.

An element is stored as one int with a bit per (member, point), so meets
and joins are bitwise and admissibility is one AND per chosen point against
a precomputed up-set.  The action of a morphism pushes opens forward
through the point maps of all members landing below a target member.  It
always preserves the top and all joins; it preserves binary meets when the
morphism reflects commeasurability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainError, PbalgError, SearchCutoffError, StructuralError
from .core import (PartialBooleanAlgebra, PbaMorphism, _bit_positions, _bits,
                   _comm_pullback, atoms_of_subalgebra)
from .poset import boolean_subalgebras

# A frame element is one int: a bit per (member, spectrum point), each
# member's points in a contiguous field.
FrameElement = int


class BohrFrame:
    """The frame of admissible spectral-open families over the Boolean
    subalgebra poset of one carrier."""

    def __init__(self, A: PartialBooleanAlgebra):
        self.algebra = A
        self.poset = boolean_subalgebras(A)
        members = self.poset.members
        self.spectra: list[tuple[int, ...]] = [
            tuple(atoms_of_subalgebra(A, m)) for m in members]
        # restriction maps for strict inclusions: point of the larger member
        # to the unique atom of the smaller member above it
        self.restrictions: dict[tuple[int, int], dict[int, int]] = {}
        for i, row in enumerate(self.poset.leq):
            for j in _bit_positions(row):
                if i == j:
                    continue
                rho = {}
                for q in self.spectra[j]:
                    above = [p for p in self.spectra[i] if A.meet[q][p] == q]
                    if len(above) != 1:
                        raise StructuralError("point restriction not single-valued")
                    rho[q] = above[0]
                self.restrictions[(i, j)] = rho
        self.bit: dict[tuple[int, int], int] = {}
        for i, pts in enumerate(self.spectra):
            for p in pts:
                self.bit[i, p] = len(self.bit)
        self.up = self._up_rows()

    def _up_rows(self) -> list[int]:
        """up[b]: bit b and every point of a larger member restricting to it;
        transitively closed when restrictions compose, which
        ``check_frame_laws`` certifies."""
        up = [1 << b for b in range(len(self.bit))]
        for (i, j), rho in self.restrictions.items():
            for q, p in rho.items():
                up[self.bit[i, p]] |= 1 << self.bit[j, q]
        return up

    # -- element structure ---------------------------------------------------

    def check_shape(self, fam: FrameElement) -> None:
        if not isinstance(fam, int) or not 0 <= fam <= self.top():
            raise DomainError("family is not a mask over the member spectra")

    def admissible(self, fam: FrameElement) -> bool:
        """Pullback admissibility: every chosen point carries its up-set."""
        self.check_shape(fam)
        return all(self.up[b] & ~fam == 0 for b in _bits(fam))

    def _bit_of(self, member_index: int, point: int) -> int:
        try:
            return self.bit[member_index, point]
        except KeyError:
            raise DomainError(f"point {point} is not in the spectrum of member "
                              f"{member_index} of {len(self.spectra)}") from None

    def mask(self, member_index: int, points: Iterable[int]) -> FrameElement:
        """The family choosing the given points at one member, nothing else."""
        fam = 0
        for p in points:
            fam |= 1 << self._bit_of(member_index, p)
        return fam

    def opens(self, fam: FrameElement, member_index: int) -> frozenset[int]:
        """The points a family chooses at one member."""
        if not 0 <= member_index < len(self.spectra):
            raise DomainError(f"no member {member_index} among {len(self.spectra)}")
        return frozenset(p for p in self.spectra[member_index]
                         if fam >> self.bit[member_index, p] & 1)

    def bottom(self) -> FrameElement:
        return 0

    def top(self) -> FrameElement:
        return (1 << len(self.bit)) - 1

    def meet(self, F: FrameElement, G: FrameElement) -> FrameElement:
        return F & G

    def join(self, F: FrameElement, G: FrameElement) -> FrameElement:
        return F | G

    def principal(self, member_index: int, points: frozenset[int]) -> FrameElement:
        """Least admissible family whose open at the given member contains
        the given points: the join of their up-sets."""
        fam = self.bottom()
        for p in points:
            fam |= self.up[self._bit_of(member_index, p)]
        return fam

    # -- enumeration ----------------------------------------------------------

    def size_bound(self) -> int:
        return 1 << len(self.bit)

    def elements(self, max_frame: int = 65536) -> tuple[FrameElement, ...]:
        """All admissible families by brute force over every mask, in
        ascending order."""
        if self.size_bound() > max_frame:
            raise SearchCutoffError(
                f"frame enumeration bound {self.size_bound()} exceeds {max_frame}",
                limit=max_frame)
        return tuple(F for F in range(self.size_bound()) if self.admissible(F))

    def elements_recursive(self, max_frame: int = 65536) -> tuple[FrameElement, ...]:
        """Independent enumeration: assign opens member by member in size
        order, only ever extending the forced upward closure."""
        order = sorted(range(len(self.poset.members)),
                       key=lambda i: (len(self.poset.members[i]),
                                      tuple(sorted(self.poset.members[i]))))
        out: list[FrameElement] = []

        def assign(k: int, fam: FrameElement):
            if len(out) > max_frame:
                raise SearchCutoffError("frame enumeration exceeded the cutoff",
                                        limit=max_frame)
            if k == len(order):
                out.append(fam)
                return
            j = order[k]
            required = set()
            for i in order[:k]:
                if (i, j) in self.restrictions:
                    chosen = self.opens(fam, i)
                    rho = self.restrictions[(i, j)]
                    required |= {q for q in self.spectra[j] if rho[q] in chosen}
            free = [q for q in self.spectra[j] if q not in required]
            for r in range(len(free) + 1):
                for extra in itertools.combinations(free, r):
                    assign(k + 1, fam | self.mask(j, required.union(extra)))

        assign(0, self.bottom())
        return tuple(sorted(out))

    def check_frame_laws(self, elements: Sequence[FrameElement]) -> None:
        """Certify that ``elements`` lists exactly the frame.  The admissible
        masks are the up-sets of the preorder ``up``, so by Birkhoff's
        theorem they form a finite distributive lattice under ``&`` and
        ``|``, and the lattice laws need no element-wise check.  Certified
        here: ``up`` is reflexive, transitive and its recomputation from the
        restrictions; no element is listed twice; every element is
        admissible; 0 is listed, and so is ``F | up[b]`` for every listed
        ``F`` and bit ``b``.  Every up-set is a union of ``up`` rows, so the
        last condition forces every one of them into the list."""
        up = self.up
        for b, row in enumerate(up):
            if not row >> b & 1:
                raise PbalgError("up-set table is not reflexive")
            if any(up[c] & ~row for c in _bits(row)):
                raise PbalgError("up-set table is not transitive: "
                                 "restrictions do not compose")
        if up != self._up_rows():
            raise PbalgError("up-set table differs from its recomputation "
                             "from the restrictions")
        listed = set(elements)
        if len(listed) != len(elements):
            raise PbalgError("a frame element is listed twice")
        if not all(self.admissible(F) for F in elements):
            raise PbalgError("enumerated family is not admissible")
        if 0 not in listed or any(F | row not in listed
                                  for F in listed for row in up):
            raise PbalgError("enumeration misses an up-set of the frame")


# ---------------------------------------------------------------------------
# Morphism action
# ---------------------------------------------------------------------------

def member_image(f: PbaMorphism, member: frozenset[int]) -> frozenset[int]:
    return frozenset(f.map[a] for a in member)


@dataclass(frozen=True)
class FrameMorphismReport:
    preserves_top: bool
    preserves_joins: bool
    preserves_binary_meets: bool
    meet_witness: tuple[FrameElement, FrameElement, int] | None


class FrameMap:
    """The frame morphism induced on Bohrification frames by a morphism of
    partial Boolean algebras: push each open forward through all members
    whose image lands below the target member."""

    def __init__(self, f: PbaMorphism, src: BohrFrame | None = None,
                 dst: BohrFrame | None = None):
        self.morphism = f
        self.src = src or BohrFrame(f.dom)
        self.dst = dst or BohrFrame(f.cod)
        B = f.cod
        # push[b]: the target points reached from source bit b through the
        # point maps Spec(D_j) -> Spec(C_i) of every source member i whose
        # image lies inside target member j
        self.push = [0] * len(self.src.bit)
        for i, C in enumerate(self.src.poset.members):
            img = member_image(f, C)
            for j, D in enumerate(self.dst.poset.members):
                if not img <= D:
                    continue
                for q in self.dst.spectra[j]:
                    cs = [c for c in self.src.spectra[i]
                          if B.meet[q][f.map[c]] == q]
                    if len(cs) != 1:
                        raise StructuralError("induced point map not single-valued")
                    self.push[self.src.bit[i, cs[0]]] |= 1 << self.dst.bit[j, q]

    def _pushed(self, F: FrameElement) -> FrameElement:
        """The OR of ``push[b]`` over the bits of ``F``, unchecked."""
        fam = self.dst.bottom()
        for b in _bits(F):
            fam |= self.push[b]
        return fam

    def __call__(self, F: FrameElement) -> FrameElement:
        self.src.check_shape(F)
        fam = self._pushed(F)
        if not self.dst.admissible(fam):
            raise StructuralError("morphism action produced an inadmissible family")
        return fam

    def report(self) -> FrameMorphismReport:
        """Preservation report read off the source frame's generators, the
        ``up`` rows.  Joins need no check: ``self(F)`` is the OR of
        ``push[b]`` over the bits of ``F``.  Every admissible ``F`` is the
        union of the rows of its bits and ``self`` preserves unions, so
        ``self`` preserves every binary meet exactly when it preserves
        ``up[b] & up[c]`` for every pair ``b < c``.  That argument needs
        each row ``up[b]`` to hold ``b`` and to be admissible, which is
        checked first.  The meet of two rows is the union of the rows of
        its bits, so its image is a union of the row images certified
        admissible here, and the pair loop pushes it unchecked.  The meet
        witness is re-checkable: two rows plus the first target member
        their images differ at."""
        src, dst = self.src, self.dst
        if not all(row >> b & 1 and src.admissible(row)
                   for b, row in enumerate(src.up)):
            raise StructuralError("an up-set row is not a frame generator: "
                                  "restrictions do not compose")
        top_ok = self(src.top()) == dst.top()
        images = [self(row) for row in src.up]
        witness = None
        for b, c in itertools.combinations(range(len(src.up)), 2):
            F, G = src.up[b], src.up[c]
            img, expected = self._pushed(F & G), images[b] & images[c]
            if img != expected:
                witness = (F, G, next(
                    j for j in range(len(dst.spectra))
                    if dst.opens(img, j) != dst.opens(expected, j)))
                break
        return FrameMorphismReport(
            preserves_top=top_ok, preserves_joins=True,
            preserves_binary_meets=witness is None, meet_witness=witness)


def reflects_commeasurability(f: PbaMorphism) -> bool:
    """True iff commeasurable images force commeasurable arguments: for
    every a, the x whose image is commeasurable with f(a) lie in
    ``A.comm[a]``.  A full row of A holds every such x, so only the other
    rows are pulled back."""
    A = f.dom
    full = (1 << A.n) - 1
    return all(_comm_pullback(f, a) & ~row == 0
               for a, row in enumerate(A.comm) if row != full)


def frame_nontrivial_without_states(A: PartialBooleanAlgebra) -> bool:
    """Witness that the two-dimensional picture can be nontrivial where the
    one-dimensional one is empty: true iff no two-valued state exists while
    the Bohrification frame has at least three distinct elements (bottom,
    top, and a principal family)."""
    from .stone import is_kochen_specker

    if not is_kochen_specker(A):
        return False
    frame = BohrFrame(A)
    candidates = [frame.bottom(), frame.top()]
    atom_member = next(
        (i for i, m in enumerate(frame.poset.members) if len(m) == 4), None)
    if atom_member is not None:
        candidates.append(frame.principal(
            atom_member, frozenset(frame.spectra[atom_member])))
    return (all(frame.admissible(F) for F in candidates)
            and len(set(candidates)) >= 3)
