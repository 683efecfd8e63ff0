"""The inclusion-ordered family of total Boolean subalgebras of a finite
partial Boolean algebra, with its structural reports.

Enumeration goes block by block: every totally commeasurable subset lives
inside a maximal clique, and the Boolean subalgebras of a finite Boolean
block correspond to the set partitions of its atoms.  Each maximal clique
is decoded once, and certified Boolean, by ``core._boolean_block``; a
partition's member is read off the decoded element table, as the element
over each union of the partition's parts.  This avoids scanning all subsets
of the carrier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import and_

from .errors import DomainError, SearchCutoffError
from .core import (
    PartialBooleanAlgebra,
    _bit_positions,
    _boolean_block,
    _candidate_classes,
    _columns,
    _isomorphism_search,
    atoms_of_subalgebra,
    maximal_cliques,
)


def _set_partitions(items: list):
    """All partitions of a list, each a list of lists; deterministic order.

    Depth first with an explicit stack, placing the items from the last to
    the first: each either opens a new block in front or joins one of the
    blocks so far, tried in that order.  The first item's placements are
    yielded as they are made."""
    if not items:
        yield []
        return
    stack = [(len(items), [])]
    while stack:
        k, part = stack.pop()
        x = items[k - 1]
        if k == 1:
            yield [[x]] + part
            for i in range(len(part)):
                yield part[:i] + [[x] + part[i]] + part[i + 1:]
            continue
        for i in reversed(range(len(part))):
            stack.append((k - 1, part[:i] + [[x] + part[i]] + part[i + 1:]))
        stack.append((k - 1, [[x]] + part))


@dataclass(frozen=True)
class SubalgebraPoset:
    """All total Boolean subalgebras of ``algebra``, ordered by inclusion.

    ``members`` is canonically ordered (by size, then element tuple);
    ``leq[i]`` is the bitmask of members that contain member i, and
    ``columns[j]``, built once per poset, that of the members contained in
    member j.
    """

    algebra: PartialBooleanAlgebra
    members: tuple[frozenset[int], ...]
    leq: tuple[int, ...]

    def index_of(self, member: frozenset[int]) -> int:
        try:
            return self.members.index(member)
        except ValueError:
            raise DomainError("not a member of the subalgebra poset") from None

    def contains(self, i: int, j: int) -> bool:
        """True iff member i is included in member j."""
        return bool((self.leq[i] >> j) & 1)

    def least(self) -> int:
        return self.index_of(frozenset({self.algebra.zero, self.algebra.one}))

    def maximal_indices(self) -> list[int]:
        """Members contained in no other member: those whose ``leq`` row is
        their own bit."""
        return [i for i, row in enumerate(self.leq) if row == 1 << i]

    @cached_property
    def columns(self) -> list[int]:
        return _columns(self.leq)

    def hasse_edges(self) -> list[tuple[int, int]]:
        """Cover pairs (i, j) with member i directly below member j: the
        members between them, ``leq[i]`` meeting the column of j, are just
        i and j."""
        cols = self.columns
        return [(i, j) for i, row in enumerate(self.leq) for j in _bit_positions(row)
                if i != j and row & cols[j] == (1 << i) | (1 << j)]


# Member budget of boolean_subalgebras
_SUBALGEBRA_MAX_MEMBERS = 100_000


@lru_cache(maxsize=None)
def boolean_subalgebras(A: PartialBooleanAlgebra) -> SubalgebraPoset:
    """Enumerate every total Boolean subalgebra of A, deduplicated and
    canonically ordered, together with the inclusion order.  Raises
    InvalidAlgebraError, naming the block, unless every maximal clique of A
    is the Boolean algebra on its atoms, and SearchCutoffError past
    ``_SUBALGEBRA_MAX_MEMBERS`` members."""
    max_members = _SUBALGEBRA_MAX_MEMBERS
    found: set[frozenset[int]] = set()
    for clique in maximal_cliques(A):
        atoms, _, element = _boolean_block(A, _bit_positions(clique))
        for partition in _set_partitions([1 << i for i in range(len(atoms))]):
            # a partition's member: the element over each union of its parts
            unions = [0]
            for part in partition:
                m = sum(part)
                unions += [u | m for u in unions]
            found.add(frozenset(map(element.__getitem__, unions)))
            if len(found) > max_members:
                raise SearchCutoffError(
                    f"subalgebra enumeration exceeded {max_members} members",
                    limit=max_members)
    members = tuple(sorted(found, key=lambda s: (len(s), tuple(sorted(s)))))
    # holders[e]: the members containing e; a member lies below exactly the
    # members holding all of its elements
    holders = [0] * A.n
    for j, t in enumerate(members):
        for e in t:
            holders[e] |= 1 << j
    leq = tuple(reduce(and_, map(holders.__getitem__, s)) for s in members)
    return SubalgebraPoset(algebra=A, members=members, leq=leq)


def boolean_subalgebras_oracle(A: PartialBooleanAlgebra) -> set[frozenset[int]]:
    """Slow oracle: scan all subsets of the carrier for operation-closed,
    pairwise commeasurable sets (small carriers only)."""
    out = set()
    for r in range(2, A.n + 1):
        for subset in itertools.combinations(range(A.n), r):
            s = set(subset)
            if A.zero not in s or A.one not in s:
                continue
            if not all(A.comm_pair(a, b) for a, b in itertools.combinations(s, 2)):
                continue
            if not all(A.neg[a] in s for a in s):
                continue
            if not all(A.meet[a][b] in s and A.join[a][b] in s
                       for a, b in itertools.combinations(s, 2)):
                continue
            out.add(frozenset(s))
    if A.n == 1:
        out.add(frozenset({A.zero}))
    return out


@dataclass(frozen=True)
class StructureReport:
    least: frozenset[int]
    atoms: tuple[frozenset[int], ...]
    is_filtered: bool
    maximum: frozenset[int] | None


def structure_report(P: SubalgebraPoset) -> StructureReport:
    """Least member, poset atoms, filteredness, and the maximum when the
    poset is filtered (equivalently: when the algebra is Boolean).  Each is
    read off the columns of ``leq``: an atom's column is itself and the
    least member, the maximum's column is every member, and a finite poset
    is filtered exactly when it has a maximum."""
    A = P.algebra
    least = frozenset({A.zero, A.one})
    li = P.index_of(least)
    cols = P.columns
    atoms = tuple(P.members[i] for i, col in enumerate(cols)
                  if i != li and col == (1 << li) | (1 << i))
    full = (1 << len(P.members)) - 1
    maximum = next((P.members[i] for i, col in enumerate(cols) if col == full), None)
    return StructureReport(least=least, atoms=atoms,
                           is_filtered=maximum is not None, maximum=maximum)


# ---------------------------------------------------------------------------
# Down-sets vs partition lattices
# ---------------------------------------------------------------------------

def partition_lattice(k: int) -> tuple[list[frozenset[frozenset[int]]], list[int]]:
    """The lattice of set partitions of {0..k-1} ordered by refinement:
    returns (elements, leq rows) with leq[i] bit j set iff i refines j."""
    elems = []
    for part in _set_partitions(list(range(k))):
        elems.append(frozenset(frozenset(p) for p in part))
    elems = sorted(set(elems), key=lambda p: (len(p), sorted(tuple(sorted(b)) for b in p)))
    leq = []
    for p in elems:
        row = 0
        for j, q in enumerate(elems):
            if all(any(block <= qblock for qblock in q) for block in p):
                row |= 1 << j
        leq.append(row)
    return elems, leq


def _poset_isomorphic(leq_a: list[int], leq_b: list[int]) -> bool:
    """Order isomorphism between two finite posets given as bitmask rows,
    by the library's isomorphism search with each element's (down, up)
    counts as its class."""
    if len(leq_a) != len(leq_b):
        return False
    cols_a, cols_b = _columns(leq_a), _columns(leq_b)
    candidates = _candidate_classes(
        [(c.bit_count(), r.bit_count()) for r, c in zip(leq_a, cols_a)],
        [(c.bit_count(), r.bit_count()) for r, c in zip(leq_b, cols_b)])
    if candidates is None:
        return False
    return _isomorphism_search(candidates, [(leq_a, leq_b)]) is not None


def downset_matches_partition_lattice(P: SubalgebraPoset, member: frozenset[int]) -> bool:
    """True iff the down-set of ``member`` is dually isomorphic to the
    partition lattice of the atom set of ``member`` (by isomorphism search,
    independent of the partition correspondence used for enumeration)."""
    i = P.index_of(member)
    down = [j for j in range(len(P.members)) if P.contains(j, i)]
    sub_leq = []
    for a in down:
        row = 0
        for bj, b in enumerate(down):
            if P.contains(a, b):
                row |= 1 << bj
        sub_leq.append(row)
    atoms = atoms_of_subalgebra(P.algebra, member)
    k = max(len(atoms), 1)
    _, pl_leq = partition_lattice(k)
    dual = [0] * len(pl_leq)
    for a in range(len(pl_leq)):
        for b in range(len(pl_leq)):
            if (pl_leq[b] >> a) & 1:
                dual[a] |= 1 << b
    return _poset_isomorphic(sub_leq, dual)
