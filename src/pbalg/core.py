"""Finite partial Boolean algebras.

A partial Boolean algebra is a finite carrier with a reflexive symmetric
commeasurability relation, a total negation, partial meet/join defined exactly
on commeasurable pairs, and distinguished 0 and 1, such that every set of
pairwise commeasurable elements extends to a total Boolean subalgebra.

Elements are dense integer indices; the commeasurability relation is stored as
one bitmask per row, and the partial operation tables use -1 for undefined
entries.  Values are immutable after construction and all operations here are
pure functions, so instances can be shared freely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import (
    AmalgamError,
    DomainError,
    InvalidAlgebraError,
    PbalgError,
    SearchCutoffError,
    StructuralError,
    UndefinedOperationError,
)

UNDEF = -1


def _bit(i: int) -> int:
    return 1 << i


def _bits(mask: int):
    """Iterate set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _bit_positions(mask: int) -> Iterable[int]:
    """The set bit positions of a mask in ascending order, decoded at C
    speed from its binary numeral (one byte per bit, lowest bit first);
    cheaper than ``_bits`` once the mask holds more than a few bits."""
    return itertools.compress(itertools.count(), bin(mask)[:1:-1].encode().translate(_BIT_FLAGS))


# ---------------------------------------------------------------------------
# The carrier type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialBooleanAlgebra:
    """Immutable finite partial Boolean algebra.

    Fields:
        n:      element count; elements are the indices 0..n-1.
        zero:   index of the bottom element.
        one:    index of the top element.
        neg:    total negation table, one entry per element.
        comm:   commeasurability relation; ``comm[a]`` is the bitmask of all
                b with a ⊙ b.
        meet:   partial binary table; ``meet[a][b]`` is -1 when undefined.
        join:   partial binary table, same convention.
        labels: one display name per element (whitespace-free).
    """

    n: int
    zero: int
    one: int
    neg: tuple[int, ...]
    comm: tuple[int, ...]
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        n = self.n
        if n <= 0:
            raise StructuralError(f"element count must be positive, got {n}")
        for name, idx in (("zero", self.zero), ("one", self.one)):
            if not 0 <= idx < n:
                raise StructuralError(f"{name} index {idx} out of range 0..{n - 1}")
        if len(self.neg) != n:
            raise StructuralError(f"neg table has {len(self.neg)} entries, expected {n}")
        for a, v in enumerate(self.neg):
            if not 0 <= v < n:
                raise StructuralError(f"neg[{a}] = {v} out of range")
        if len(self.comm) != n:
            raise StructuralError(f"comm relation has {len(self.comm)} rows, expected {n}")
        full = (1 << n) - 1
        for a, row in enumerate(self.comm):
            if row & ~full:
                raise StructuralError(f"comm[{a}] references elements beyond {n - 1}")
        for name, table in (("meet", self.meet), ("join", self.join)):
            if len(table) != n:
                raise StructuralError(f"{name} table has {len(table)} rows, expected {n}")
            for a, row in enumerate(table):
                if len(row) != n:
                    raise StructuralError(f"{name}[{a}] has {len(row)} entries, expected {n}")
                if min(row) >= UNDEF and max(row) < n:
                    continue  # a row in range passes whole; others name their bad cell
                for b, v in enumerate(row):
                    if v != UNDEF and not 0 <= v < n:
                        raise StructuralError(f"{name}[{a}][{b}] = {v} out of range")
        if len(self.labels) != n:
            raise StructuralError(f"labels has {len(self.labels)} entries, expected {n}")

    # -- basic accessors ----------------------------------------------------

    def comm_pair(self, a: int, b: int) -> bool:
        return bool((self.comm[a] >> b) & 1)

    def meet_of(self, a: int, b: int) -> int:
        v = self.meet[a][b]
        if v == UNDEF:
            raise UndefinedOperationError(
                f"meet undefined on ({self.labels[a]}, {self.labels[b]})")
        return v

    def join_of(self, a: int, b: int) -> int:
        v = self.join[a][b]
        if v == UNDEF:
            raise UndefinedOperationError(
                f"join undefined on ({self.labels[a]}, {self.labels[b]})")
        return v

    def leq(self, a: int, b: int) -> bool:
        """Order within a common block: a <= b iff a ∧ b = a (requires a ⊙ b)."""
        return self.meet_of(a, b) == a

    def elements(self) -> range:
        return range(self.n)

    def nontrivial(self) -> list[int]:
        return [a for a in range(self.n) if a != self.zero and a != self.one]

    def is_total(self) -> bool:
        full = (1 << self.n) - 1
        return all(row == full for row in self.comm)

    def is_boolean(self) -> bool:
        """Total commeasurability plus a clean validation report."""
        return self.is_total() and validate(self).ok

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DomainError(f"no element labelled {label!r}") from None

    def __repr__(self):  # keep reprs short; tables are large
        return f"PartialBooleanAlgebra(n={self.n}, labels={list(self.labels)!r})"


def default_labels(n: int, zero: int, one: int) -> tuple[str, ...]:
    if zero == one:
        return tuple("0" if i == zero else f"e{i}" for i in range(n))
    out = []
    for i in range(n):
        out.append("0" if i == zero else "1" if i == one else f"e{i}")
    return tuple(out)


def make_pba(
    n: int,
    zero: int,
    one: int,
    neg: Sequence[int],
    comm_pairs: Iterable[tuple[int, int]] = (),
    meet_entries: Iterable[tuple[int, int, int]] = (),
    join_entries: Iterable[tuple[int, int, int]] = (),
    labels: Sequence[str] | None = None,
) -> PartialBooleanAlgebra:
    """Assemble a carrier from sparse tables, filling in the forced entries.

    Commeasurability is closed under reflexivity, symmetry, the 0/1 rows and
    complement pairs.  Meets and joins with 0, 1, an element itself, or its
    complement are forced by Boolean structure and filled automatically
    (explicit entries win; conflicting explicit entries are structural
    errors).  No semantic validation happens here: feed the result to
    :func:`validate`.
    """
    neg = tuple(neg)
    if len(neg) != n:
        raise StructuralError(f"neg table has {len(neg)} entries, expected {n}")
    comm = [0] * n
    for a in range(n):
        comm[a] |= _bit(a) | _bit(zero) | _bit(one)
        comm[zero] |= _bit(a)
        comm[one] |= _bit(a)
        b = neg[a]
        if 0 <= b < n:
            comm[a] |= _bit(b)
            comm[b] |= _bit(a)
    for a, b in comm_pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise StructuralError(f"comm pair ({a}, {b}) out of range")
        comm[a] |= _bit(b)
        comm[b] |= _bit(a)

    meet = [[UNDEF] * n for _ in range(n)]
    join = [[UNDEF] * n for _ in range(n)]

    def _set(table, a, b, v, name):
        if not (0 <= a < n and 0 <= b < n and 0 <= v < n):
            raise StructuralError(f"{name} entry ({a}, {b}) -> {v} out of range")
        for x, y in ((a, b), (b, a)):
            if table[x][y] not in (UNDEF, v):
                raise StructuralError(
                    f"conflicting {name} entries for ({a}, {b}): {table[x][y]} vs {v}")
            table[x][y] = v

    for a, b, v in meet_entries:
        _set(meet, a, b, v, "meet")
    for a, b, v in join_entries:
        _set(join, a, b, v, "join")

    def _fill(table, a, b, v):
        if table[a][b] == UNDEF:
            table[a][b] = v
        if table[b][a] == UNDEF:
            table[b][a] = v

    for a in range(n):
        _fill(meet, a, a, a)
        _fill(join, a, a, a)
        _fill(meet, zero, a, zero)
        _fill(join, zero, a, a)
        _fill(meet, one, a, a)
        _fill(join, one, a, one)
        b = neg[a]
        if 0 <= b < n:
            _fill(meet, a, b, zero)
            _fill(join, a, b, one)

    if labels is None:
        labels = default_labels(n, zero, one)
    return PartialBooleanAlgebra(
        n=n, zero=zero, one=one, neg=neg,
        comm=tuple(comm),
        meet=tuple(tuple(r) for r in meet),
        join=tuple(tuple(r) for r in join),
        labels=tuple(labels),
    )


def block_tables(n: int, blocks: Sequence[Sequence[int]]
                 ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...],
                            tuple[tuple[int, ...], ...], tuple | None]:
    """neg, comm, meet and join of the carrier on n elements fixed by its
    Boolean ``blocks``, each given as its element per atom-set mask,
    ``local[mask]``: row ``local[a]`` holds ``local[a & b]`` and
    ``local[a | b]`` at ``local[b]``, and ``neg[local[a]]`` is
    ``local[full ^ a]``; then the carrier's ``_rowbands.arrays``, or None.
    The blocks must cover every element, so that neg is total and every
    cell is in range.  A cell written twice with different values raises
    AmalgamError naming negation, meet or join.  Above _SMALL_MAX elements
    the cells are scattered in numpy arrays, which are returned too;
    smaller carriers are written cell by cell and never import numpy."""
    comm = [0] * n
    for local in blocks:
        span = sum(1 << e for e in set(local))
        for e in local:
            comm[e] |= span
    if n > _SMALL_MAX:
        from ._rowbands import scatter_tables
        neg, meet, join, arrays = scatter_tables(n, blocks)
        return neg, tuple(comm), meet, join, arrays
    # one cell at a time: each block's negation, then its rows in mask
    # order, meet before join
    neg = [UNDEF] * n
    meet = [[UNDEF] * n for _ in range(n)]
    join = [[UNDEF] * n for _ in range(n)]
    for local in blocks:
        full = len(local) - 1
        for ma, e in enumerate(local):
            if neg[e] not in (UNDEF, local[full ^ ma]):
                raise AmalgamError("negation ill-defined on the carrier")
            neg[e] = local[full ^ ma]
        masks = range(len(local))
        for ma, e in enumerate(local):
            for name, row, op in (("meet", meet[e], ma.__and__), ("join", join[e], ma.__or__)):
                for f, v in zip(local, map(local.__getitem__, map(op, masks))):
                    if row[f] != v:
                        if row[f] != UNDEF:
                            raise AmalgamError(f"{name} ill-defined on the carrier")
                        row[f] = v
    return tuple(neg), tuple(comm), tuple(map(tuple, meet)), tuple(map(tuple, join)), None


def _block_algebra(n: int, blocks: Sequence[Sequence[int]], zero: int, one: int,
                   labels: tuple[str, ...]) -> PartialBooleanAlgebra:
    """The carrier whose tables ``block_tables`` writes from ``blocks``,
    built by ``_trusted_algebra``; above _SMALL_MAX it keeps the writer's
    arrays for the row tests.  The caller still validates it."""
    neg, comm, meet, join, arrays = block_tables(n, blocks)
    A = _trusted_algebra(n=n, zero=zero, one=one, neg=neg, comm=comm,
                         meet=meet, join=join, labels=labels)
    if arrays is not None:
        A.__dict__[_ARRAYS] = arrays
    return A


# ---------------------------------------------------------------------------
# Stock algebras
# ---------------------------------------------------------------------------

def boolean_algebra(k: int) -> PartialBooleanAlgebra:
    """The total Boolean algebra 2^k on bitmask elements (k = 0 gives the
    one-element terminal algebra with 0 = 1)."""
    if k < 0:
        raise DomainError("atom count must be >= 0")
    n = 1 << k
    labels = tuple(format(x, f"0{k}b") if k else "0" for x in range(n))
    # one block, each element over its own bits as atom set
    return _block_algebra(n, [range(n)], 0, n - 1, labels)


def trivial_algebra() -> PartialBooleanAlgebra:
    """The terminal algebra: a single element 0 = 1."""
    return boolean_algebra(0)


# ---------------------------------------------------------------------------
# Maximal cliques of the commeasurability relation (Bron-Kerbosch, bitsets)
# ---------------------------------------------------------------------------

# Node budget of bron_kerbosch.  The largest search seen on the bundled
# corpus, the generated corpus and the benchmark workloads takes 1025 nodes
# (boolean_algebra(10), one block: a chain of one node per element).
_CLIQUE_MAX_NODES = 5_000_000


def bron_kerbosch(adj: Sequence[int], n: int) -> list[int]:
    """All maximal cliques of an irreflexive adjacency given as row bitmasks,
    with pivoting, returned in canonical (popcount, value) order.

    One explicit stack of (R, P, X) states, so clique size is not bounded by
    Python's recursion limit.  The pivot is the u in P | X with the most
    neighbours in P, lowest u on ties.  The scan for it stops once no later
    u can have more: at |P| neighbours, or at |P| - 1 when X is empty (then
    every u is in P, which the irreflexive adjacency leaves out of its own
    count).  Every state taken from the stack is one node; past
    ``_CLIQUE_MAX_NODES`` it raises SearchCutoffError."""
    max_nodes = _CLIQUE_MAX_NODES
    out: list[int] = []
    stack = [(0, (1 << n) - 1, 0)]
    nodes = 0
    while stack:
        nodes += 1
        if nodes > max_nodes:
            raise SearchCutoffError(
                f"search too large: maximal cliques exceeded {max_nodes} nodes",
                limit=max_nodes)
        r, p, x = stack.pop()
        if p == 0 and x == 0:
            out.append(r)
            continue
        best_u, best = -1, -1
        bound = p.bit_count() - (not x)
        m = p | x
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            c = (p & adj[u]).bit_count()
            if c > best:
                best, best_u = c, u
                if c >= bound:
                    break
        # children in ascending v, each seeing P and X as the ones before
        # it left them; pushed reversed so the lowest v is expanded first
        children = []
        ext = p & ~adj[best_u]
        while ext:
            low = ext & -ext
            ext ^= low
            v = low.bit_length() - 1
            children.append((r | low, p & adj[v], x & adj[v]))
            p ^= low
            x |= low
        stack.extend(reversed(children))
    return sorted(out, key=lambda m: (m.bit_count(), m))


@lru_cache(maxsize=None)
def maximal_cliques(A: PartialBooleanAlgebra) -> tuple[int, ...]:
    """All maximal cliques of the commeasurability graph, as bitmasks, in a
    canonical (popcount, value) order.  These are the candidate blocks."""
    adj = [A.comm[v] & ~_bit(v) for v in range(A.n)]
    return tuple(bron_kerbosch(adj, A.n))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    rule: str
    witness: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}

    def __str__(self):
        if self.ok:
            return "valid"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  [{v.rule}] {v.message}" for v in self.violations]
        return "\n".join(lines)


# Carriers and blocks of more than this many elements pick the rows to walk
# in numpy, in pbalg._rowbands, and have their tables written by numpy
# scatters; smaller ones keep the pure-Python tests and never import numpy.
# The size only chooses how rows are tested: every report is the same.
_SMALL_MAX = 32

# The key in a carrier's __dict__ of the numpy copy of its tables that its
# writer kept or _rowbands.arrays converted: see _rowbands.arrays.
_ARRAYS = "_arrays"


def _gather(elems: list[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """A C-speed getter of the cells of a table row at ``elems``, as a tuple."""
    if len(elems) == 1:
        (b,) = elems
        return lambda row: (row[b],)
    return itemgetter(*elems)


def _decode_block(A: PartialBooleanAlgebra, elems: list[int]
                  ) -> tuple[list[int], list[int], list[int]] | Violation:
    """Decode the block ``elems`` (ascending) as the Boolean algebra on its
    atoms, its minimal elements other than zero: return (atoms, below,
    element), with ``below[p]`` the atom set of ``elems[p]`` as a bitmask
    over ``atoms`` and ``element[s]`` the element over the atom set ``s``.
    Unless the atom sets are distinct and neg, meet and join on the block
    are their complement, intersection and union, return instead the first
    Violation: the wrong atom count, two elements over one atom set, a
    wrong negation, or the first wrong meet or join cell, row by row.  A
    cell off the block, UNDEF included, is a wrong cell.  This Violation is
    what ``validate`` reports for a rejected block, at every size."""
    lab = A.labels
    meet, join = A.meet, A.join
    nonzero = [a for a in elems if a != A.zero]
    atoms = [a for a in nonzero
             if not any(b != a and meet[a][b] == b for b in nonzero)]
    size = 1 << len(atoms)
    if len(elems) != size:
        return Violation("clique_not_boolean", tuple(elems[:3]),
                         f"clique of size {len(elems)} has {len(atoms)} atoms")
    below = [0] * size
    gather = _gather(elems)
    for i, a in enumerate(atoms):
        for p in itertools.compress(itertools.count(), map(a.__eq__, gather(meet[a]))):
            below[p] |= 1 << i
    element = [UNDEF] * size
    for t, m in zip(elems, below):
        if element[m] != UNDEF:
            return Violation("clique_not_boolean", (element[m], t),
                             f"elements {lab[element[m]]} and {lab[t]} sit "
                             "over the same atom set")
        element[m] = t
    # element is now a bijection from the atom sets onto the block, so a
    # cell holds the element over an atom set exactly when it lies in the
    # block with that atom set
    full = size - 1
    for t, m in zip(elems, below):
        if A.neg[t] != element[full ^ m]:
            return Violation("complement", (t,),
                             f"neg({lab[t]}) is not the atomwise complement")
    # the rows are walked cell by cell, and above _SMALL_MAX only those a
    # numpy test names, so the first bad cell and its report are the same
    rows: Iterable[int] = range(size)
    if len(elems) > _SMALL_MAX:
        from ._rowbands import transport_rows
        rows = transport_rows(A, elems, below)
    for p in rows:
        a, m = elems[p], below[p]
        row_m, row_j = meet[a], join[a]
        for b, s in zip(elems, below):
            if row_m[b] != element[m & s]:
                return Violation("clique_not_boolean", (a, b),
                                 f"meet({lab[a]}, {lab[b]}) is not the atom "
                                 "intersection")
            if row_j[b] != element[m | s]:
                return Violation("clique_not_boolean", (a, b),
                                 f"join({lab[a]}, {lab[b]}) is not the atom "
                                 "union")
    return atoms, below, element


def _boolean_block(A: PartialBooleanAlgebra, elems: Iterable[int]
                   ) -> tuple[list[int], list[int], list[int]]:
    """The block ``elems`` of A decoded by ``_decode_block``: its atoms, the
    atom set of each element (ascending) and the element over each atom
    set.  Raises InvalidAlgebraError, naming the block, unless A's zero,
    one, neg, comm, meet and join on the block are exactly those of the
    Boolean algebra on its atoms.  Zero needs no check of its own: the
    bottom of a decoded block is zero, as any other would be an atom."""
    es = sorted(elems)
    decoded = _decode_block(A, es)
    if not isinstance(decoded, Violation):
        block = sum(1 << x for x in es)
        if decoded[2][-1] == A.one and all(A.comm[x] & block == block for x in es):
            return decoded
    names = ", ".join(A.labels[x] for x in es)
    raise InvalidAlgebraError(f"block {{{names}}} is not the Boolean algebra on its atoms")


def _target_blocks(B: PartialBooleanAlgebra) -> list[tuple[int, list[int]]]:
    """Each maximal clique of B as (its atom count, its element per atom
    set), certified by ``_boolean_block``."""
    return [(len(atoms), element) for atoms, _, element in
            (_boolean_block(B, _bit_positions(c)) for c in maximal_cliques(B))]


def validate(A: PartialBooleanAlgebra) -> ValidationReport:
    """Check every structural invariant and return a report with witnesses.

    The extension clause is checked on the maximal cliques of the
    commeasurability relation: every pairwise-commeasurable set extends to a
    maximal clique, so it suffices that each maximal clique is closed under
    the operations and Boolean under them (the exhaustive all-subsets check
    is ``extension_clause_oracle`` in ``tests/helpers.py``).
    """
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

    # Row a holds the pairs (a, b), b >= a, and reads definedness at (a, b)
    # and (b, a).  The rows are walked cell by cell, and above _SMALL_MAX
    # only those a numpy band test names, so the reports are the same.  Bits
    # and cells are read straight from the rows: a ``comm_pair`` call per
    # cell made the walk three times slower at 32 elements.
    rows: Iterable[int] = range(n)
    if n > _SMALL_MAX:
        from ._rowbands import pair_rows
        rows = pair_rows(A)
    comm = A.comm
    for a in rows:
        tables = (("meet", A.meet[a], A.meet), ("join", A.join[a], A.join))
        for b in range(a, n):
            ab, ba = comm[a] >> b & 1, comm[b] >> a & 1
            if ab != ba:
                out.append(Violation("comm_symmetric", (a, b),
                                     f"comm asymmetric on ({lab[a]}, {lab[b]})"))
            for name, row, table in tables:
                # one report per pair and table: at (a, b) if that cell is
                # wrong, else at (b, a) if that one is
                x, y = row[b], table[b][a]
                for p, q, defined, cell in ((a, b, ab, x), (b, a, ba, y)):
                    if (cell != UNDEF) != defined:
                        word = "undefined on commeasurable" if defined else "defined on non-commeasurable"
                        out.append(Violation("op_defined_iff_comm", (p, q),
                                             f"{name} {word} pair ({lab[p]}, {lab[q]})"))
                        break
                if x != y:
                    out.append(Violation(f"{name}_commutative", (a, b),
                                         f"{name} not commutative on ({lab[a]}, {lab[b]})"))

    # a block the decoder certifies is Boolean with zero at the empty atom set
    # and, as neg(0) = 1 here, one at the full one; a block it rejects is
    # reported by the decoder's first Violation
    if not any(v.rule.startswith(("comm_", "neg_", "op_defined")) for v in out):
        for clique in maximal_cliques(A):
            decoded = _decode_block(A, list(_bits(clique)))
            if isinstance(decoded, Violation):
                out.append(decoded)

    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# Block pasting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockHypergraph:
    """Atom labels plus blocks, each block the atom set of a maximal Boolean
    subalgebra.  Two blocks may share any number of atoms; whether the
    pasting is a partial Boolean algebra is decided by :func:`validate`
    on the pasted carrier."""

    atoms: tuple[str, ...]
    blocks: tuple[frozenset[str], ...]

    def __post_init__(self):
        seen = set(self.atoms)
        if len(seen) != len(self.atoms):
            raise StructuralError("duplicate atom labels")
        for blk in self.blocks:
            if len(blk) < 2:
                raise StructuralError(f"block {sorted(blk)} has fewer than 2 atoms")
            if not blk <= seen:
                raise StructuralError(f"block {sorted(blk)} uses undeclared atoms")
        for b1, b2 in itertools.combinations(self.blocks, 2):
            if b1 <= b2 or b2 <= b1:
                raise StructuralError(
                    f"block {sorted(b1)} is contained in block {sorted(b2)}")
        covered = set().union(*self.blocks) if self.blocks else set()
        if covered != seen:
            missing = sorted(seen - covered)
            raise StructuralError(f"atoms {missing} occur in no block")


def block_hypergraph(blocks: Iterable[Iterable[str]]) -> BlockHypergraph:
    blocks = tuple(frozenset(b) for b in blocks)
    atoms = tuple(sorted(set().union(*blocks))) if blocks else ()
    return BlockHypergraph(atoms=atoms, blocks=blocks)


# (block, proper nonempty atom set) pairs, summed over the blocks, past which
# paste_blocks stops before enumerating them: a carrier past this size
# would take minutes and gigabytes of tables (compare _TENSOR_MAX_SLOTS)
_PASTE_MAX_SLOTS = 5_000


def paste_blocks(h: BlockHypergraph) -> PartialBooleanAlgebra:
    """Glue the powerset algebras of the blocks into one partial Boolean
    algebra.

    The carrier consists of global 0 and 1 plus equivalence classes of
    (block, proper nonempty atom subset) pairs under the least equivalence
    that identifies equal atom sets and is closed under in-block
    complementation.  Two classes are commeasurable iff they have
    representatives in a single block.  The output is certified with
    :func:`validate`; pathological pastings are rejected there rather than by
    input-side conditions.  Atoms that the equivalence forces equal (two
    blocks sharing all atoms but one each) become one element, labelled by
    the smallest of their labels.  Past ``_PASTE_MAX_SLOTS`` pairs it raises
    SearchCutoffError.
    """
    slots = sum((1 << len(blk)) - 2 for blk in h.blocks)
    if slots > _PASTE_MAX_SLOTS:
        raise SearchCutoffError(
            f"pasting too large: {slots} (block, atom set) pairs exceed "
            f"{_PASTE_MAX_SLOTS}", limit=_PASTE_MAX_SLOTS)
    pairs: list[tuple[int, frozenset[str]]] = []
    index: dict[tuple[int, frozenset[str]], int] = {}
    for bi, blk in enumerate(h.blocks):
        members = sorted(blk)
        for r in range(1, len(members)):
            for sub in itertools.combinations(members, r):
                key = (bi, frozenset(sub))
                index[key] = len(pairs)
                pairs.append(key)

    parent = list(range(len(pairs)))
    comp = [index[(bi, frozenset(h.blocks[bi]) - sub)] for bi, sub in pairs]

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # Identify equal atom sets, then close under complementation: every
    # union of i and j queues the union of their complements.
    first: dict[frozenset[str], int] = {}
    work = [(first.setdefault(sub, i), i) for i, (_, sub) in enumerate(pairs)]
    while work:
        i, j = work.pop()
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
            work.append((comp[i], comp[j]))

    groups: dict[int, list[int]] = {}
    for i in range(len(pairs)):
        groups.setdefault(find(i), []).append(i)
    roots = sorted(groups)

    def class_label(root: int) -> str:
        bi, sub = min((pairs[i] for i in groups[root]),
                      key=lambda p: (len(p[1]), tuple(sorted(p[1]))))
        if len(sub) == 1:
            return next(iter(sub))
        blk = h.blocks[bi]
        if len(sub) == len(blk) - 1:
            (missing,) = blk - sub
            return "~" + missing
        return "+".join(sorted(sub))

    n = 2 + len(roots)
    zero, one = 0, 1
    labels = ["0", "1"] + [class_label(r) for r in roots]
    root_index = {r: 2 + i for i, r in enumerate(roots)}

    def elem_of(bi: int, sub: frozenset[str]) -> int:
        if not sub:
            return zero
        if sub == h.blocks[bi]:
            return one
        return root_index[find(index[(bi, sub)])]

    # {0, 1} is a block of every pasting, and the only one of the empty one
    blocks = [[zero, one]]
    for bi, blk in enumerate(h.blocks):
        subs = [frozenset()]  # subs[mask]: the atoms at mask's bits
        for atom in sorted(blk):
            subs += [s | {atom} for s in subs]
        blocks.append([elem_of(bi, s) for s in subs])
    try:
        A = _block_algebra(n, blocks, zero, one, tuple(labels))
    except AmalgamError as exc:
        raise InvalidAlgebraError(f"pasting produced conflicting tables: {exc}") from exc
    report = validate(A)
    if not report.ok:
        raise InvalidAlgebraError("pasted algebra fails validation", report=report)
    return A


# ---------------------------------------------------------------------------
# Orthomodular lattice input
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OmlSpec:
    """A finite orthomodular lattice given by its order relation and its
    orthocomplementation table."""

    n: int
    leq: tuple[int, ...]       # row bitmasks: leq[a] has bit b iff a <= b
    ortho: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        n = self.n
        if len(self.leq) != n or len(self.ortho) != n:
            raise StructuralError("order/orthocomplement table size mismatch")
        full = (1 << n) - 1
        for a in range(n):
            if self.leq[a] & ~full:
                raise StructuralError(f"leq[{a}] out of range")
            if not 0 <= self.ortho[a] < n:
                raise StructuralError(f"ortho[{a}] out of range")

    def holds(self, a: int, b: int) -> bool:
        return bool((self.leq[a] >> b) & 1)


def _lattice_tables(L: OmlSpec) -> tuple[int, int, list[list[int]], list[list[int]]]:
    """Bottom, top and total meet/join tables of a finite lattice (rejecting
    inputs where some pair lacks a unique glb/lub)."""
    n = L.n
    for a in range(n):
        if not L.holds(a, a):
            raise DomainError(f"order not reflexive at {L.labels[a]}")
        for b in range(n):
            if L.holds(a, b) and L.holds(b, a) and a != b:
                raise DomainError("order not antisymmetric")
            for c in range(n):
                if L.holds(a, b) and L.holds(b, c) and not L.holds(a, c):
                    raise DomainError("order not transitive")
    bottoms = [a for a in range(n) if all(L.holds(a, b) for b in range(n))]
    tops = [a for a in range(n) if all(L.holds(b, a) for b in range(n))]
    if len(bottoms) != 1 or len(tops) != 1:
        raise DomainError("lattice must be bounded")
    meet = [[UNDEF] * n for _ in range(n)]
    join = [[UNDEF] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            lowers = [c for c in range(n) if L.holds(c, a) and L.holds(c, b)]
            glbs = [c for c in lowers if all(L.holds(d, c) for d in lowers)]
            uppers = [c for c in range(n) if L.holds(a, c) and L.holds(b, c)]
            lubs = [c for c in uppers if all(L.holds(c, d) for d in uppers)]
            if len(glbs) != 1 or len(lubs) != 1:
                raise DomainError(
                    f"pair ({L.labels[a]}, {L.labels[b]}) lacks a meet or join")
            meet[a][b] = glbs[0]
            join[a][b] = lubs[0]
    return bottoms[0], tops[0], meet, join


def from_orthomodular(L: OmlSpec) -> PartialBooleanAlgebra:
    """View an orthomodular lattice as a partial Boolean algebra: a ⊙ b iff
    a = (a ∧ b) ∨ (a ∧ b'), with meet/join restricted to such pairs."""
    n = L.n
    zero, one, meet, join = _lattice_tables(L)
    for a in range(n):
        c = L.ortho[a]
        if L.ortho[c] != a:
            raise DomainError(f"orthocomplement not involutive at {L.labels[a]}")
        if meet[a][c] != zero or join[a][c] != one:
            raise DomainError(f"orthocomplement of {L.labels[a]} is not a complement")
        for b in range(n):
            if L.holds(a, b) and not L.holds(L.ortho[b], c):
                raise DomainError("orthocomplement not order-reversing")
            if L.holds(a, b) and join[a][meet[L.ortho[a]][b]] != b:
                raise DomainError(
                    f"orthomodular law fails at ({L.labels[a]}, {L.labels[b]})")

    def compatible(a: int, b: int) -> bool:
        return join[meet[a][b]][meet[a][L.ortho[b]]] == a

    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            ab = compatible(a, b)
            if ab != compatible(b, a):
                raise DomainError("compatibility relation asymmetric; not orthomodular")
            if ab:
                pairs.append((a, b))
    meets = [(a, b, meet[a][b]) for a, b in pairs]
    joins = [(a, b, join[a][b]) for a, b in pairs]
    A = make_pba(n, zero, one, L.ortho, pairs, meets, joins, L.labels)
    report = validate(A)
    if not report.ok:
        raise InvalidAlgebraError("orthomodular input fails validation", report=report)
    return A


def mo_lattice(k: int) -> OmlSpec:
    """MO(k): the horizontal sum of k four-element blocks glued at 0 and 1;
    MO(2) is the standard six-element example."""
    if k < 1:
        raise DomainError("need at least one block")
    n = 2 + 2 * k
    labels = ["0", "1"]
    for i in range(k):
        labels += [f"x{i}", f"x{i}'"]
    leq = [0] * n
    for a in range(n):
        leq[a] |= _bit(a) | _bit(1)   # a <= a and a <= 1
    leq[0] = (1 << n) - 1             # 0 below everything
    ortho = [1, 0]
    for i in range(k):
        ortho += [2 * i + 3, 2 * i + 2]
    return OmlSpec(n=n, leq=tuple(leq), ortho=tuple(ortho), labels=tuple(labels))


# ---------------------------------------------------------------------------
# Generated subalgebras
# ---------------------------------------------------------------------------

def _require_pairwise_comm(A: PartialBooleanAlgebra, S: Iterable[int]) -> list[int]:
    S = sorted(set(S))
    for a, b in itertools.combinations(S, 2):
        if not A.comm_pair(a, b):
            raise DomainError(
                f"elements {A.labels[a]} and {A.labels[b]} are not commeasurable")
    return S


def generated_subalgebra(A: PartialBooleanAlgebra, S: Iterable[int]) -> frozenset[int]:
    """The least operation-closed superset of S ∪ {0, 1}: the Boolean
    subalgebra generated by a pairwise commeasurable set."""
    S = _require_pairwise_comm(A, S)
    closed = {A.zero, A.one, *S}
    frontier = list(closed)
    while frontier:
        fresh = set()
        for a in frontier:
            b = A.neg[a]
            if b not in closed:
                fresh.add(b)
        for a, b in itertools.combinations(sorted(closed), 2):
            if A.comm_pair(a, b):
                for v in (A.meet_of(a, b), A.join_of(a, b)):
                    if v not in closed:
                        fresh.add(v)
        closed |= fresh
        frontier = list(fresh)
    return frozenset(closed)


def join_all(A: PartialBooleanAlgebra, S: Iterable[int]) -> int:
    """Iterated binary join of a pairwise commeasurable set (empty join = 0).
    The fold happens inside the generated subalgebra, so the result is
    independent of iteration order."""
    S = _require_pairwise_comm(A, S)
    acc = A.zero
    for a in S:
        acc = A.join_of(acc, a)
    return acc


def atoms_of_subalgebra(A: PartialBooleanAlgebra, S: frozenset[int]) -> list[int]:
    """Minimal nonzero elements of a totally commeasurable subalgebra."""
    nonzero = [a for a in sorted(S) if a != A.zero]
    return [a for a in nonzero
            if not any(b != a and A.meet_of(a, b) == b for b in nonzero)]


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PbaMorphism:
    """A total map between carriers, to be checked against the morphism
    clauses (preservation of comm, 0, 1, neg, and meet/join where defined)."""

    dom: PartialBooleanAlgebra
    cod: PartialBooleanAlgebra
    map: tuple[int, ...]

    def __post_init__(self):
        if len(self.map) != self.dom.n:
            raise StructuralError(
                f"map has {len(self.map)} entries, expected {self.dom.n}")
        for a, v in enumerate(self.map):
            if not 0 <= v < self.cod.n:
                raise StructuralError(f"map[{a}] = {v} out of codomain range")

    def __call__(self, a: int) -> int:
        return self.map[a]

    def __repr__(self):
        return f"PbaMorphism({self.dom.n}->{self.cod.n}, map={list(self.map)!r})"


def identity_morphism(A: PartialBooleanAlgebra) -> PbaMorphism:
    return PbaMorphism(A, A, tuple(range(A.n)))


def compose(g: PbaMorphism, f: PbaMorphism) -> PbaMorphism:
    if f.cod is not g.dom and f.cod != g.dom:
        raise DomainError("morphisms not composable")
    return PbaMorphism(f.dom, g.cod, tuple(g.map[v] for v in f.map))


@dataclass(frozen=True)
class MorphismCheck:
    ok: bool
    clause: str | None = None
    witness: tuple[int, ...] = ()
    message: str = ""

    def __bool__(self):
        return self.ok


def check_morphism(f: PbaMorphism) -> MorphismCheck:
    """True iff all morphism clauses hold; otherwise the first violated
    clause (in a fixed deterministic order) with witnesses."""
    A, B, m = f.dom, f.cod, f.map
    if m[A.zero] != B.zero:
        return MorphismCheck(False, "zero", (A.zero,), "does not preserve 0")
    if m[A.one] != B.one:
        return MorphismCheck(False, "one", (A.one,), "does not preserve 1")
    for a in range(A.n):
        if m[A.neg[a]] != B.neg[m[a]]:
            return MorphismCheck(False, "neg", (a,),
                                 f"neg not preserved at {A.labels[a]}")
    # One ascending walk over the pairs a < b commeasurable in A, reading
    # the set bits of A.comm[a] above a off its binary digits.  A comm
    # violation anywhere is reported first; otherwise the first meet or join
    # violation in pair order, meet before join.  Above _SMALL_MAX elements
    # only the rows a numpy test finds a violation on are walked, which
    # gives the same first violations.
    rows: Iterable[int] = range(A.n)
    if A.n > _SMALL_MAX:
        from ._rowbands import morphism_rows
        rows = morphism_rows(f)
    bad = None
    for a in rows:
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


def _trusted_algebra(**fields) -> PartialBooleanAlgebra:
    """A PartialBooleanAlgebra built from its fields without the shape and
    range checks of ``__post_init__``, for tables the caller has just built
    in range.  It certifies nothing else: the caller still validates."""
    A = object.__new__(PartialBooleanAlgebra)
    A.__dict__.update(fields)
    return A


def _trusted_morphism(A: PartialBooleanAlgebra, B: PartialBooleanAlgebra,
                      m: tuple[int, ...]) -> PbaMorphism:
    """A PbaMorphism built without the range checks of ``__post_init__``,
    for maps the caller has already proved to be morphisms A -> B."""
    f = object.__new__(PbaMorphism)
    f.__dict__.update(dom=A, cod=B, map=m)
    return f


class _Clauses(NamedTuple):
    """The morphism clauses of A -> B compiled position by position.  Given
    the images f of the earlier positions, position k's domain is init[k]
    ANDed with table[f[j]] for each (table, j) in unary[k] and with
    table[f[i]][f[j]] for each (table, i, j) in binary[k].  cost[k] is the
    candidate count of a trial-by-trial backtracker (1 when forced, else
    B.n), so a node budget counts the nodes that search would visit."""
    init: list[int]
    cost: list[int]
    unary: list[list[tuple[list[int], int]]]
    binary: list[list[tuple[list[list[int]], int, int]]]


def _compile_clauses(A: PartialBooleanAlgebra, B: PartialBooleanAlgebra) -> _Clauses:
    """The clauses a map A -> B must meet to be a morphism, as ``_Clauses``."""
    n, m = A.n, B.n
    # Candidate masks over B.  Each table, indexed by images already chosen,
    # gives the set of z that pass morphism clauses against them.
    col = [0] * m          # [w]: z with w in B.comm[z]
    meet_self = [0] * m    # [w]: z with B.meet[z][w] == z
    join_self = [0] * m    # [w]: z with B.join[z][w] == z
    meet_eq = [[0] * m for _ in range(m)]  # [w][v]: z with B.meet[z][w] == v
    join_eq = [[0] * m for _ in range(m)]
    for z in range(m):
        bz = 1 << z
        for w in _bits(B.comm[z]):
            col[w] |= bz
        for w, (v, u) in enumerate(zip(B.meet[z], B.join[z])):
            if v != UNDEF:
                meet_eq[w][v] |= bz
            if u != UNDEF:
                join_eq[w][u] |= bz
            if v == z:
                meet_self[w] |= bz
            if u == z:
                join_self[w] |= bz
    # the clauses of k against one earlier commeasurable j that read f[j]
    # alone, keyed by (k ∧ j == k, k ∨ j == k)
    pred_clauses = {
        (False, False): col,
        (True, False): [c & s for c, s in zip(col, meet_self)],
        (False, True): [c & s for c, s in zip(col, join_self)],
        (True, True): [c & s & t for c, s, t in zip(col, meet_self, join_self)]}
    neg_bit = [1 << v for v in B.neg]
    meet_bit = [[1 << v if v != UNDEF else 0 for v in row] for row in B.meet]
    join_bit = [[1 << v if v != UNDEF else 0 for v in row] for row in B.join]

    # a meet or join of an earlier pair landing at a later element pins it
    pins: list[list[tuple[list[list[int]], int, int]]] = [[] for _ in range(n)]
    for a in range(n):
        for b in _bits(A.comm[a] >> (a + 1) << (a + 1)):
            if A.meet[a][b] > b:
                pins[A.meet[a][b]].append((meet_bit, a, b))
            if A.join[a][b] > b:
                pins[A.join[a][b]].append((join_bit, a, b))

    # Compile each position k.  A position whose init mask is one bit has
    # that image in every prefix that gets past it, so the clauses reading
    # it fold into later init masks.
    full = (1 << m) - 1
    init: list[int] = []
    cost: list[int] = []
    unary: list[list[tuple[list[int], int]]] = []
    binary: list[list[tuple[list[list[int]], int, int]]] = []
    image: list[int | None] = []
    for k in range(n):
        mask, forced = full, False
        for fixed, value in ((k == A.zero, B.zero), (k == A.one, B.one)):
            if fixed:
                mask &= 1 << value
                forced = True
        reads = []
        if A.neg[k] < k:
            reads.append((neg_bit, A.neg[k]))
            forced = True
        cost.append(1 if forced else m)
        pairs = pins[k]
        for j in _bits(A.comm[k] & ((1 << k) - 1)):
            t, u = A.meet[k][j], A.join[k][j]
            reads.append((pred_clauses[t == k, u == k], j))
            if 0 <= t < k:
                pairs.append((meet_eq, j, t))
            if 0 <= u < k:
                pairs.append((join_eq, j, u))
        left = []
        for table, i, j in pairs:
            if image[i] is not None:
                reads.append((table[image[i]], j))
            elif image[j] is not None:
                reads.append(([row[image[j]] for row in table], i))
            else:
                left.append((table, i, j))
        tables: dict[int, list[int]] = {}
        for table, j in reads:
            if image[j] is not None:
                mask &= table[image[j]]
            elif j in tables:
                tables[j] = [x & y for x, y in zip(tables[j], table)]
            else:
                tables[j] = table
        init.append(mask)
        unary.append(list(zip(tables.values(), tables)))
        binary.append(left)
        image.append(mask.bit_length() - 1 if mask and not mask & (mask - 1) else None)
    return _Clauses(init, cost, unary, binary)


# Node budget of enumerate_morphisms: the candidates a trial-by-trial search
# would try (1 at a forced position, B.n elsewhere).
_HOM_MAX_NODES = 5_000_000


def enumerate_morphisms(A: PartialBooleanAlgebra,
                        B: PartialBooleanAlgebra) -> list[PbaMorphism]:
    """Complete duplicate-free list of morphisms A -> B in lexicographic
    order on the underlying map.  Backtracking with constraint propagation;
    past ``_HOM_MAX_NODES`` nodes it raises SearchCutoffError."""
    max_nodes = _HOM_MAX_NODES
    init, cost, unary, binary = _compile_clauses(A, B)
    n = A.n

    # Explicit-stack search.  rest[k] holds the untried candidates at k,
    # taken lowest first so the maps come out in lexicographic order; each
    # candidate at the last position is a morphism.
    maps: list[tuple[int, ...]] = []
    f = [0] * n
    rest = [0] * n
    last = n - 1
    nodes = 0
    k = 0
    while True:
        nodes += cost[k]
        if nodes > max_nodes:
            raise SearchCutoffError(
                f"search too large: morphism enumeration exceeded {max_nodes} nodes",
                limit=max_nodes)
        dom = init[k]
        for table, j in unary[k]:
            dom &= table[f[j]]
        for table, i, j in binary[k]:
            dom &= table[f[i]][f[j]]
        if k == last:
            while dom:
                low = dom & -dom
                dom ^= low
                f[k] = low.bit_length() - 1
                maps.append(tuple(f))
            k -= 1
        else:
            rest[k] = dom
        while k >= 0 and not rest[k]:
            k -= 1
        if k < 0:
            return [_trusted_morphism(A, B, mp) for mp in maps]
        dom = rest[k]
        low = dom & -dom
        rest[k] = dom ^ low
        f[k] = low.bit_length() - 1
        k += 1


def _count_morphisms(clauses: _Clauses, max_nodes: int) -> tuple[int, int] | None:
    """``(nodes, |Hom|)`` of the search over ``clauses``, listing no map;
    None once its node total passes ``max_nodes``, exactly when
    ``enumerate_morphisms`` would raise.

    The search charges cost[k] once per consistent prefix of length k, so
    its node total is the sum of cost[k] * N[k].  A frontier pass counts
    each N[k] without visiting the prefixes one by one: layer k maps each
    frontier (the images of the earlier positions that a clause at k or
    later still reads) to the number of consistent prefixes that share it,
    and the last layer's count is |Hom|.
    """
    init, cost, unary, binary = clauses
    n = len(init)
    last_read = list(range(n))
    for k in range(n):
        for _, j in unary[k]:
            last_read[j] = k
        for _, i, j in binary[k]:
            last_read[i] = last_read[j] = k
    nodes = cost[0]
    if nodes > max_nodes:
        return None
    held: list[int] = []      # the frontier's positions, in state order
    layer: Iterable[tuple[tuple[int, ...], int]] = [((), 1)]
    for k in range(n):
        # where each clause at k and each surviving image sit in a state
        slot = {p: s for s, p in enumerate(held)}
        reads1 = [(table, slot[j]) for table, j in unary[k]]
        reads2 = [(table, slot[i], slot[j]) for table, i, j in binary[k]]
        kept = [s for s, p in enumerate(held) if last_read[p] > k]
        same = len(kept) == len(held)
        held = [held[s] for s in kept]
        extend = last_read[k] > k
        if extend:
            held.append(k)
        step = cost[k + 1] if k + 1 < n else 0
        room = max_nodes - nodes
        total = 0
        grown = []      # (frontier, count) pairs of the next layer, unmerged
        for state, count in layer:
            dom = init[k]
            for table, s in reads1:
                dom &= table[state[s]]
            for table, s, t in reads2:
                dom &= table[state[s]][state[t]]
            if not dom:
                continue
            base = state if same else tuple(map(state.__getitem__, kept))
            if extend:
                while dom:
                    low = dom & -dom
                    dom ^= low
                    grown.append((base + (low.bit_length() - 1,), count))
                    total += count
            else:
                count *= dom.bit_count()
                grown.append((base, count))
                total += count
            if step * total > room:
                return None
        nodes += step * total
        if same and extend:
            layer = grown   # distinct frontiers extend to distinct ones
        else:
            merged: dict[tuple[int, ...], int] = {}
            for key, count in grown:
                merged[key] = merged.get(key, 0) + count
            layer = merged.items()
    return nodes, sum(count for _, count in layer)


def _satisfies_clauses(clauses: _Clauses, mp: Sequence[int]) -> bool:
    """Whether the search over ``clauses`` lists the map ``mp``: each image
    lies in the domain its prefix gives that position."""
    init, _, unary, binary = clauses
    for k, v in enumerate(mp):
        dom = init[k]
        for table, j in unary[k]:
            dom &= table[mp[j]]
        for table, i, j in binary[k]:
            dom &= table[mp[i]][mp[j]]
        if not dom >> v & 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Subalgebras as standalone carriers, image factorization
# ---------------------------------------------------------------------------

def sub_algebra(
    A: PartialBooleanAlgebra, S: Iterable[int]
) -> tuple[PartialBooleanAlgebra, tuple[int, ...]]:
    """Restrict A to an operation-closed subset S (0 and 1 must belong).
    Returns the restricted carrier and the embedding table sub-index ->
    A-index."""
    embed = tuple(sorted(set(S)))
    pos = {a: i for i, a in enumerate(embed)}
    if A.zero not in pos or A.one not in pos:
        raise DomainError("subset must contain 0 and 1")
    n = len(embed)
    comm = []
    for a in embed:
        row = 0
        for b in embed:
            if A.comm_pair(a, b):
                row |= _bit(pos[b])
        comm.append(row)
    neg = []
    for a in embed:
        v = A.neg[a]
        if v not in pos:
            raise DomainError(f"subset not closed under neg at {A.labels[a]}")
        neg.append(pos[v])
    meet = [[UNDEF] * n for _ in range(n)]
    join = [[UNDEF] * n for _ in range(n)]
    for i, a in enumerate(embed):
        for j, b in enumerate(embed):
            if A.comm_pair(a, b):
                for name, src, dst in (("meet", A.meet, meet), ("join", A.join, join)):
                    v = src[a][b]
                    if v not in pos:
                        raise DomainError(
                            f"subset not closed under {name} at ({A.labels[a]}, {A.labels[b]})")
                    dst[i][j] = pos[v]
    sub = PartialBooleanAlgebra(
        n=n, zero=pos[A.zero], one=pos[A.one], neg=tuple(neg), comm=tuple(comm),
        meet=tuple(tuple(r) for r in meet), join=tuple(tuple(r) for r in join),
        labels=tuple(A.labels[a] for a in embed))
    return sub, embed


def inclusion_morphism(A: PartialBooleanAlgebra, S: Iterable[int]) -> PbaMorphism:
    sub, embed = sub_algebra(A, S)
    return PbaMorphism(sub, A, embed)


@dataclass(frozen=True)
class ImageFactorization:
    image: PartialBooleanAlgebra
    surjection: PbaMorphism   # dom -> image
    inclusion: PbaMorphism    # image -> cod


def image_factorization(f: PbaMorphism) -> ImageFactorization:
    """Factor a morphism through its set-theoretic image.  The image carries
    the pushforward commeasurability (x ⊙ y iff some preimage pair is
    commeasurable) and the operations of the codomain."""
    chk = check_morphism(f)
    if not chk:
        raise DomainError(f"not a morphism: {chk.message}")
    A, B = f.dom, f.cod
    embed = tuple(sorted(set(f.map)))
    pos = {v: i for i, v in enumerate(embed)}
    image_of = tuple(pos[v] for v in f.map)
    # every commeasurable pair of A lies in a maximal block, so the images
    # of those blocks carry the pushforward and, f being a morphism, B's
    # operations; repeated elements write equal cells
    image = _block_algebra(
        len(embed), [[image_of[a] for a in element] for _, element in _target_blocks(A)],
        pos[B.zero], pos[B.one], tuple(B.labels[v] for v in embed))
    report = validate(image)
    if not report.ok:
        raise InvalidAlgebraError("image carrier fails validation", report=report)
    surj = PbaMorphism(A, image, image_of)
    incl = PbaMorphism(image, B, embed)
    return ImageFactorization(image=image, surjection=surj, inclusion=incl)


# ---------------------------------------------------------------------------
# Isomorphism search
# ---------------------------------------------------------------------------

def _candidate_classes(sig_a: Sequence, sig_b: Sequence) -> list[int] | None:
    """Candidate masks over B for an isomorphism search: element ``a`` may
    map to each ``b`` with the same invariant signature.  None when the two
    signature multisets differ, since then no bijection respects them."""
    if sorted(sig_a) != sorted(sig_b):
        return None
    by_sig: dict = {}
    for b, s in enumerate(sig_b):
        by_sig[s] = by_sig.get(s, 0) | 1 << b
    return [by_sig[s] for s in sig_a]


# Node budget of _isomorphism_search, one node per image tried at a
# decision.  The largest search seen between valid carriers of the bundled
# corpus, the generated corpus, the test suite and the benchmark workloads
# takes 12 nodes (two crown orders refuted in tests/test_poset.py); the
# largest on a workload takes 9 (T(bool2, bool5) against
# boolean_algebra(10), on hom-sweep); a relabelled carrier with one
# corrupted meet or join in tests/test_core.py takes 237.
_ISO_MAX_NODES = 5_000_000


def _isomorphism_search(candidates: Sequence[int],
                        relations: Sequence[tuple[Sequence[int], Sequence[int]]],
                        closure: Callable[[int, int, list[int], int],
                                          Iterable[tuple[int, int]]] | None = None,
                        ) -> list[int] | None:
    """A bijection f of 0..n-1 with f[a] in candidates[a] for every a and
    ``rows_a[a]`` bit x == ``rows_b[f[a]]`` bit f[x] for every relation
    ``(rows_a, rows_b)`` and every a and x, or None.  The search adds each
    relation's columns as a further relation unless both sides are
    symmetric, so every pair is checked in both orders whichever of its
    elements is assigned first.

    ``closure(a, b, f, done)``, if given, runs when a is assigned b, with
    ``done`` the mask of elements assigned before a; it returns pairs
    ``(x, y)`` that force f[x] == y (it may leave out pairs f already
    satisfies), and a negative x or y is a contradiction.

    Injectivity is one mask of used images, so an element's candidates
    are ``masks[x] & ~used``; assigning a narrows the masks of the
    unassigned elements only through a relation cell that excludes some
    image (forward checking), and only the closure's pairs are visited
    beyond that.  An element whose candidates narrow to one, or are forced
    by the closure, is assigned in turn.  Before each decision a scan over
    the unassigned elements finds those injectivity alone has narrowed: no
    candidate left is a contradiction, one left is assigned in turn, and
    only when neither occurs does the search branch, on the element with
    the fewest candidates, lowest image first.  Forced assignments cost no
    node.  The search runs on an explicit stack whose entries keep the
    masks, images and used mask as they were at their decision, so undo
    memory is one snapshot per decision level.  Each image tried at a
    decision is one node; past ``_ISO_MAX_NODES`` it raises
    SearchCutoffError.
    """
    n = len(candidates)
    full = (1 << n) - 1
    both_orders = []
    for rows_a, rows_b in relations:
        both_orders.append((rows_a, rows_b))
        cols_a, cols_b = _columns(rows_a), _columns(rows_b)
        if cols_a != list(rows_a) or cols_b != list(rows_b):
            both_orders.append((cols_a, cols_b))
    relations = both_orders

    def propagate(queue: list[int], masks: list[int], f: list[int], free: int,
                  used: int) -> tuple[int, int]:
        """Assign the queued elements and everything they force; returns
        the new free and used masks, free -1 on a contradiction."""
        while queue:
            a = queue.pop()
            if f[a] >= 0:
                continue
            m = masks[a] & ~used
            if not m:
                return -1, used
            b = m.bit_length() - 1
            for rows_a, rows_b in relations:
                if (rows_a[a] >> a & 1) != (rows_b[b] >> b & 1):
                    return -1, used
            f[a] = b
            done = full ^ free
            free ^= 1 << a
            used |= 1 << b
            cells = [(free, full)]
            for rows_a, rows_b in relations:
                inside, row = rows_a[a], rows_b[b]
                cells = [(part & side, keep & image)
                         for part, keep in cells
                         for side, image in ((inside, row), (~inside, ~row))
                         if part & side]
            for part, keep in cells:
                if keep == full:
                    continue
                for x in _bit_positions(part):
                    old = masks[x]
                    m = old & keep
                    if m != old:
                        masks[x] = m
                        m &= ~used
                        if not m:
                            return -1, used
                        if not m & (m - 1):
                            queue.append(x)
            if closure is not None:
                for x, y in closure(a, b, f, done):
                    if x < 0 or y < 0:
                        return -1, used
                    if f[x] >= 0:
                        if f[x] != y:
                            return -1, used
                        continue
                    if not (masks[x] & ~used) >> y & 1:
                        return -1, used
                    if masks[x] != 1 << y:
                        masks[x] = 1 << y
                        queue.append(x)
        return free, used

    if not all(candidates):
        return None
    masks = list(candidates)
    f = [-1] * n
    queue = [a for a, m in enumerate(masks) if not m & (m - 1)]
    stack: list[tuple[int, int, list[int], list[int], int, int]] = []
    free, used = propagate(queue, masks, f, full, 0)
    max_nodes = _ISO_MAX_NODES
    nodes = 0
    while True:
        if free > 0:
            # the candidates injectivity leaves each unassigned element:
            # none is a contradiction, one is assigned at no node, and only
            # otherwise does the search branch
            avail = full ^ used
            best, a, forced = n + 1, -1, []
            for x in _bit_positions(free):
                c = (masks[x] & avail).bit_count()
                if c < 2:
                    if not c:
                        free = -1
                        break
                    forced.append(x)
                elif c < best:
                    best, a = c, x
            else:
                if forced:
                    free, used = propagate(forced, masks, f, free, used)
                    continue
        if free == 0:
            return f
        if free > 0:
            stack.append((a, masks[a] & avail, masks, f, free, used))
        elif not stack:
            return None
        nodes += 1
        if nodes > max_nodes:
            raise SearchCutoffError(
                f"search too large: isomorphism search exceeded {max_nodes} nodes",
                limit=max_nodes)
        a, cand, saved_masks, saved_f, free, used = stack[-1]
        low = cand & -cand
        if cand == low:
            stack.pop()
            masks, f = saved_masks, saved_f
        else:
            stack[-1] = (a, cand ^ low, saved_masks, saved_f, free, used)
            masks, f = list(saved_masks), list(saved_f)
        masks[a] = low
        free, used = propagate([a], masks, f, free, used)


def _columns(rows: Sequence[int]) -> list[int]:
    """The transpose of a square relation given as row bitmasks, through
    the rows' binary strings (character j of row a is bit n-1-j)."""
    n = len(rows)
    full = (1 << n) - 1
    if all(row == full for row in rows):
        return list(rows)  # a total relation is its own transpose
    strings = [format(row, f"0{n}b") for row in rows]
    return [int("".join(reversed(chars)), 2) for chars in zip(*strings)][::-1]


def _signature(A: PartialBooleanAlgebra, a: int) -> tuple:
    """Isomorphism invariants of an element: whether it is 0, 1 or its own
    negation, its commeasurability degree, and how many commeasurable
    elements lie below it (which separates the ranks of a Boolean block)."""
    row, meet = A.comm[a], A.meet[a]
    # a b with a ∧ b = b is a value of a's meet row, so one C-speed pass
    # collects the row's distinct values and only those are tested
    down = sum(1 for b in set(meet) if b != UNDEF and meet[b] == b and row >> b & 1)
    return (a == A.zero, a == A.one, a == A.neg[a], row.bit_count(), down)


def _comm_pullback(f: PbaMorphism, a: int) -> int:
    """The mask of the x in f's domain whose images are commeasurable with
    f(a): the row ``B.comm[f(a)]`` pulled back along f, gathered through the
    row's binary string (character v is bit v).  A full row pulls back to a
    full mask at once."""
    A, B = f.dom, f.cod
    row = B.comm[f.map[a]]
    if row == (1 << B.n) - 1:
        return (1 << A.n) - 1
    bits = format(row, f"0{B.n}b")[::-1]
    return int("".join(map(bits.__getitem__, f.map))[::-1], 2)


def _certify_isomorphism(f: PbaMorphism) -> None:
    """Raise PbalgError unless f is a morphism, a bijection, and reflects
    commeasurability, so that its inverse is a morphism too."""
    chk = check_morphism(f)
    if not chk.ok:
        raise PbalgError(f"isomorphism search returned a non-morphism: {chk.message}")
    A, B = f.dom, f.cod
    if A.n != B.n or len(set(f.map)) != B.n:
        raise PbalgError("isomorphism search returned a map that is not a bijection")
    for a in range(A.n):
        if _comm_pullback(f, a) != A.comm[a]:
            raise PbalgError(
                f"isomorphism search returned a map that does not reflect "
                f"commeasurability at {A.labels[a]}")


def find_isomorphism(A: PartialBooleanAlgebra, B: PartialBooleanAlgebra) -> tuple[int, ...] | None:
    """Search for a bijection preserving 0, 1, neg, comm, meet and join,
    and reflecting comm.  Returns the map A-index -> B-index, or None."""
    if A.n != B.n:
        return None
    if A.n > _SMALL_MAX:
        from ._rowbands import signatures
        candidates = _candidate_classes(signatures(A), signatures(B))
    else:
        candidates = _candidate_classes([_signature(A, a) for a in range(A.n)],
                                        [_signature(B, b) for b in range(B.n)])
    if candidates is None:
        return None
    cols_a = _columns(A.comm)
    meet_a, join_a, meet_b, join_b = A.meet, A.join, B.meet, B.join

    def closure(a: int, b: int, f: list[int], done: int) -> list[tuple[int, int]]:
        # the pairs check_morphism reads, p < q with A.comm_pair(p, q), are
        # each met once, when the later of p and q is assigned: the assigned
        # x < a with comm[x] bit a (column a) and x > a with comm[a] bit x.
        # A pair whose meet or join already maps onto the images' meet or
        # join forces nothing new and is left out ((m | y) < 0 iff m or y is
        # UNDEF), and repeats of a forced pair are dropped at C speed.
        forced = [(A.neg[a], B.neg[b])]
        for x in _bit_positions(done & cols_a[a] & ((1 << a) - 1)):
            fx = f[x]
            m, y = meet_a[x][a], meet_b[fx][b]
            if f[m] != y or (m | y) < 0:
                forced.append((m, y))
            m, y = join_a[x][a], join_b[fx][b]
            if f[m] != y or (m | y) < 0:
                forced.append((m, y))
        row_meet, row_join, image_meet, image_join = meet_a[a], join_a[a], meet_b[b], join_b[b]
        for x in _bit_positions(done & (A.comm[a] >> a + 1 << a + 1)):
            fx = f[x]
            m, y = row_meet[x], image_meet[fx]
            if f[m] != y or (m | y) < 0:
                forced.append((m, y))
            m, y = row_join[x], image_join[fx]
            if f[m] != y or (m | y) < 0:
                forced.append((m, y))
        return list(dict.fromkeys(forced))

    f = _isomorphism_search(candidates, [(A.comm, B.comm)], closure)
    if f is None:
        return None
    _certify_isomorphism(_trusted_morphism(A, B, tuple(f)))
    return tuple(f)


def is_isomorphic(A: PartialBooleanAlgebra, B: PartialBooleanAlgebra) -> bool:
    return find_isomorphism(A, B) is not None
