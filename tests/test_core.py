"""Tests for the partial Boolean algebra core: validation, constructions,
generated subalgebras, morphisms."""

from __future__ import annotations

import collections
import dataclasses
import gc
import hashlib
import inspect
import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    boolean_axiom_oracle,
    bron_kerbosch_full_scan,
    brute_force_isomorphic,
    check_morphism_pairwise,
    comprehension_boolean_algebra,
    crown,
    eager_find_isomorphism,
    eager_isomorphism_search,
    extension_clause_oracle,
    generated_subalgebra_oracle,
    maximal_cliques_by_subsets,
    relabel,
    walk_check_morphism,
    walk_validate,
)
from pbalg import core, poset
from pbalg._rowbands import Rows, morphism_rows, signatures
from pbalg.colimit import tensor_product
from pbalg.core import (
    UNDEF,
    PartialBooleanAlgebra,
    PbaMorphism,
    atoms_of_subalgebra,
    block_hypergraph,
    boolean_algebra,
    bron_kerbosch,
    check_morphism,
    compose,
    enumerate_morphisms,
    find_isomorphism,
    from_orthomodular,
    generated_subalgebra,
    identity_morphism,
    image_factorization,
    is_isomorphic,
    join_all,
    maximal_cliques,
    mo_lattice,
    paste_blocks,
    sub_algebra,
    trivial_algebra,
    validate,
)
from pbalg.core import (
    _bit_positions,
    _boolean_block,
    _decode_block,
    _certify_isomorphism,
    _columns,
    _compile_clauses,
    _count_morphisms,
    _isomorphism_search,
    _satisfies_clauses,
    _signature,
)
from pbalg.bohr import reflects_commeasurability
from pbalg.corpus import cabello18_algebra, generated_corpus, mo3_algebra, small_corpus
from pbalg.formats import parse_algebra_text, serialize_algebra
from pbalg.poset import _poset_isomorphic
from pbalg.errors import (
    DomainError,
    InvalidAlgebraError,
    PbalgError,
    SearchCutoffError,
    StructuralError,
    UndefinedOperationError,
)


@pytest.fixture(scope="module")
def mo2():
    return from_orthomodular(mo_lattice(2))


@pytest.fixture(scope="module")
def b2():
    return boolean_algebra(2)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_six_element_algebra(mo2):
    assert validate(mo2).ok
    # a and b incommeasurable, a and its complement commeasurable
    a, a1, b = 2, 3, 4
    assert not mo2.comm_pair(a, b)
    assert mo2.comm_pair(a, a1)


def test_validate_four_element_boolean():
    assert validate(boolean_algebra(2)).ok


def test_validate_rejects_fixed_point_negation(mo2):
    neg = list(mo2.neg)
    neg[2], neg[3] = 2, 3  # x0 and x0' become self-negating
    bad = PartialBooleanAlgebra(n=6, zero=0, one=1, neg=tuple(neg),
                                comm=mo2.comm, meet=mo2.meet, join=mo2.join,
                                labels=mo2.labels)
    report = validate(bad)
    assert not report.ok
    # neg(x)=x is involutive, so the failure shows up as a broken complement
    assert "complement" in report.rules()
    witnesses = {v.witness for v in report.violations}
    assert (2,) in witnesses or (3,) in witnesses


def test_validate_rejects_non_involutive_negation(mo2):
    neg = list(mo2.neg)
    neg[2] = 4  # neg(x0) = x1 but neg(x1) = x1'
    bad = PartialBooleanAlgebra(n=6, zero=0, one=1, neg=tuple(neg),
                                comm=mo2.comm, meet=mo2.meet, join=mo2.join,
                                labels=mo2.labels)
    report = validate(bad)
    assert "neg_involution" in report.rules()


def test_structural_error_names_table():
    with pytest.raises(StructuralError, match="neg"):
        PartialBooleanAlgebra(n=2, zero=0, one=1, neg=(1,), comm=(3, 3),
                              meet=((0, 0), (0, 1)), join=((0, 1), (1, 1)),
                              labels=("0", "1"))


def _corrupt(A: PartialBooleanAlgebra, cells=(), comm_drop=()):
    """A with each (table, a, b, v) in cells written and each comm bit
    (a, b) in comm_drop cleared, through the checking constructor."""
    tables = {"meet": [list(r) for r in A.meet], "join": [list(r) for r in A.join]}
    for name, a, b, v in cells:
        tables[name][a][b] = v
    comm = list(A.comm)
    for a, b in comm_drop:
        comm[a] &= ~(1 << b)
    return PartialBooleanAlgebra(
        n=A.n, zero=A.zero, one=A.one, neg=A.neg, comm=tuple(comm),
        meet=tuple(map(tuple, tables["meet"])), join=tuple(map(tuple, tables["join"])),
        labels=A.labels)


@pytest.mark.parametrize("cells, message", [
    ([("meet", 3, 40, 64), ("meet", 3, 7, -2), ("meet", 9, 1, 99)],
     "meet[3][7] = -2 out of range"),
    ([("join", 10, 63, -5), ("join", 10, 62, 70), ("meet", 11, 0, 64)],
     "meet[11][0] = 64 out of range"),
    ([("meet", 0, 0, UNDEF), ("meet", 63, 63, 63), ("join", 63, 0, 64)],
     "join[63][0] = 64 out of range"),
])
def test_range_check_names_first_bad_cell(cells, message):
    # whole rows are passed at C speed; the cell walk still names the first
    # bad cell, in table order, then row order, then column order
    with pytest.raises(StructuralError) as info:
        _corrupt(boolean_algebra(6), cells)
    assert str(info.value) == message


# (carrier, cells, comm bits dropped) and the report the cell-by-cell
# checks gave.  Every rejected block is reported by the transport check's
# first violation, so bool3's 8-element block and bool6's 64-element one,
# on either side of _SMALL_MAX, word the same corruption alike.  An UNDEF
# below the diagonal on a commeasurable pair is reported as
# op_defined_iff_comm at its own cell, and no block check runs after it.
VALIDATE_CASES = {
    "mo3-meet-asymmetric": (
        "mo3", [("meet", 2, 3, 2)], (),
        [("meet_commutative", (2, 3), "meet not commutative on (x0, x0')"),
         ("clique_not_boolean", (1, 3), "elements 1 and x0' sit over the same atom set")]),
    "mo3-meet-undefined-on-comm": (
        "mo3", [("meet", 3, 2, UNDEF)], (),
        [("op_defined_iff_comm", (3, 2), "meet undefined on commeasurable pair (x0', x0)"),
         ("meet_commutative", (2, 3), "meet not commutative on (x0, x0')")]),
    "mo3-join-defined-off-comm": (
        "mo3", [("join", 2, 4, 1)], (),
        [("op_defined_iff_comm", (2, 4), "join defined on non-commeasurable pair (x0, x1)"),
         ("join_commutative", (2, 4), "join not commutative on (x0, x1)")]),
    "mo3-join-wrong": (
        "mo3", [("join", 2, 3, 2), ("join", 3, 2, 2)], (),
        [("clique_not_boolean", (2, 3), "join(x0, x0') is not the atom union")]),
    "bool3-join-wrong": (
        "bool3", [("join", 1, 2, 7), ("join", 2, 1, 7)], (),
        [("clique_not_boolean", (1, 2), "join(001, 010) is not the atom union")]),
    "bool3-meet-merges-atom-sets": (
        "bool3", [("meet", 1, 6, 1), ("meet", 6, 1, 1)], (),
        [("clique_not_boolean", (6, 7), "elements 110 and 111 sit over the same atom set")]),
    "bool6-meet-asymmetric": (
        "bool6", [("meet", 5, 9, 0)], (),
        [("meet_commutative", (5, 9), "meet not commutative on (000101, 001001)"),
         ("clique_not_boolean", (5, 9), "meet(000101, 001001) is not the atom intersection")]),
    "bool6-join-undefined-on-comm": (
        "bool6", [("join", 5, 9, UNDEF)], (),
        [("op_defined_iff_comm", (5, 9), "join undefined on commeasurable pair (000101, 001001)"),
         ("join_commutative", (5, 9), "join not commutative on (000101, 001001)")]),
    "bool6-defined-off-comm": (
        "bool6", [], ((5, 9), (9, 5)),
        [("op_defined_iff_comm", (5, 9), "meet defined on non-commeasurable pair (000101, 001001)"),
         ("op_defined_iff_comm", (5, 9), "join defined on non-commeasurable pair (000101, 001001)")]),
    "bool6-join-wrong": (
        "bool6", [("join", 5, 9, 15), ("join", 9, 5, 15)], (),
        [("clique_not_boolean", (5, 9), "join(000101, 001001) is not the atom union")]),
    "bool6-meet-merges-atom-sets": (
        "bool6", [("meet", 1, 6, 1), ("meet", 6, 1, 1)], (),
        [("clique_not_boolean", (6, 7), "elements 000110 and 000111 sit over the same atom set")]),
}


@pytest.mark.parametrize("case", sorted(VALIDATE_CASES))
def test_validate_row_passes_keep_reports(case):
    carrier, cells, drop, expected = VALIDATE_CASES[case]
    A = mo3_algebra() if carrier == "mo3" else boolean_algebra(int(carrier[4:]))
    report = validate(_corrupt(A, cells, drop))
    assert [(v.rule, v.witness, v.message) for v in report.violations] == expected


def test_transport_check_reports_undefined_cell_below_diagonal():
    # validate reports an UNDEF at (9, 5) on a commeasurable pair from its
    # pair walk and then checks no block; the 64-element block's decoder,
    # read on its own, reports the cell instead of failing on the missing
    # atom set
    A = _corrupt(boolean_algebra(6), [("meet", 9, 5, UNDEF)])
    assert [(v.rule, v.witness) for v in validate(A).violations] == [
        ("op_defined_iff_comm", (9, 5)), ("meet_commutative", (5, 9))]
    v = _decode_block(A, list(range(64)))
    assert (v.rule, v.witness) == ("clique_not_boolean", (9, 5))


def test_validate_decodes_a_failing_large_block_once(monkeypatch):
    # the decoder's certificate on a failing block is the Violation validate
    # reports, at every size, so no block is decoded twice
    A = _corrupt(boolean_algebra(8), [("meet", 5, 9, 3), ("meet", 9, 5, 3)])
    decode = core._decode_block
    calls = []

    def counting_decode(A, elems):
        calls.append(len(elems))
        return decode(A, elems)

    monkeypatch.setattr(core, "_decode_block", counting_decode)
    assert [(v.rule, v.witness) for v in validate(A).violations] == [
        ("clique_not_boolean", (5, 9))]
    assert calls == [256] and len(maximal_cliques(A)) == 1


@pytest.mark.parametrize("name", ["meet", "join"])
def test_clique_pass_stops_undefined_cell_below_diagonal(name):
    # the oracle's closure pass reads each row from the diagonal on; its
    # axiom loops index every cell, so an UNDEF below the diagonal is
    # reported before them and they do not run
    A = _corrupt(mo3_algebra(), [(name, 3, 2, UNDEF)])
    assert [(v.rule, v.witness) for v in boolean_axiom_oracle(A, [0, 1, 2, 3])] == [
        ("op_undefined_on_comm", (3, 2))]
    assert not extension_clause_oracle(A)


def _one_cell_corruptions(A: PartialBooleanAlgebra, rng: random.Random, count: int):
    """``count`` seeded cells of meet or join, each set to UNDEF and to one
    other value (the latter also at both (a, b) and (b, a), which keeps the
    table symmetric and reaches the block checks), and ``count`` seeded comm
    bits, each flipped one way."""
    for _ in range(count):
        name, a, b = rng.choice(("meet", "join")), rng.randrange(A.n), rng.randrange(A.n)
        value = getattr(A, name)[a][b]
        other = rng.choice([v for v in range(A.n) if v != value])
        if value != UNDEF:
            yield _corrupt(A, [(name, a, b, UNDEF)])
        yield _corrupt(A, [(name, a, b, other)])
        yield _corrupt(A, [(name, a, b, other), (name, b, a, other)])
    for _ in range(count):
        a, b = rng.randrange(A.n), rng.randrange(A.n)
        comm = list(A.comm)
        comm[a] ^= 1 << b
        yield dataclasses.replace(A, comm=tuple(comm))


def test_validate_matches_cell_walk_on_one_cell_corruptions():
    # the row tests only pick the rows to walk, in pure Python up to 32
    # elements and in numpy bands above: on carriers and blocks on both
    # sides of that size the full report equals the walk of every row
    carriers = [*small_corpus()[2:], boolean_algebra(6),
                tensor_product(boolean_algebra(2), boolean_algebra(3)).algebra,
                cabello18_algebra()]
    assert [A.n for A in carriers] == [8, 6, 8, 64, 64, 140]
    rng = random.Random(19)
    checked = 0
    try:
        for A, count in zip(carriers, (40, 40, 40, 40, 40, 15)):
            for X in _one_cell_corruptions(A, rng, count):
                assert validate(X) == walk_validate(X), (A.n, checked)
                checked += 1
    finally:
        core.maximal_cliques.cache_clear()
    assert checked > 800


def test_validate_reads_a_replaced_carriers_own_tables():
    # a large carrier's tables are its arrays: a carrier replaced with one
    # corrupted table converts that table's rows to arrays of its own, one
    # replaced with a corrupted comm bit reads its own comm, and validate
    # rejects each with the walk's report
    T = tensor_product(boolean_algebra(2), boolean_algebra(3)).algebra
    try:
        assert T.n > core._SMALL_MAX and validate(T).ok
        assert isinstance(T.meet, Rows) and isinstance(T.join, Rows)
        changes = []
        for name in ("meet", "join"):
            rows = [list(r) for r in getattr(T, name)]
            rows[5][9] = rows[9][5] = (rows[5][9] + 1) % T.n
            changes.append({name: tuple(map(tuple, rows))})
        changes.append({"comm": T.comm[:5] + (T.comm[5] & ~(1 << 9),) + T.comm[6:]})
        for change in changes:
            X = dataclasses.replace(T, **change)
            assert X != T
            for name in ("meet", "join"):
                table = getattr(X, name)
                assert isinstance(table, Rows)
                assert (table.array is getattr(T, name).array) == (name not in change)
            report = validate(X)
            assert not report.ok and report == walk_validate(X), change.keys()
    finally:
        core.maximal_cliques.cache_clear()



def test_row_tables_compare_and_hash_by_their_arrays():
    # above _SMALL_MAX every constructor gives meet and join as Rows: the
    # block writer's own arrays, and tuple or list rows from the parser or
    # dataclasses.replace converted once, so the carriers are equal and
    # hash equal; the arrays are read-only, and a replaced table never
    # shares the array it replaced
    T = tensor_product(boolean_algebra(2), boolean_algebra(3)).algebra
    parsed = parse_algebra_text(serialize_algebra(T))
    replaced = dataclasses.replace(T, meet=tuple(T.meet), join=[list(r) for r in T.join])
    for X in (parsed, replaced):
        assert isinstance(X.meet, Rows) and isinstance(X.join, Rows)
        assert X == T and hash(X) == hash(T)
        assert X.meet.array is not T.meet.array and X.join.array is not T.join.array
        assert X.meet.ints is X.join.ints
    with pytest.raises(ValueError):
        T.meet.array[5, 9] = T.n - 1
    rows = [list(r) for r in T.meet]
    old = rows[5][9]
    rows[5][9] = rows[9][5] = (old + 1) % T.n
    X = dataclasses.replace(T, meet=tuple(map(tuple, rows)))
    assert X != T and X.join is T.join
    assert (X.meet[5][9], X.meet.array[9, 5], T.meet[5][9]) == ((old + 1) % T.n,) * 2 + (old,)


def test_large_carriers_hold_their_arrays_and_build_rows_on_read():
    # T(bool2, bool5) holds its two int32 tables and the rows read so far:
    # at most 12 MB, against 26.6 MB with tuple rows beside kept arrays.
    # The block decoder's atom scan reads the array, so decoding
    # boolean_algebra(10)'s block builds the atoms' meet rows only, and
    # find_isomorphism onto it, carriers warm, peaks at most 1.5 MB: the
    # wave closure gathers its pairs an eighth of a band at a time
    X, Y = boolean_algebra(2), boolean_algebra(5)
    tracemalloc.start()
    try:
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        T = tensor_product(X, Y).algebra
        core.maximal_cliques.cache_clear()
        poset.boolean_subalgebras.cache_clear()
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - base <= 12e6
        B = boolean_algebra(10)
        assert find_isomorphism(T, B) is not None
        gc.collect()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        find_isomorphism(T, B)
        assert tracemalloc.get_traced_memory()[1] - base <= 1.5e6
    finally:
        tracemalloc.stop()
        core.maximal_cliques.cache_clear()
    B = boolean_algebra(10)
    atoms, _, _ = _decode_block(B, list(range(B.n)))
    assert atoms == [1 << i for i in range(10)]
    assert [a for a, row in enumerate(B.meet._rows) if row is not None] == atoms


def test_block_decoder_matches_cell_walk_on_one_cell_corruptions():
    # on the carriers and those of their corruptions whose pair walk is
    # clean, the raising decoder rejects a maximal clique exactly when the
    # closure pass and the cubic axiom loops of the independent oracle
    # report a violation on it, on both sides of _SMALL_MAX
    carriers = [*small_corpus()[2:], boolean_algebra(6),
                tensor_product(boolean_algebra(2), boolean_algebra(3)).algebra,
                cabello18_algebra()]
    rng = random.Random(19)
    pair_rules = ("comm_", "neg_", "op_defined")
    outcomes = collections.Counter()
    try:
        for A, count in zip(carriers, (40, 40, 40, 40, 40, 15)):
            for X in (A, *_one_cell_corruptions(A, rng, count)):
                if any(r.startswith(pair_rules) or r.endswith("_commutative")
                       for r in validate(X).rules()):
                    continue
                for clique in maximal_cliques(X):
                    elems = list(_bit_positions(clique))
                    failed = bool(boolean_axiom_oracle(X, elems))
                    try:
                        _boolean_block(X, elems)
                        rejected = False
                    except InvalidAlgebraError:
                        rejected = True
                    assert rejected == failed, (A.n, elems)
                    outcomes[len(elems) > core._SMALL_MAX, rejected] += 1
    finally:
        core.maximal_cliques.cache_clear()
    assert min(outcomes[large, rejected] for large in (False, True)
               for rejected in (False, True)) > 0, outcomes


def test_undefined_entry_read_is_an_error(mo2):
    with pytest.raises(UndefinedOperationError):
        mo2.meet_of(2, 4)  # a and b are not commeasurable


def test_maximal_clique_check_matches_subset_oracle():
    # equivalence of the clique check with the full extension clause
    for A in [boolean_algebra(1), boolean_algebra(2), boolean_algebra(3),
              from_orthomodular(mo_lattice(2)), from_orthomodular(mo_lattice(3)),
              paste_blocks(block_hypergraph([["a", "b", "c"], ["c", "d", "e"]]))]:
        assert A.n <= 12
        assert validate(A).ok == extension_clause_oracle(A)
    # and in the failing direction: a corrupted meet breaks both checks
    b3 = boolean_algebra(3)
    meet = [list(r) for r in b3.meet]
    meet[1][2] = meet[2][1] = 7
    bad = PartialBooleanAlgebra(n=8, zero=0, one=7, neg=b3.neg, comm=b3.comm,
                                meet=tuple(tuple(r) for r in meet),
                                join=b3.join, labels=b3.labels)
    assert not validate(bad).ok
    assert not extension_clause_oracle(bad)


def test_bron_kerbosch_matches_subset_oracle():
    rng = random.Random(8)
    for _ in range(120):
        n = rng.randint(0, 12)
        density = rng.random()
        adj = [0] * n
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < density:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        assert bron_kerbosch(adj, n) == maximal_cliques_by_subsets(adj, n)


def _comm_graph(A: PartialBooleanAlgebra) -> tuple[int, list[int]]:
    return A.n, [A.comm[v] & ~(1 << v) for v in range(A.n)]


@pytest.mark.parametrize("n, adj, nodes, cliques", [
    pytest.param(*_comm_graph(from_orthomodular(mo_lattice(3))), 11, 3, id="mo3"),
    pytest.param(5, [1 << (v + 1) % 5 | 1 << (v - 1) % 5 for v in range(5)], 9, 5,
                 id="five-cycle"),
    pytest.param(8, [0xFF & ~(1 << v) & ~(1 << (v ^ 1)) for v in range(8)], 31, 16,
                 id="cocktail-party-8"),
    # the highest-u pivot on ties would take 12 nodes here
    pytest.param(8, [154, 153, 128, 19, 171, 144, 0, 55], 11, 5, id="pivot-tie"),
])
def test_bron_kerbosch_budget_is_exact(monkeypatch, n, adj, nodes, cliques):
    # one node per (R, P, X) state, the call count of a recursive expansion
    monkeypatch.setattr(core, "_CLIQUE_MAX_NODES", nodes)
    assert len(bron_kerbosch(adj, n)) == cliques
    monkeypatch.setattr(core, "_CLIQUE_MAX_NODES", nodes - 1)
    with pytest.raises(SearchCutoffError) as info:
        bron_kerbosch(adj, n)
    assert info.value.limit == nodes - 1


def test_bron_kerbosch_pivot_bound_keeps_node_count(monkeypatch):
    # the pivot scan stops at its bound, so the pivots are those of a scan
    # over every u and the node counts of the two searches agree
    rng = random.Random(1014)
    graphs = [_comm_graph(boolean_algebra(6)), _comm_graph(mo3_algebra())]
    for _ in range(150):
        n = rng.randint(0, 14)
        density = rng.random()
        adj = [0] * n
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < density:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        graphs.append((n, adj))
    for n, adj in graphs:
        cliques, nodes = bron_kerbosch_full_scan(adj, n)
        monkeypatch.setattr(core, "_CLIQUE_MAX_NODES", nodes)
        assert bron_kerbosch(adj, n) == cliques
        monkeypatch.setattr(core, "_CLIQUE_MAX_NODES", nodes - 1)
        with pytest.raises(SearchCutoffError):
            bron_kerbosch(adj, n)


def test_validate_deep_boolean_algebra():
    # bool8's one block has 256 elements: a clique search that recursed
    # once per element would need more frames than the lowered limit leaves
    A = boolean_algebra(8)
    maximal_cliques.cache_clear()
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        report = validate(A)
    finally:
        sys.setrecursionlimit(old)
    assert report.ok


def test_zero_comm_forced_by_construction(mo2):
    # 0 is commeasurable with every element in every stock construction
    for A in [mo2, boolean_algebra(3), trivial_algebra()]:
        assert all(A.comm_pair(A.zero, x) for x in A.elements())


# ---------------------------------------------------------------------------
# paste_blocks
# ---------------------------------------------------------------------------

def test_paste_disjoint_blocks_gives_paper_diagram(mo2):
    A = paste_blocks(block_hypergraph([["p", "q"], ["r", "s"]]))
    assert A.n == 6
    assert validate(A).ok
    assert is_isomorphic(A, mo2)


def test_paste_shared_atom_collapses_to_four_elements():
    # The least equivalence closed under complementation forces p = ~q = r,
    # so the two blocks coincide and the pasting is the 4-element algebra.
    A = paste_blocks(block_hypergraph([["p", "q"], ["q", "r"]]))
    assert A.n == 4
    assert is_isomorphic(A, boolean_algebra(2))


def test_paste_single_block_is_powerset():
    A = paste_blocks(block_hypergraph([["p", "q", "r"]]))
    assert is_isomorphic(A, boolean_algebra(3))
    assert A.is_total()


def test_paste_triangle_loop_is_rejected():
    # three 2^3 blocks pairwise sharing an atom: pairwise-commeasurable
    # triples without a common block break the extension clause
    h = block_hypergraph([["a", "b", "x"], ["x", "c", "d"], ["d", "e", "a"]])
    with pytest.raises(InvalidAlgebraError) as err:
        paste_blocks(h)
    assert err.value.report is not None


def test_paste_stops_past_slot_cutoff():
    # 4094 + 1022 proper nonempty atom sets over a 12- and a 10-atom block,
    # each under the cutoff alone, are refused together before any is
    # enumerated
    h = block_hypergraph([[f"a{i}" for i in range(12)],
                          ["a0", *(f"b{i}" for i in range(9))]])
    with pytest.raises(SearchCutoffError, match="5116") as err:
        paste_blocks(h)
    assert err.value.limit == core._PASTE_MAX_SLOTS == 5000


def test_hypergraph_invariants():
    # two blocks may share more than one atom: {a, b} is one atom set of
    # both, so its complements c and d are pasted together, into bool3
    A = paste_blocks(block_hypergraph([["a", "b", "c"], ["a", "b", "d"]]))
    assert A.labels == ("0", "1", "a", "b", "c", "~c", "~b", "~a")
    assert validate(A).ok and find_isomorphism(A, boolean_algebra(3)) is not None
    with pytest.raises(StructuralError, match="contained"):
        block_hypergraph([["a", "b", "c"], ["a", "b"]])
    with pytest.raises(StructuralError, match="fewer than 2"):
        block_hypergraph([["a"]])


def test_pastings_of_blocks_sharing_atoms_validate_or_are_rejected():
    # seeded hypergraphs with two blocks sharing two or more atoms: the
    # pasting is a valid carrier or InvalidAlgebraError, never another error
    rng = random.Random(5)
    outcomes = collections.Counter()
    for _ in range(1000):
        atoms = [f"a{i}" for i in range(rng.randint(4, 7))]
        blocks = [rng.sample(atoms, rng.choice([2, 3, 4])) for _ in range(rng.randint(2, 4))]
        if not any(len(set(b) & set(c)) > 1 for b, c in itertools.combinations(blocks, 2)):
            continue
        try:
            h = block_hypergraph(blocks)
        except StructuralError:
            continue
        try:
            outcomes[validate(paste_blocks(h)).ok] += 1
        except InvalidAlgebraError:
            outcomes["rejected"] += 1
    assert outcomes[True] > 50 and outcomes["rejected"] > 50 and not outcomes[False]


# ---------------------------------------------------------------------------
# from_orthomodular
# ---------------------------------------------------------------------------

def test_mo2_compatibility_relation(mo2):
    # only the trivial compatibilities: a = (a ∧ b) ∨ (a ∧ b') fails for a, b
    # in different blocks
    nontrivial = mo2.nontrivial()
    for a, b in itertools.combinations(nontrivial, 2):
        expected = b == mo2.neg[a]
        assert mo2.comm_pair(a, b) == expected


def test_boolean_algebra_matches_comprehension_build():
    # boolean_algebra is one block through the table writer, cell by cell
    # up to _SMALL_MAX elements and scattered above: its tables are the
    # comprehensions', and share one int object per element
    for k in range(11):
        A = boolean_algebra(k)
        assert A == comprehension_boolean_algebra(k), k
        assert len({id(v) for table in (A.meet, A.join) for row in table for v in row}) <= A.n, k


def test_boolean_lattice_is_totally_commeasurable():
    b3 = boolean_algebra(3)
    leq = tuple(
        sum(1 << b for b in range(8) if (a & b) == a) for a in range(8))
    from pbalg.core import OmlSpec
    L = OmlSpec(n=8, leq=leq, ortho=b3.neg, labels=b3.labels)
    A = from_orthomodular(L)
    assert A.is_total()
    assert is_isomorphic(A, b3)


def test_mo3_commeasurability_by_brute_force():
    A = from_orthomodular(mo_lattice(3))
    assert A.n == 8
    # brute force check of a = (a∧b)∨(a∧b') over the lattice tables
    L = mo_lattice(3)
    from pbalg.core import _lattice_tables
    zero, one, meet, join = _lattice_tables(L)
    for a in range(8):
        for b in range(8):
            expected = join[meet[a][b]][meet[a][L.ortho[b]]] == a
            assert A.comm_pair(a, b) == expected


def test_non_orthomodular_input_rejected():
    # Benzene ring O6: hexagon lattice with antitone complement violating
    # the orthomodular law (0 < a < b < 1, 0 < b' < a' < 1)
    from pbalg.core import OmlSpec
    n = 6  # 0, 1, a, b, a', b'
    idx = {"0": 0, "1": 1, "a": 2, "b": 3, "a'": 4, "b'": 5}
    pairs = [("0", x) for x in idx] + [(x, "1") for x in idx] + \
        [(x, x) for x in idx] + [("a", "b"), ("b'", "a'")]
    leq = [0] * n
    for x, y in pairs:
        leq[idx[x]] |= 1 << idx[y]
    ortho = (1, 0, 4, 5, 2, 3)
    L = OmlSpec(n=n, leq=tuple(leq), ortho=ortho,
                labels=("0", "1", "a", "b", "a'", "b'"))
    with pytest.raises(DomainError, match="orthomodular"):
        from_orthomodular(L)


# ---------------------------------------------------------------------------
# generated subalgebras and joins
# ---------------------------------------------------------------------------

def test_generated_subalgebra_empty_and_singleton(mo2):
    assert generated_subalgebra(mo2, []) == {mo2.zero, mo2.one}
    assert generated_subalgebra(mo2, [2]) == {0, 1, 2, 3}


def test_generated_subalgebra_two_independent_elements():
    b4 = boolean_algebra(4)
    # 0011 and 0101 generate the full 16-element algebra
    s = generated_subalgebra(b4, [0b0011, 0b0101])
    assert len(s) == 16


def test_generated_subalgebra_matches_oracle():
    for A in [boolean_algebra(3), from_orthomodular(mo_lattice(2)),
              paste_blocks(block_hypergraph([["a", "b", "c"], ["c", "d", "e"]]))]:
        assert A.n <= 16
        for clique in maximal_cliques(A):
            elems = [i for i in range(A.n) if (clique >> i) & 1]
            for r in range(min(3, len(elems)) + 1):
                for S in itertools.combinations(elems, r):
                    assert generated_subalgebra(A, S) == \
                        generated_subalgebra_oracle(A, S)


def test_generated_subalgebra_rejects_incommeasurable(mo2):
    with pytest.raises(DomainError, match="not commeasurable"):
        generated_subalgebra(mo2, [2, 4])


def test_join_all_basics(mo2):
    assert join_all(mo2, []) == mo2.zero
    assert join_all(mo2, [2, 3]) == mo2.one
    b3 = boolean_algebra(3)
    atoms = [1, 2, 4]
    results = {join_all(b3, perm) for perm in itertools.permutations(atoms)}
    assert results == {b3.one}


def test_join_all_is_supremum_in_generated_subalgebra():
    b4 = boolean_algebra(4)
    S = [0b0011, 0b0101]
    sup = join_all(b4, S)
    closure = generated_subalgebra(b4, S)
    for s in S:
        assert b4.meet[s][sup] == s  # upper bound
    for upper in closure:
        if all(b4.meet[s][upper] == s for s in S):
            assert b4.meet[sup][upper] == sup  # least among upper bounds


def test_image_commeasurability_is_pushforward(mo2):
    # the image carries the image of the commeasurability relation: the
    # collapse of both blocks onto one block makes the image total even
    # though preimages are not
    b2 = boolean_algebra(2)
    m = PbaMorphism(mo2, b2, (b2.zero, b2.one, 2, 1, 2, 1))
    fact = image_factorization(m)
    expected = set()
    for a in range(mo2.n):
        for b in range(mo2.n):
            if mo2.comm_pair(a, b):
                expected.add((fact.surjection.map[a], fact.surjection.map[b]))
    actual = {(i, j) for i in range(fact.image.n) for j in range(fact.image.n)
              if fact.image.comm_pair(i, j)}
    assert actual == expected


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=40, deadline=None)
def test_join_all_order_independent(k, data):
    A = boolean_algebra(k)
    size = data.draw(st.integers(min_value=0, max_value=min(4, A.n)))
    S = data.draw(st.lists(st.integers(min_value=0, max_value=A.n - 1),
                           min_size=size, max_size=size, unique=True))
    perm = data.draw(st.permutations(S))
    assert join_all(A, S) == join_all(A, list(perm))


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

def paper_m(mo2, b2):
    """The standard counterexample map: both atoms of each block to the same
    image atom (a, b -> c; a', b' -> c')."""
    c, c1 = 2, 1  # '10' and '01' in the bitmask labelling of 2^2
    return PbaMorphism(mo2, b2, (b2.zero, b2.one, c, c1, c, c1))


def test_paper_counterexample_map_is_morphism(mo2, b2):
    assert check_morphism(paper_m(mo2, b2)).ok


def test_identity_and_composition(mo2, b2):
    assert check_morphism(identity_morphism(mo2)).ok
    m = paper_m(mo2, b2)
    to2 = enumerate_morphisms(b2, boolean_algebra(1))[0]
    comp = compose(to2, m)
    assert check_morphism(comp).ok


def test_zero_violation_reported_first(mo2, b2):
    bad = PbaMorphism(mo2, b2, (b2.one, b2.zero, 2, 1, 2, 1))
    chk = check_morphism(bad)
    assert not chk.ok
    assert chk.clause == "zero"


def test_check_morphism_matches_pairwise_walk():
    # identity maps with one to three elements moved, each together with its
    # negation (so the comm, meet and join clauses are reached), or alone
    rng = random.Random(7)
    clauses = set()
    for A in small_corpus() + generated_corpus(50, 24):
        inner = A.nontrivial()
        for _ in range(12):
            m = list(range(A.n))
            for a in rng.sample(inner, min(len(inner), rng.randint(1, 3))):
                z = rng.randrange(A.n)
                m[a] = z
                if rng.random() < 0.8:
                    m[A.neg[a]] = A.neg[z]
            f = PbaMorphism(A, A, tuple(m))
            chk = check_morphism(f)
            assert chk == check_morphism_pairwise(f)
            clauses.add(chk.clause)
    assert clauses == {None, "neg", "comm", "meet", "join"}


def test_check_morphism_above_small_max_matches_row_walk():
    # above _SMALL_MAX check_morphism walks only the rows its numpy test
    # names.  On seeded maps out of T(bool2, bool4), 256 elements: its
    # isomorphisms onto bool8, those with one image changed, alone or with
    # its negation's, and random maps keeping 0, 1 and neg into bool8, bool1
    # and the partial Cabello-18 carrier, it gives the walk's check, and the
    # test names exactly the rows holding a violation
    T = tensor_product(boolean_algebra(2), boolean_algebra(4)).algebra
    b8 = boolean_algebra(8)
    iso = find_isomorphism(T, b8)
    rng = random.Random(29)
    maps = []
    for _ in range(4):
        perm = rng.sample(range(8), 8)
        auto = [sum(1 << perm[i] for i in range(8) if x >> i & 1) for x in range(256)]
        maps.append((b8, [auto[v] for v in iso]))
    for _, m in maps[:4]:
        for _ in range(4):
            m = list(m)
            a, z = rng.choice(T.nontrivial()), rng.randrange(b8.n)
            m[a] = z
            if rng.random() < 0.75:
                m[T.neg[a]] = b8.neg[z]
            maps.append((b8, m))
    for B in (b8, boolean_algebra(1), cabello18_algebra()):
        for _ in range(8):
            m = [0] * T.n
            for a in range(T.n):
                if a < T.neg[a]:
                    m[a] = rng.randrange(B.n)
                    m[T.neg[a]] = B.neg[m[a]]
            m[T.zero], m[T.one] = B.zero, B.one
            maps.append((B, m))
    clauses = collections.Counter()
    for B, m in maps:
        f = PbaMorphism(T, B, tuple(m))
        chk = check_morphism(f)
        assert chk == walk_check_morphism(f), m
        assert list(morphism_rows(f)) == [
            a for a in range(T.n)
            if any(not B.comm_pair(m[a], m[b]) or m[T.meet[a][b]] != B.meet[m[a]][m[b]]
                   or m[T.join[a][b]] != B.join[m[a]][m[b]]
                   for b in _bit_positions(T.comm[a] >> a + 1 << a + 1))], m
        clauses[chk.clause] += 1
    assert clauses[None] >= 4 and set(clauses) == {None, "neg", "comm", "meet", "join"}


def test_enumerate_morphisms_counts(mo2):
    two = boolean_algebra(1)
    assert len(enumerate_morphisms(mo2, two)) == 4
    assert len(enumerate_morphisms(two, two)) == 1
    assert len(enumerate_morphisms(boolean_algebra(2), two)) == 2


def test_enumerate_morphisms_is_exhaustive_filter(mo2):
    # cross-check the backtracking against the brute-force filter of all maps
    two = boolean_algebra(1)
    brute = []
    for values in itertools.product(range(2), repeat=mo2.n):
        f = PbaMorphism(mo2, two, values)
        if check_morphism(f).ok:
            brute.append(f)
    # product() runs in lexicographic order; the search's results must also
    # equal publicly constructed morphisms
    assert enumerate_morphisms(mo2, two) == brute


def test_enumerate_morphisms_deterministic_order(mo2):
    maps = [f.map for f in enumerate_morphisms(mo2, boolean_algebra(1))]
    assert maps == sorted(maps)


def test_enumerate_morphisms_cutoff(monkeypatch):
    big = from_orthomodular(mo_lattice(11))
    monkeypatch.setattr(core, "_HOM_MAX_NODES", 1000)
    with pytest.raises(SearchCutoffError, match="search too large"):
        enumerate_morphisms(big, boolean_algebra(3))


def test_enumerate_morphisms_deep_carrier():
    # 1024 positions, deeper than Python's default recursion limit
    homs = enumerate_morphisms(boolean_algebra(10), boolean_algebra(1))
    assert len(homs) == 10
    assert all(check_morphism(h).ok for h in homs)


@pytest.mark.parametrize("dom, cod, nodes, homs", [
    pytest.param(2, 1, 14, 4, id="mo2-bool1"),
    pytest.param(3, 2, 170, 64, id="mo3-bool2"),
    pytest.param(None, 3, 397, 27, id="bool3-bool3"),
])
def test_enumerate_morphisms_budget_is_exact(monkeypatch, dom, cod, nodes, homs):
    # nodes: one per candidate a trial-by-trial search would try (1 at a
    # forced position, B.n elsewhere); verify_colimit's route choice
    # depends on this count
    A = boolean_algebra(3) if dom is None else from_orthomodular(mo_lattice(dom))
    B = boolean_algebra(cod)
    monkeypatch.setattr(core, "_HOM_MAX_NODES", nodes)
    assert len(enumerate_morphisms(A, B)) == homs
    monkeypatch.setattr(core, "_HOM_MAX_NODES", nodes - 1)
    with pytest.raises(SearchCutoffError) as info:
        enumerate_morphisms(A, B)
    assert info.value.limit == nodes - 1
    # the frontier count reaches the same total and Hom size without a map
    clauses = _compile_clauses(A, B)
    assert _count_morphisms(clauses, nodes) == (nodes, homs)
    assert _count_morphisms(clauses, nodes - 1) is None


# targets of verify_colimit's uniqueness cross-check, plus two non-Boolean ones
COUNT_TARGETS = [boolean_algebra(1), boolean_algebra(2), boolean_algebra(3),
                 from_orthomodular(mo_lattice(2)), from_orthomodular(mo_lattice(3))]


def _count_matches_search(monkeypatch, A, B, budget):
    """The frontier count of A -> B is the search's exact node total and
    Hom size, at the boundary of both budgets; past ``budget`` both give
    up.  Returns whether the pair fitted."""
    clauses = _compile_clauses(A, B)
    counted = _count_morphisms(clauses, budget)
    monkeypatch.setattr(core, "_HOM_MAX_NODES", budget)
    try:
        homs = enumerate_morphisms(A, B)
    except SearchCutoffError:
        assert counted is None
        return False
    nodes, size = counted
    assert size == len(homs)
    assert _count_morphisms(clauses, nodes) == counted
    assert _count_morphisms(clauses, nodes - 1) is None
    monkeypatch.setattr(core, "_HOM_MAX_NODES", nodes)
    assert len(enumerate_morphisms(A, B)) == size
    monkeypatch.setattr(core, "_HOM_MAX_NODES", nodes - 1)
    with pytest.raises(SearchCutoffError):
        enumerate_morphisms(A, B)
    return True


@pytest.mark.parametrize("B", COUNT_TARGETS,
                         ids=["bool1", "bool2", "bool3", "mo2", "mo3"])
def test_count_morphisms_matches_search_on_corpus(monkeypatch, B):
    # every corpus pair whose search fits 50,000 nodes is compared in full;
    # the rest must give up at that budget on both sides
    fitted = [_count_matches_search(monkeypatch, A, B, 50_000)
              for A in small_corpus() + generated_corpus(50, 24)]
    assert sum(fitted) >= len(fitted) // 2


def test_count_morphisms_past_the_search():
    # the 24-element horizontal sum of 11 four-element blocks: each block's
    # atom goes anywhere in bool3 on its own, 8^11 morphisms, which only a
    # pass that merges equal frontiers can count
    A = generated_corpus(50, 24)[14]
    nodes, homs = _count_morphisms(_compile_clauses(A, boolean_algebra(3)), 10**12)
    assert homs == 8 ** 11 and nodes > 200_000


def test_clause_walk_is_membership():
    # the walk accepts exactly the maps the search lists: every morphism,
    # and no map one image away from one unless it is listed too
    for A, B in itertools.product(small_corpus(), COUNT_TARGETS[:4]):
        clauses = _compile_clauses(A, B)
        homs = {h.map for h in enumerate_morphisms(A, B)}
        for mp in homs:
            for k, v in itertools.product(range(A.n), range(B.n)):
                near = mp[:k] + (v,) + mp[k + 1:]
                assert _satisfies_clauses(clauses, near) == (near in homs)


# ---------------------------------------------------------------------------
# image factorization
# ---------------------------------------------------------------------------

def test_image_of_paper_map_is_whole_codomain(mo2, b2):
    fact = image_factorization(paper_m(mo2, b2))
    assert fact.image.n == 4
    assert is_isomorphic(fact.image, b2)
    assert compose(fact.inclusion, fact.surjection).map == paper_m(mo2, b2).map


def test_image_of_inclusion_is_the_subalgebra(mo2):
    sub, embed = sub_algebra(mo2, generated_subalgebra(mo2, [2]))
    inc = PbaMorphism(sub, mo2, embed)
    fact = image_factorization(inc)
    assert fact.image.n == sub.n
    assert fact.surjection.map == tuple(range(sub.n))


def test_image_of_collapse_is_two_element(mo2):
    two = boolean_algebra(1)
    f = enumerate_morphisms(mo2, two)[0]
    fact = image_factorization(f)
    assert fact.image.n == 2


# ---------------------------------------------------------------------------
# subalgebra restriction and atoms
# ---------------------------------------------------------------------------

def test_sub_algebra_roundtrip(mo2):
    S = generated_subalgebra(mo2, [2])
    sub, embed = sub_algebra(mo2, S)
    assert validate(sub).ok
    assert sub.is_total()
    assert set(embed) == set(S)
    assert check_morphism(PbaMorphism(sub, mo2, embed)).ok


def test_atoms_of_block():
    b3 = boolean_algebra(3)
    S = frozenset(range(8))
    assert atoms_of_subalgebra(b3, S) == [1, 2, 4]


# ---------------------------------------------------------------------------
# isomorphism search
# ---------------------------------------------------------------------------

def test_isomorphism_detects_relabelling(mo2):
    relabelled = paste_blocks(block_hypergraph([["u", "v"], ["w", "z"]]))
    iso = find_isomorphism(mo2, relabelled)
    assert iso is not None


def test_isomorphism_distinguishes_structures(mo2):
    assert not is_isomorphic(mo2, boolean_algebra(2))
    assert not is_isomorphic(boolean_algebra(2), boolean_algebra(3))
    assert not is_isomorphic(mo2, paste_blocks(
        block_hypergraph([["a", "b", "c"]])))


def _corpus():
    return small_corpus() + generated_corpus(50, 24)


def test_isomorphism_matches_permutation_oracle():
    small = [A for A in _corpus() if A.n <= 8]
    verdicts = []
    for i, A in enumerate(small):
        for B in small[i:]:
            if A.n == B.n:
                found = is_isomorphic(A, B)
                assert found == brute_force_isomorphic(A, B), (A, B)
                verdicts.append(found)
    assert True in verdicts and False in verdicts


def test_isomorphism_finds_random_relabelling():
    rng = random.Random(20261018)
    carriers = _corpus()
    assert len(carriers) == 55
    for A in carriers:
        perm = rng.sample(range(A.n), A.n)
        iso = find_isomorphism(A, relabel(A, perm))
        assert iso is not None, A


def test_find_isomorphism_deep_boolean_algebra():
    A = boolean_algebra(10)
    iso = find_isomorphism(A, A)
    assert iso is not None
    assert sorted(iso) == list(range(A.n))
    assert check_morphism(PbaMorphism(A, A, iso)).ok


def test_tensor_square_law_two_by_four():
    T = tensor_product(boolean_algebra(2), boolean_algebra(4))
    assert is_isomorphic(T.algebra, boolean_algebra(8))


def _garbage(rng: random.Random, n: int) -> PartialBooleanAlgebra:
    def table():
        return tuple(tuple(rng.choice([UNDEF, rng.randrange(n)]) for _ in range(n))
                     for _ in range(n))
    return PartialBooleanAlgebra(
        n=n, zero=rng.randrange(n), one=rng.randrange(n),
        neg=tuple(rng.randrange(n) for _ in range(n)),
        comm=tuple(rng.getrandbits(n) for _ in range(n)),
        meet=table(), join=table(), labels=tuple(f"e{i}" for i in range(n)))


def test_numpy_signatures_match_signature():
    # find_isomorphism reads the signatures of carriers above _SMALL_MAX off
    # their arrays: they equal _signature on valid carriers, on one-cell
    # corruptions of them and on garbage tables
    rng = random.Random(31)
    carriers = [boolean_algebra(6),
                tensor_product(boolean_algebra(2), boolean_algebra(3)).algebra,
                cabello18_algebra()]
    samples = [X for A in carriers for X in (A, *_one_cell_corruptions(A, rng, 4))]
    samples += [_garbage(rng, 40) for _ in range(4)]
    assert min(X.n for X in samples) > core._SMALL_MAX
    for X in samples:
        assert signatures(X) == [_signature(X, a) for a in range(X.n)]


def test_isomorphism_on_invalid_carriers_gives_none_or_a_map():
    rng = random.Random(5)
    invalid = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        A = _garbage(rng, n)
        invalid += not validate(A).ok
        for B in (A, relabel(A, rng.sample(range(n), n)), _garbage(rng, n)):
            iso = find_isomorphism(A, B)
            assert iso is None or sorted(iso) == list(range(n))
    assert invalid > 250


def test_isomorphism_certificate_rejects_non_bijective_morphism():
    b2 = boolean_algebra(2)
    collapse = PbaMorphism(b2, b2, (0b00, 0b00, 0b11, 0b11))
    assert check_morphism(collapse).ok
    with pytest.raises(PbalgError, match="not a bijection"):
        _certify_isomorphism(collapse)


def test_isomorphism_certificate_rejects_bijections_that_do_not_reflect():
    # mo3's three complement pairs onto bool3's three: each such bijection is
    # a morphism, but its image pairs commute where mo3's arguments do not
    mo3, b3 = mo3_algebra(), boolean_algebra(3)
    bijections = [f for f in enumerate_morphisms(mo3, b3) if len(set(f.map)) == b3.n]
    assert len(bijections) == 48 and (0, 7, 1, 6, 2, 5, 3, 4) in {f.map for f in bijections}
    for f in bijections:
        assert not reflects_commeasurability(f)
        with pytest.raises(PbalgError, match="does not reflect commeasurability"):
            _certify_isomorphism(f)


def _tensor_square_search():
    T = tensor_product(boolean_algebra(2), boolean_algebra(4))
    return find_isomorphism(T.algebra, boolean_algebra(8))


def _crown_refutation():
    # an 8-cycle against two 4-cycles, as bipartite orders
    return _poset_isomorphic(
        crown([(0, 4), (0, 5), (1, 5), (1, 6), (2, 6), (2, 7), (3, 7), (3, 4)]),
        crown([(0, 4), (0, 5), (1, 4), (1, 5), (2, 6), (2, 7), (3, 6), (3, 7)]))


@pytest.mark.parametrize("search, found, nodes", [
    pytest.param(_tensor_square_search, True, 7, id="tensor-2x4-bool8"),
    pytest.param(_crown_refutation, False, 12, id="crowns"),
])
def test_isomorphism_budget_is_exact(monkeypatch, search, found, nodes):
    # one node per image tried at a decision
    monkeypatch.setattr(core, "_ISO_MAX_NODES", nodes)
    assert bool(search()) == found
    monkeypatch.setattr(core, "_ISO_MAX_NODES", nodes - 1)
    with pytest.raises(SearchCutoffError) as info:
        search()
    assert info.value.limit == nodes - 1


def _exact_nodes(monkeypatch, search) -> int:
    """The node count of a search: the least ``_ISO_MAX_NODES`` it runs
    through without SearchCutoffError, by doubling and then bisection."""
    def runs_through(budget: int) -> bool:
        monkeypatch.setattr(core, "_ISO_MAX_NODES", budget)
        try:
            search()
        except SearchCutoffError:
            return False
        return True

    lo, hi = 0, 1
    while not runs_through(hi):
        lo, hi = hi + 1, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        if runs_through(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def _random_search_instance(rng: random.Random):
    """Candidate masks around a hidden bijection (sometimes without its
    image, so some instances have no solution) and one or two relations
    that cover both orders of every pair, as the search requires: a
    symmetric relation, or a relation and its columns, each with its image
    under the bijection and now and then one bit (or one symmetric pair of
    bits) flipped."""
    n = rng.randint(1, 8)
    perm = rng.sample(range(n), n)
    candidates = [1 << perm[a] | rng.getrandbits(n) for a in range(n)]
    if rng.random() < 0.15:
        a = rng.randrange(n)
        candidates[a] &= ~(1 << perm[a])

    def relation(symmetric: bool):
        # sparse rows leave many images open, so the search branches
        rows_a = [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
                  for _ in range(n)]
        if symmetric:
            rows_a = [row & ~(-1 << a + 1) for a, row in enumerate(rows_a)]
            rows_a = [r | c for r, c in zip(rows_a, _columns(rows_a))]
        rows_b = [0] * n
        for a, row in enumerate(rows_a):
            rows_b[perm[a]] = sum(1 << perm[x] for x in range(n) if row >> x & 1)
        if rng.random() < 0.2:
            x, y = rng.randrange(n), rng.randrange(n)
            rows_b[x] ^= 1 << y
            if symmetric and x != y:
                rows_b[y] ^= 1 << x
        return rows_a, rows_b

    if rng.random() < 0.5:
        relations = [relation(True)]
    else:
        rows = relation(False)
        relations = [rows, tuple(map(_columns, rows))]
    if rng.random() < 0.3:
        relations.append(relation(True))
    return candidates, relations


# candidates that only injectivity narrows: once 0 is placed, 1 has one
# image left, and so on down the chain, with no relation cell excluding any
INJECTIVITY_ONLY = [
    ([0b001, 0b011, 0b111], [([0b111] * 3, [0b111] * 3)]),
    ([0b011, 0b011, 0b110], [([0, 0, 0], [0, 0, 0])]),
    ([0b0110, 0b0110, 0b1111, 0b1111], [([0b1111] * 4, [0b1111] * 4)]),
    ([0b11, 0b11, 0b11], [([0b111] * 3, [0b111] * 3)]),
]


def test_isomorphism_search_matches_eager_reference(monkeypatch):
    # the used-image mask and the scan that forces what injectivity alone
    # narrows reach the same fixpoint before every decision as clearing
    # each image from every mask, so maps and node counts agree
    rng = random.Random(20261019)
    instances = INJECTIVITY_ONLY + [_random_search_instance(rng) for _ in range(400)]
    found = 0
    for candidates, relations in instances:
        searches = [lambda search=search: search(candidates, relations)
                    for search in (_isomorphism_search, eager_isomorphism_search)]
        results = [search() for search in searches]
        assert results[0] == results[1], (candidates, relations)
        nodes = [_exact_nodes(monkeypatch, search) for search in searches]
        assert nodes[0] == nodes[1], (candidates, relations)
        monkeypatch.setattr(core, "_ISO_MAX_NODES", 5_000_000)
        found += results[0] is not None
    assert 0 < found < len(instances)


@pytest.mark.parametrize("candidates, rows", [
    # the eager reference, given these rows without their columns, returns
    # [3, 0, 4, 1, 2, 5], which breaks the relation on pairs it checked only
    # in the order they were assigned
    pytest.param([10, 33, 24, 10, 28, 52],
                 ([2, 43, 39, 31, 20, 4], [43, 31, 20, 1, 59, 16]), id="six"),
    # a search that checks each pair only in the order it is assigned
    # returns the non-isomorphism [1, 2, 0] here
    pytest.param([2, 5, 7], ([3, 0, 7], [7, 6, 2]), id="three")])
def test_isomorphism_search_checks_an_asymmetric_relation_in_both_orders(
        candidates, rows):
    assert _isomorphism_search(candidates, [rows]) is None
    assert eager_isomorphism_search(
        candidates, [rows, tuple(map(_columns, rows))]) is None


def test_find_isomorphism_matches_eager_reference(monkeypatch):
    # the closure returns only the pairs that force something new, and an
    # UNDEF or a conflict is still a contradiction, also on carriers that
    # fail validation
    rng = random.Random(20261019)
    carriers = [A for A in _corpus() if A.n <= 16]
    pairs = [(A, relabel(A, rng.sample(range(A.n), A.n))) for A in carriers]
    pairs += [(A, B) for A, B in itertools.combinations(carriers, 2) if A.n == B.n]
    # a relabelling with one commeasurable pair's meet or join made UNDEF or
    # another value, so that only the closure can refute it
    for A, B in pairs[:len(carriers)]:
        if A.n < 2:
            continue
        p, q = rng.choice([(p, q) for p, q in itertools.combinations(range(B.n), 2)
                           if B.comm_pair(p, q)])
        name = rng.choice(("meet", "join"))
        for value in (UNDEF, rng.randrange(B.n)):
            pairs.append((A, _corrupt(B, [(name, p, q, value), (name, q, p, value)])))
    for _ in range(150):
        n = rng.randint(1, 6)
        A = _garbage(rng, n)
        pairs += [(A, relabel(A, rng.sample(range(n), n))), (A, _garbage(rng, n))]
    found = 0
    for A, B in pairs:
        searches = [lambda: find_isomorphism(A, B), lambda: eager_find_isomorphism(A, B)]
        results = [search() for search in searches]
        assert results[0] == results[1], (A, B)
        nodes = [_exact_nodes(monkeypatch, search) for search in searches]
        assert nodes[0] == nodes[1], (A, B)
        monkeypatch.setattr(core, "_ISO_MAX_NODES", 5_000_000)
        found += results[0] is not None
    assert 0 < found < len(pairs)



def test_wave_closure_matches_eager_reference(monkeypatch):
    # above _SMALL_MAX the closure reads each propagation wave's pairs off
    # the arrays; propagation reaches the same fixpoint in any order, so the
    # maps and node counts are those of the eager reference, whose closure
    # runs once per assignment: on square laws, on relabellings of
    # Cabello-18, and on relabelled 64-element tensors with one join cell
    # corrupted, which only the closure refutes
    rng = random.Random(20261022)
    pairs = [(tensor_product(boolean_algebra(a), boolean_algebra(b)).algebra,
              boolean_algebra(a * b)) for a, b in ((1, 6), (2, 3), (2, 4), (3, 3))]
    C = cabello18_algebra()
    pairs += [(C, relabel(C, rng.sample(range(C.n), C.n))) for _ in range(3)]
    found = len(pairs)
    for a, b in ((1, 6), (2, 3)):
        T = tensor_product(boolean_algebra(a), boolean_algebra(b)).algebra
        R = relabel(T, rng.sample(range(T.n), T.n))
        p, q = rng.choice([(p, q) for p, q in itertools.combinations(range(R.n), 2)
                           if R.comm_pair(p, q)])
        value = rng.choice([v for v in range(R.n) if v != R.join[p][q]])
        pairs.append((T, _corrupt(R, [("join", p, q, value), ("join", q, p, value)])))
    assert min(A.n for A, _ in pairs) > core._SMALL_MAX
    for i, (A, B) in enumerate(pairs):
        result = find_isomorphism(A, B)
        assert result == eager_find_isomorphism(A, B), i
        assert (result is not None) == (i < found), i
        nodes = _exact_nodes(monkeypatch, lambda: find_isomorphism(A, B))
        # the reference runs through that budget and no smaller one, so its
        # node count is the same
        monkeypatch.setattr(core, "_ISO_MAX_NODES", nodes)
        eager_find_isomorphism(A, B)
        if nodes:
            monkeypatch.setattr(core, "_ISO_MAX_NODES", nodes - 1)
            with pytest.raises(SearchCutoffError):
                eager_find_isomorphism(A, B)
        monkeypatch.setattr(core, "_ISO_MAX_NODES", 5_000_000)


# Node count and sha256 of repr(map), cut to 16 hex digits, of
# find_isomorphism(T(X, Y), target) for hom-sweep's unit laws T(bool1, A) ≅ A
# and square laws T(bool a, bool b) ≅ bool(ab), taken from the search that
# cleared each image from every unassigned mask.
LAW_PINS = {
    "unit:bool1": (0, "a5cabe61309cbdb1"),
    "unit:bool2": (1, "c488d5c0fe8e8bd1"),
    "unit:bool3": (2, "1f01ade0b282acd8"),
    "unit:mo2": (2, "3a06086c62e636d4"),
    "unit:mo3": (3, "71347777824d0062"),
    "square:1x1": (0, "a5cabe61309cbdb1"),
    "square:1x2": (1, "c488d5c0fe8e8bd1"),
    "square:2x1": (1, "c488d5c0fe8e8bd1"),
    "square:2x2": (3, "f3c85bb2d0ae9374"),
    "square:1x3": (2, "1f01ade0b282acd8"),
    "square:3x1": (2, "1f01ade0b282acd8"),
    "square:1x4": (3, "7b7cf37426e5e8f7"),
    "square:4x1": (3, "7b7cf37426e5e8f7"),
    "square:1x5": (4, "a34a2cb3cafbe6fe"),
    "square:5x1": (4, "a34a2cb3cafbe6fe"),
    "square:2x3": (5, "358a153938b125ce"),
    "square:3x2": (5, "507aa47308ff28ea"),
    "square:1x6": (5, "806345b237b42b0f"),
    "square:6x1": (5, "806345b237b42b0f"),
    "square:2x4": (7, "cc8a50751201caa7"),
    "square:2x5": (9, "abfe4382d1da33cc"),
}


def _law(law: str):
    kind, arg = law.split(":")
    if kind == "unit":
        A = dict(zip(("bool1", "bool2", "bool3", "mo2", "mo3"), small_corpus()))[arg]
        return boolean_algebra(1), A, A
    a, b = map(int, arg.split("x"))
    return boolean_algebra(a), boolean_algebra(b), boolean_algebra(a * b)


@pytest.mark.parametrize("law", list(LAW_PINS))
def test_tensor_law_isomorphism_is_pinned(monkeypatch, law):
    X, Y, target = _law(law)
    T = tensor_product(X, Y).algebra
    nodes, digest = LAW_PINS[law]
    monkeypatch.setattr(core, "_ISO_MAX_NODES", nodes)
    iso = find_isomorphism(T, target)
    assert hashlib.sha256(repr(iso).encode()).hexdigest()[:16] == digest
    if nodes:
        monkeypatch.setattr(core, "_ISO_MAX_NODES", nodes - 1)
        with pytest.raises(SearchCutoffError):
            find_isomorphism(T, target)


# ---------------------------------------------------------------------------
# morphism composition property
# ---------------------------------------------------------------------------

@given(st.data())
@settings(max_examples=20, deadline=None)
def test_composition_of_morphisms_is_morphism(data):
    mo2 = from_orthomodular(mo_lattice(2))
    b2 = boolean_algebra(2)
    two = boolean_algebra(1)
    fs = enumerate_morphisms(mo2, b2)
    gs = enumerate_morphisms(b2, two)
    f = data.draw(st.sampled_from(fs))
    g = data.draw(st.sampled_from(gs))
    assert check_morphism(compose(g, f)).ok
