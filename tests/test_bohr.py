"""Tests for the Bohrification frame and its functorial action."""

from __future__ import annotations

import itertools

import pytest

from pbalg.core import (
    boolean_algebra,
    compose,
    enumerate_morphisms,
    identity_morphism,
)
from pbalg.bohr import (
    BohrFrame,
    FrameMap,
    frame_nontrivial_without_states,
    member_image,
    reflects_commeasurability,
)
from pbalg.errors import DomainError, PbalgError, StructuralError
from pbalg.corpus import (
    cabello18_algebra,
    mo2_algebra,
    mo3_algebra,
    paper_counterexample_morphism,
    small_corpus,
)

from helpers import frame_map_report_by_elements, reflects_commeasurability_by_diagram


@pytest.fixture(scope="module")
def mo2():
    return mo2_algebra()


@pytest.fixture(scope="module")
def mo2_frame(mo2):
    return BohrFrame(mo2)


# ---------------------------------------------------------------------------
# admissibility and frame structure
# ---------------------------------------------------------------------------

def test_bottom_and_top_admissible(mo2_frame):
    assert mo2_frame.admissible(mo2_frame.bottom())
    assert mo2_frame.admissible(mo2_frame.top())


def test_pullback_condition_rejects_bad_family(mo2_frame):
    # choosing the point of the least member forces every point upstairs
    least = next(i for i, m in enumerate(mo2_frame.poset.members) if len(m) == 2)
    atom_member = next(i for i, m in enumerate(mo2_frame.poset.members) if len(m) == 4)
    fam = mo2_frame.mask(least, mo2_frame.spectra[least])
    assert mo2_frame.opens(fam, atom_member) == frozenset()
    assert not mo2_frame.admissible(fam)


def test_frame_cardinalities(mo2_frame):
    assert len(BohrFrame(boolean_algebra(1)).elements()) == 2
    assert len(mo2_frame.elements()) == 17


def test_independent_enumerations_agree(mo2_frame):
    for A, size in [(boolean_algebra(1), 2), (boolean_algebra(2), 5),
                    (mo2_algebra(), 17), (mo3_algebra(), 65),
                    (boolean_algebra(3), 96)]:
        fr = BohrFrame(A)
        els = fr.elements()
        assert els == fr.elements_recursive()
        assert len(els) == size and list(els) == sorted(els)


def test_up_table_is_transitively_closed():
    for A in small_corpus():
        fr = BohrFrame(A)
        for b, up in enumerate(fr.up):
            assert up >> b & 1
            for c in range(len(fr.up)):
                if up >> c & 1:
                    assert fr.up[c] & ~up == 0


def negative(fr):
    return -1


def too_wide(fr):
    return fr.top() + 1


def least_point_only(fr):
    least = next(i for i, m in enumerate(fr.poset.members) if len(m) == 2)
    return fr.mask(least, fr.spectra[least])


@pytest.mark.parametrize("make", [
    pytest.param(negative, id="negative"), pytest.param(too_wide, id="too-wide"),
    pytest.param(lambda fr: (frozenset(),), id="tuple")])
def test_check_shape_rejects_non_masks(mo2_frame, make):
    with pytest.raises(DomainError):
        mo2_frame.check_shape(make(mo2_frame))
    with pytest.raises(DomainError):
        mo2_frame.admissible(make(mo2_frame))


@pytest.mark.parametrize("lookup", [
    pytest.param(lambda fr: fr.principal(0, {99}), id="principal-point"),
    pytest.param(lambda fr: fr.mask(0, [99]), id="mask-point"),
    pytest.param(lambda fr: fr.mask(len(fr.spectra), [0]), id="mask-member"),
    pytest.param(lambda fr: fr.principal(-1, {0}), id="principal-member"),
    pytest.param(lambda fr: fr.opens(fr.top(), len(fr.spectra)), id="opens-member"),
    pytest.param(lambda fr: fr.opens(fr.top(), -1), id="opens-negative")])
def test_lookups_outside_the_spectra_raise_domain_error(mo2_frame, lookup):
    with pytest.raises(DomainError):
        lookup(mo2_frame)


def least_and_block_bits(fr):
    # mo2's least member has one point, below every point of the two blocks
    least = next(i for i, m in enumerate(fr.poset.members) if len(m) == 2)
    block = next(i for i, m in enumerate(fr.poset.members) if len(m) == 4)
    return fr.bit[least, fr.spectra[least][0]], fr.bit[block, fr.spectra[block][0]]


def up_without_own_bit(fr):
    _, c = least_and_block_bits(fr)
    fr.up[c] &= ~(1 << c)


def up_without_restriction_bit(fr):
    b, c = least_and_block_bits(fr)
    fr.up[b] &= ~(1 << c)


def up_with_intransitive_bit(fr):
    b, c = least_and_block_bits(fr)
    fr.up[c] |= 1 << b


@pytest.mark.parametrize("make, corrupt, match", [
    pytest.param(lambda fr: [fr.bottom(), negative(fr)], None, "not a mask",
                 id="negative"),
    pytest.param(lambda fr: [fr.bottom(), too_wide(fr)], None, "not a mask",
                 id="too-wide"),
    pytest.param(lambda fr: [fr.bottom(), least_point_only(fr)], None,
                 "not admissible", id="inadmissible"),
    pytest.param(lambda fr: fr.elements()[:-1], None, "misses an up-set",
                 id="dropped-element"),
    pytest.param(lambda fr: fr.elements()[1:], None, "misses an up-set",
                 id="dropped-bottom"),
    pytest.param(lambda fr: fr.elements() + fr.elements()[-1:], None,
                 "listed twice", id="duplicated-element"),
    pytest.param(BohrFrame.elements, up_without_own_bit, "not reflexive",
                 id="up-without-own-bit"),
    pytest.param(BohrFrame.elements, up_without_restriction_bit,
                 "recomputation", id="up-without-restriction-bit"),
    pytest.param(BohrFrame.elements, up_with_intransitive_bit, "not transitive",
                 id="up-with-intransitive-bit")])
def test_frame_laws_reject_bad_family_with_library_error(mo2, make, corrupt, match):
    # raised, not asserted, so the certificate also holds under python -O
    fr = BohrFrame(mo2)
    elements = make(fr)
    if corrupt is not None:
        corrupt(fr)
    with pytest.raises(PbalgError, match=match):
        fr.check_frame_laws(elements)


def test_seventeen_by_casework(mo2_frame):
    # independent recount: the least member has one point; choosing it forces
    # everything, otherwise the two block members are free
    els = mo2_frame.elements()
    least = next(i for i, m in enumerate(mo2_frame.poset.members) if len(m) == 2)
    full_least = [F for F in els if mo2_frame.opens(F, least)]
    assert len(full_least) == 1
    assert len([F for F in els if not mo2_frame.opens(F, least)]) == 4 * 4


def test_frame_laws(mo2_frame):
    mo2_frame.check_frame_laws(mo2_frame.elements())
    fr3 = BohrFrame(mo3_algebra())
    fr3.check_frame_laws(fr3.elements())


def test_meet_with_top_is_identity(mo2_frame):
    for F in mo2_frame.elements():
        assert mo2_frame.meet(mo2_frame.top(), F) == F


def test_principal_families_are_least(mo2_frame):
    els = set(mo2_frame.elements())
    for i, pts in enumerate(mo2_frame.spectra):
        for p in pts:
            gen = mo2_frame.principal(i, frozenset({p}))
            assert gen in els
            smaller = [F for F in els if p in mo2_frame.opens(F, i)
                       and all(mo2_frame.opens(F, k) <= mo2_frame.opens(gen, k)
                               for k in range(len(mo2_frame.spectra)))]
            assert smaller == [gen]


# ---------------------------------------------------------------------------
# reflecting commeasurability
# ---------------------------------------------------------------------------

def test_identity_reflects(mo2):
    assert reflects_commeasurability(identity_morphism(mo2))


def test_paper_map_does_not_reflect(mo2):
    m = paper_counterexample_morphism()
    assert not reflects_commeasurability(m)
    # explicit failure: images of the two block generators share a block
    assert m.cod.comm_pair(m.map[2], m.map[4])
    assert not m.dom.comm_pair(2, 4)


def test_inclusions_reflect(mo2):
    from pbalg.core import inclusion_morphism, generated_subalgebra
    inc = inclusion_morphism(mo2, generated_subalgebra(mo2, [2]))
    assert reflects_commeasurability(inc)


def test_lemma_equivalence_exhaustive_on_small_corpus():
    # the pulled-back comm rows and the diagram formulation agree on every
    # morphism between small corpus algebras and on the paper's map
    algs = small_corpus()
    maps = [f for A, B in itertools.product(algs, repeat=2)
            for f in enumerate_morphisms(A, B)]
    maps.append(paper_counterexample_morphism())
    verdicts = [reflects_commeasurability(f) for f in maps]
    assert verdicts == [reflects_commeasurability_by_diagram(f) for f in maps]
    assert len(maps) == 1605 and not verdicts[-1] and any(verdicts)


# ---------------------------------------------------------------------------
# the induced frame map
# ---------------------------------------------------------------------------

def test_identity_action_is_identity(mo2, mo2_frame):
    fm = FrameMap(identity_morphism(mo2), src=mo2_frame, dst=mo2_frame)
    for F in mo2_frame.elements():
        assert fm(F) == F


def test_action_lands_admissibly(mo2, mo2_frame):
    m = paper_counterexample_morphism()
    fm = FrameMap(m, src=mo2_frame)
    for F in mo2_frame.elements():
        assert fm.dst.admissible(fm(F))


def test_paper_map_breaks_binary_meets(mo2, mo2_frame):
    m = paper_counterexample_morphism()
    fm = FrameMap(m, src=mo2_frame)
    rep = fm.report()
    assert rep.preserves_top
    assert rep.preserves_joins
    assert not rep.preserves_binary_meets
    F, G, j = rep.meet_witness
    # the witness is re-checkable
    assert fm.dst.opens(fm(fm.src.meet(F, G)), j) != \
        fm.dst.opens(fm.dst.meet(fm(F), fm(G)), j)


def test_report_matches_element_pairs():
    # the generator report against the loop over every pair of enumerated
    # elements, on every small-corpus morphism and the paper's map
    algs = small_corpus()
    frames = [BohrFrame(A) for A in algs]
    maps = [FrameMap(f, src=frames[a], dst=frames[b])
            for (a, A), (b, B) in itertools.product(enumerate(algs), repeat=2)
            for f in enumerate_morphisms(A, B)]
    maps.append(FrameMap(paper_counterexample_morphism()))
    broken = 0
    for fm in maps:
        rep = fm.report()
        top_ok, join_witness, meet_witness = frame_map_report_by_elements(
            fm, fm.src.elements())
        assert rep.preserves_top == top_ok
        assert rep.preserves_joins and join_witness is None
        assert rep.preserves_binary_meets == (meet_witness is None)
        if rep.meet_witness is not None:
            broken += 1
            F, G, j = rep.meet_witness
            assert F in fm.src.up and G in fm.src.up
            assert fm.dst.opens(fm(fm.src.meet(F, G)), j) != \
                fm.dst.opens(fm.dst.meet(fm(F), fm(G)), j)
    assert len(maps) == 1605 and broken > 0


@pytest.mark.parametrize("corrupt", [
    pytest.param(up_without_own_bit, id="up-without-own-bit"),
    pytest.param(up_with_intransitive_bit, id="up-with-intransitive-bit")])
def test_report_rejects_rows_that_are_not_generators(mo2, corrupt):
    fr = BohrFrame(mo2)
    fm = FrameMap(identity_morphism(mo2), src=fr, dst=BohrFrame(mo2))
    corrupt(fr)
    with pytest.raises(StructuralError, match="not a frame generator"):
        fm.report()


def test_reflecting_morphisms_preserve_meets():
    algs = [boolean_algebra(1), boolean_algebra(2), mo2_algebra()]
    for A, B in itertools.product(algs, repeat=2):
        frames = BohrFrame(A), BohrFrame(B)
        for f in enumerate_morphisms(A, B):
            if not reflects_commeasurability(f):
                continue
            rep = FrameMap(f, src=frames[0], dst=frames[1]).report()
            assert rep.preserves_top and rep.preserves_joins
            assert rep.preserves_binary_meets


def test_action_functorial_on_composable_pairs():
    from pbalg.corpus import composable_morphism_pairs
    for f, g in composable_morphism_pairs(limit=6):
        if max(f.dom.n, f.cod.n, g.cod.n) > 8:
            continue
        src = BohrFrame(f.dom)
        mid = BohrFrame(f.cod)
        dst = BohrFrame(g.cod)
        sf = FrameMap(f, src=src, dst=mid)
        sg = FrameMap(g, src=mid, dst=dst)
        sgf = FrameMap(compose(g, f), src=src, dst=dst)
        for F in src.elements():
            assert sgf(F) == sg(sf(F))


# ---------------------------------------------------------------------------
# nontriviality without states
# ---------------------------------------------------------------------------

def test_kochen_specker_frame_nontrivial():
    assert frame_nontrivial_without_states(cabello18_algebra())


def test_boolean_carriers_report_false(mo2):
    assert not frame_nontrivial_without_states(boolean_algebra(2))
    assert not frame_nontrivial_without_states(mo2)
    assert not frame_nontrivial_without_states(boolean_algebra(1))


def test_member_image_is_member(mo2):
    from pbalg.poset import boolean_subalgebras
    m = paper_counterexample_morphism()
    PB = boolean_subalgebras(m.cod)
    for member in boolean_subalgebras(mo2).members:
        assert member_image(m, member) in set(PB.members)
