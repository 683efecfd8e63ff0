"""Tests for file formats and the command-line front end: grammars,
round-trips, exit codes, byte stability."""

from __future__ import annotations

import hashlib
import inspect
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from pbalg.core import boolean_algebra, is_isomorphic, maximal_cliques, paste_blocks, validate
from pbalg.corpus import generated_corpus, mo2_algebra, small_corpus
from pbalg.data import corpus_names, corpus_path
from pbalg.errors import FormatError
from pbalg.formats import (
    parse_algebra_text,
    parse_blocks_text,
    parse_matrix_seed_text,
    parse_rays_text,
    serialize_algebra,
    serialize_blocks,
    serialize_matrix_seed,
    serialize_rays,
)
from pbalg.cli import run


def run_cli(*argv, capsys=None):
    """Run the CLI in-process, returning (exit code, stdout bytes)."""
    import io

    buf = io.BytesIO()

    class _Stdout:
        buffer = buf

        @staticmethod
        def write(s):
            buf.write(s.encode())

        @staticmethod
        def flush():
            pass

    old = sys.stdout
    sys.stdout = _Stdout()
    try:
        code = run(list(argv))
    finally:
        sys.stdout = old
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# algebra format
# ---------------------------------------------------------------------------

def test_roundtrip_is_canonical_and_idempotent():
    for A in [boolean_algebra(2), boolean_algebra(3), mo2_algebra()]:
        text = serialize_algebra(A)
        B = parse_algebra_text(text)
        assert B == A
        assert serialize_algebra(B) == text


def test_mo2_file_parses_to_paper_algebra():
    with open(corpus_path("mo2.pba"), encoding="utf-8") as fh:
        A = parse_algebra_text(fh.read())
    assert A.n == 6
    assert is_isomorphic(A, mo2_algebra())
    assert validate(A).ok


def test_bool2_file():
    with open(corpus_path("bool2.pba"), encoding="utf-8") as fh:
        A = parse_algebra_text(fh.read())
    assert is_isomorphic(A, boolean_algebra(2))


def test_dangling_meet_entry_is_syntax_error():
    text = "\n".join([
        "pba 1", "n 4", "zero 0", "one 3", "neg 3 2 1 0",
        "meet 1 2 0",  # pair (1, 2) never declared commeasurable
    ])
    with pytest.raises(FormatError) as err:
        parse_algebra_text(text)
    assert "dangling" in str(err.value)
    assert err.value.line == 6


def test_syntax_errors_carry_line_numbers():
    bad_header = "nonsense"
    with pytest.raises(FormatError) as err:
        parse_algebra_text(bad_header)
    assert err.value.line == 1
    with pytest.raises(FormatError) as err:
        parse_algebra_text("pba 1\nn 2\nzero 0\none 1\nneg 1 0\ncomm 0 1\n")
    assert "implied" in str(err.value)


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\npba 1\nn 2\n# inner\nzero 0\none 1\nneg 1 0\n"
    A = parse_algebra_text(text)
    assert A.n == 2


def test_invalid_algebra_parses_then_fails_validation():
    # parseable but semantically broken: negation not involutive
    text = "pba 1\nn 4\nzero 0\none 3\nneg 3 2 3 0\n"
    A = parse_algebra_text(text)
    assert not validate(A).ok


# ---------------------------------------------------------------------------
# other formats
# ---------------------------------------------------------------------------

def test_blocks_roundtrip():
    from pbalg.core import block_hypergraph
    h = block_hypergraph([["a", "b", "c"], ["c", "d", "e"]])
    text = serialize_blocks(h)
    assert parse_blocks_text(text).blocks == h.blocks


def test_blocks_invariant_errors_are_format_errors():
    with pytest.raises(FormatError, match="contained"):
        parse_blocks_text("blocks 1\na b c\na b\n")


def test_rays_roundtrip():
    dim, rays = parse_rays_text(serialize_rays(2, [[1, 0], [0, 1], [1, -1]]))
    assert dim == 2
    assert rays == [[1, 0], [0, 1], [1, -1]]


def test_rays_complex_entries():
    dim, rays = parse_rays_text("rays 1\ndim 2\n1j 0\n0.5 -0.5\n")
    assert rays[0][0] == 1j


def test_rays_bad_width():
    with pytest.raises(FormatError) as err:
        parse_rays_text("rays 1\ndim 3\n1 0\n")
    assert err.value.line == 3


# a non-finite entry is a syntax error (exit 2) on its own line
NON_FINITE_RAYS = [
    ("rays 1\ndim 2\n1 0\n0 1\nnan 1\n1 -1\n", 5),
    ("rays 1\ndim 1\nnan\n", 3),
    ("rays 1\ndim 2\n1 0\n0 inf\n", 4),
    ("rays 1\ndim 2\n1 0\n0 1\n1e400 1\n", 5),
    ("rays 1\ndim 2\n1 0\n0 1\n1+nanj 1\n", 5),
]


@pytest.mark.parametrize("text, line", NON_FINITE_RAYS, ids=[
    "nan", "dim-1-nan", "inf", "overflowing-literal", "complex-nan"])
def test_non_finite_ray_entries_exit_two(tmp_path, text, line):
    with pytest.raises(FormatError, match="finite") as err:
        parse_rays_text(text)
    assert err.value.line == line
    path = tmp_path / "bad.rays"
    path.write_text(text)
    code, out = run_cli("ks-rays", str(path))
    assert code == 2
    assert json.loads(out)["error"] == f"syntax: line {line}: ray entries must be finite"


def test_overflowing_ray_norm_fails_cleanly(tmp_path):
    path = tmp_path / "big.rays"
    path.write_text("rays 1\ndim 2\n1 0\n0 1\n1e308 1e308\n")
    code, out = run_cli("ks-rays", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "ray 2 has a norm too large to represent"


def test_mseed_roundtrip():
    from pbalg.matrixalg import MatrixSeed
    seed = MatrixSeed(dim=2, generators=[np.diag([1.0, -1.0]).astype(complex)])
    again = parse_matrix_seed_text(serialize_matrix_seed(seed))
    assert again.dim == 2
    assert np.allclose(again.generators[0], seed.generators[0])


def _mseed(**fields) -> str:
    return json.dumps({"format": "mseed", "version": 1, "dim": 1,
                       "matrices": [[[[1.0, 0.0]]]], **fields})


# a field of the wrong type, sign or finiteness is a syntax error (exit 2),
# never a Python error from numpy or a silent truncation
BAD_MSEEDS = {
    "negative-dim": (_mseed(dim=-1, matrices=[]), "'dim' must be a non-negative integer"),
    "fractional-dim": (_mseed(dim=1.7), "'dim' must be a non-negative integer"),
    "boolean-dim": (_mseed(dim=True), "'dim' must be a non-negative integer"),
    "string-dim": (_mseed(dim="1"), "'dim' must be a non-negative integer"),
    "matrices-not-a-list": (_mseed(matrices=5), "'matrices' must be a list"),
    "ragged-matrix": (_mseed(dim=2, matrices=[[[[1, 0]], [[0, 0], [1, 0]]]]),
                      "matrix 0 is not a 2 by 2 grid"),
    "three-number-cell": (_mseed(matrices=[[[[1, 0, 5]]]]),
                          "matrix 0 has a cell that is not a finite"),
    "string-cell": (_mseed(matrices=[[[["1", 0]]]]), "matrix 0 has a cell that is not a finite"),
    "nan-cell": (_mseed(matrices=[[[[float("nan"), 0]]]]),
                 "matrix 0 has a cell that is not a finite"),
    "negative-tolerance": (_mseed(tolerance=-1e-9), "'tolerance' must be a finite non-negative"),
    "nan-tolerance": (_mseed(tolerance=float("nan")), "'tolerance' must be a finite non-negative"),
    "infinite-tolerance": (_mseed(tolerance=float("inf")),
                           "'tolerance' must be a finite non-negative"),
}


@pytest.mark.parametrize("case", sorted(BAD_MSEEDS))
def test_malformed_mseed_exits_two(tmp_path, case):
    text, message = BAD_MSEEDS[case]
    with pytest.raises(FormatError, match=re.escape(message)):
        parse_matrix_seed_text(text)
    path = tmp_path / "bad.mseed"
    path.write_text(text)
    code, out = run_cli("proj", str(path))
    assert code == 2
    assert json.loads(out)["error"].startswith("syntax: " + message)


def test_mseed_dim_zero_is_valid():
    seed = parse_matrix_seed_text(_mseed(dim=0, matrices=[[]]))
    assert seed.dim == 0 and seed.generators[0].shape == (0, 0)
    assert parse_matrix_seed_text(_mseed(dim=0, matrices=[], tolerance=0)).tol == 0.0


def test_bundled_corpus_complete():
    names = corpus_names()
    for expected in ["mo2.pba", "mo3.pba", "bool2.pba", "bool3.pba",
                     "bool4.pba", "cabello18.rays", "peres24.rays"]:
        assert expected in names


# ---------------------------------------------------------------------------
# CLI behaviour
# ---------------------------------------------------------------------------

def test_validate_pass_exit_zero():
    code, out = run_cli("validate", corpus_path("mo2.pba"))
    assert code == 0
    data = json.loads(out)
    assert data["passed"] and data["results"]["valid"]


def test_validate_failure_exit_one(tmp_path):
    bad = tmp_path / "bad.pba"
    bad.write_text("pba 1\nn 4\nzero 0\none 3\nneg 3 2 3 0\n")
    code, out = run_cli("validate", str(bad))
    assert code == 1
    assert not json.loads(out)["passed"]


def test_syntax_error_exit_two(tmp_path):
    bad = tmp_path / "bad.pba"
    bad.write_text("pba 1\nn 2\nzero 0\none 1\nneg 1 0\nmeet 0 1 0\n")
    code, out = run_cli("validate", str(bad))
    assert code == 2
    assert "syntax" in json.loads(out)["error"]


@pytest.mark.parametrize("good, bad, line", [
    ("one 1", "one 81", 4), ("zero 0", "zero 9", 3), ("one 1", "one -1", 4)])
def test_zero_or_one_out_of_range_exit_two(tmp_path, good, bad, line):
    with open(corpus_path("mo2.pba"), encoding="utf-8") as fh:
        text = fh.read().replace(f"\n{good}\n", f"\n{bad}\n")
    with pytest.raises(FormatError) as err:
        parse_algebra_text(text)
    assert err.value.line == line
    path = tmp_path / "bad.pba"
    path.write_text(text)
    code, _ = run_cli("validate", str(path))
    assert code == 2


def test_missing_file_exit_two():
    code, _ = run_cli("validate", "no-such-file.pba")
    assert code == 2


def test_unknown_verb_rejected():
    code, _ = run_cli("frobnicate", "x.pba")
    assert code == 2


def test_cutoff_exit_three():
    code, out = run_cli("bohrify", corpus_path("cabello18.rays"),
                        "--max-frame", "4")
    # frame enumeration is skipped gracefully below the bound, so force the
    # cutoff through the tensor carrier limit instead
    code2, out2 = run_cli("tensor", corpus_path("bool3.pba"),
                          corpus_path("bool3.pba"), "--max-carrier", "10")
    assert code2 == 3
    assert "cutoff" in json.loads(out2)["error"]


def test_wide_block_is_cut_off(tmp_path):
    # a 16-atom block would paste to 65,536 elements and gigabytes of tables
    path = tmp_path / "wide.blocks"
    path.write_text("blocks 1\n" + " ".join(f"a{i}" for i in range(16)) + "\n")
    code, out = run_cli("validate", str(path))
    assert code == 3
    assert json.loads(out)["error"] == (
        "cutoff: pasting too large: 65534 (block, atom set) pairs exceed 5000")


def test_ks_search_mo2():
    code, out = run_cli("ks-search", corpus_path("mo2.pba"))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["limit_points"] == 4
    assert not results["is_kochen_specker"]


def test_ks_search_cabello_rays():
    code, out = run_cli("ks-search", corpus_path("cabello18.rays"))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["limit_points"] == 0
    assert results["is_kochen_specker"]


def test_colimit_check_bool2():
    code, out = run_cli("colimit-check", corpus_path("bool2.pba"))
    assert code == 0
    assert json.loads(out)["results"]["ok"]


@pytest.mark.parametrize("name, old, new, rule", [
    pytest.param("bool2.pba", "neg 3 2 1 0\n", "neg 3 0 1 0\n", "neg_involution",
                 id="bool2-neg"),
    pytest.param("mo3.pba", "neg 1 0 3 2 5 4 7 6\n",
                 "neg 1 0 3 2 5 4 7 6\ncomm 2 5\nmeet 2 5 7\n", "op_defined_iff_comm",
                 id="mo3-meet"),
])
def test_colimit_check_rejects_invalid_carrier(tmp_path, name, old, new, rule):
    # validation runs first and its first violation is the error; the
    # bool2 file used to end in a KeyError traceback
    with open(corpus_path(name), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    path = tmp_path / name
    path.write_text(text.replace(old, new))
    code, out = run_cli("colimit-check", str(path))
    data = json.loads(out)
    assert code == 1 and not data["passed"]
    assert data["error"].startswith(f"input fails validation: [{rule}] ")


@pytest.mark.parametrize("verb", ["ks-search", "reflect", "subalgebras", "bohrify",
                                  "spectrum", "tensor"])
def test_state_verbs_reject_non_boolean_block(tmp_path, verb):
    # bool2 with neg(11) = 00: its one block is not Boolean, so it has no
    # two-valued states to count and no subalgebra poset; ks-search and
    # reflect used to report 2 and pass, and subalgebras, bohrify and
    # spectrum to report a made-up poset or spectrum
    with open(corpus_path("bool2.pba"), encoding="utf-8") as fh:
        text = fh.read()
    assert "neg 3 2 1 0\n" in text
    path = tmp_path / "bad.pba"
    path.write_text(text.replace("neg 3 2 1 0\n", "neg 3 0 1 0\n"))
    extra = [corpus_path("bool1.pba")] if verb == "tensor" else []
    code, out = run_cli(verb, str(path), *extra)
    data = json.loads(out)
    assert code == 1 and not data["passed"] and data["results"] == {}
    assert data["error"] == "block {00, 01, 10, 11} is not the Boolean algebra on its atoms"


def test_colimit_check_does_not_pass_invalid_carrier(monkeypatch):
    # mo3 with meet[2][5] = 7 on a pair that is not commeasurable (no file
    # can hold it: the parser rejects a dangling meet line) used to pass
    import dataclasses

    from pbalg import cli

    A = cli._load_algebra(corpus_path("mo3.pba"))
    meet = [list(row) for row in A.meet]
    meet[2][5] = 7
    bad = dataclasses.replace(A, meet=tuple(map(tuple, meet)))
    monkeypatch.setattr(cli, "_load_algebra", lambda path: bad)
    code, out = run_cli("colimit-check", corpus_path("mo3.pba"))
    data = json.loads(out)
    assert code == 1 and not data["passed"]
    assert data["error"].startswith("input fails validation: [op_defined_iff_comm] ")


# seeds 0 and 3, digests of the report with the input path replaced by the
# file name, taken before cocones were read off Boolean blocks
COLIMIT_CHECK_DIGESTS = {
    "bool1.pba": ("58980c9ad1e3a105", "2bb2381867a4cd5d"),
    "bool2.pba": ("11de62e16f248e33", "6f291856eceb913c"),
    "bool3.pba": ("2bbbce8c20757378", "65983bc5d1559752"),
    "bool4.pba": ("b8544e131edf1266", "f7f143cb30c1acdb"),
    "cabello18.rays": ("824ffa754a6fbea2", "9abb9809ad676424"),
    "mo2.pba": ("58adc5886d3c6d87", "91d07a5573849ea9"),
    "mo3.pba": ("e4ec5e92dc1c0c11", "bd6f5aa6c38824c7"),
    "pauli_zx.mseed": ("d46cf2400ce5aa95", "bc01064f3639e164"),
    "peres24.rays": ("af45c3c59b493d1c", "240297360f18c628"),
    "triangle_chain.blocks": ("c6e620b009585816", "5ebbf39a33fb6441"),
}


@pytest.mark.parametrize("name", sorted(COLIMIT_CHECK_DIGESTS))
def test_colimit_check_report_is_pinned(name):
    assert sorted(COLIMIT_CHECK_DIGESTS) == sorted(corpus_names())
    path = corpus_path(name)
    digests = []
    for seed in ("0", "3"):
        _, out = run_cli("colimit-check", path, "--seed", seed)
        digests.append(hashlib.sha256(out.replace(path.encode(), name.encode())
                                      ).hexdigest()[:16])
    assert tuple(digests) == COLIMIT_CHECK_DIGESTS[name]


# digests of the --out report with each input path replaced by its file
# name, taken while product and coproduct wrote their tables pair by pair
# through make_pba
PRODUCT_REPORT_DIGESTS = {
    ("product", "mo2.pba", "bool2.pba"): "7b912973bdb3f684",
    ("product", "bool4.pba", "bool4.pba"): "0d70aefe5a606442",
    ("coproduct", "mo3.pba", "bool2.pba"): "495734cbc1fb00d8",
    ("coproduct", "bool3.pba", "mo2.pba", "bool2.pba"): "247811cd08fed4d3",
}


@pytest.mark.parametrize("args", sorted(PRODUCT_REPORT_DIGESTS), ids="-".join)
def test_product_report_is_pinned(args, tmp_path):
    verb, *names = args
    paths = [corpus_path(name) for name in names]
    target = tmp_path / "report.json"
    code, _ = run_cli(verb, *paths, "--out", str(target))
    assert code == 0
    report = target.read_text(encoding="utf-8")
    for path, name in zip(paths, names):
        report = report.replace(path, name)
    assert hashlib.sha256(report.encode()).hexdigest()[:16] == PRODUCT_REPORT_DIGESTS[args]


def test_generated_corpus_is_pinned():
    # taken while paste_blocks, product and coproduct wrote their tables
    # pair by pair through make_pba
    text = "".join(serialize_algebra(A) for A in generated_corpus(50, 24))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "d9853480055f82d5"


# digests of the report with the input path replaced by the file name,
# taken while the Hasse edges and the structure report were computed by
# their definitions over every pair or triple of members
SUBALGEBRAS_DIGESTS = {
    "bool1.pba": "6792fd806fbb32f5", "bool2.pba": "582573ad4a2828a3",
    "bool3.pba": "8b6e66a9329c8594", "mo2.pba": "7b91da37a42b0bb6",
    "mo3.pba": "de11d6380dddb749", "bool6.pba": "ca3e2909e93ce45f",
}


def test_subalgebras_report_is_pinned(tmp_path):
    algs = zip(SUBALGEBRAS_DIGESTS, small_corpus() + [boolean_algebra(6)])
    for name, A in algs:
        path = tmp_path / name
        path.write_text(serialize_algebra(A))
        _, out = run_cli("subalgebras", str(path))
        digest = hashlib.sha256(out.replace(str(path).encode(), name.encode())).hexdigest()
        assert digest[:16] == SUBALGEBRAS_DIGESTS[name], name


def test_reports_byte_stable():
    for verb, path in [("ks-search", corpus_path("mo2.pba")),
                       ("subalgebras", corpus_path("bool3.pba")),
                       ("colimit-check", corpus_path("mo2.pba"))]:
        _, out1 = run_cli(verb, path)
        _, out2 = run_cli(verb, path)
        assert out1 == out2


def test_text_and_json_reports_carry_same_values():
    _, js = run_cli("ks-search", corpus_path("mo2.pba"))
    _, txt = run_cli("ks-search", corpus_path("mo2.pba"), "--format", "text")
    data = json.loads(js)
    text = txt.decode()
    assert f"result.limit_points: {data['results']['limit_points']}" in text
    assert "passed: yes" in text


def test_digest_tracks_content(tmp_path):
    p1 = tmp_path / "a.pba"
    p2 = tmp_path / "b.pba"
    p1.write_text(open(corpus_path("bool2.pba")).read())
    p2.write_text(open(corpus_path("bool3.pba")).read())
    _, o1 = run_cli("validate", str(p1))
    _, o2 = run_cli("validate", str(p2))
    d1 = json.loads(o1)["inputs"][0]["sha256"]
    d2 = json.loads(o2)["inputs"][0]["sha256"]
    assert d1 != d2
    _, o3 = run_cli("validate", str(p1))
    assert json.loads(o3)["inputs"][0]["sha256"] == d1


def test_coproduct_pipes_algebra_format(tmp_path):
    code, out = run_cli("coproduct", corpus_path("bool2.pba"),
                        corpus_path("bool2.pba"), "--format", "pba")
    assert code == 0
    A = parse_algebra_text(out.decode())
    assert is_isomorphic(A, mo2_algebra())
    # pipe back through validate
    piped = tmp_path / "piped.pba"
    piped.write_bytes(out)
    code2, out2 = run_cli("validate", str(piped))
    assert code2 == 0


def test_tensor_verb():
    code, out = run_cli("tensor", corpus_path("bool2.pba"),
                        corpus_path("bool2.pba"), "--format", "pba")
    assert code == 0
    A = parse_algebra_text(out.decode())
    assert is_isomorphic(A, boolean_algebra(4))


def test_spectrum_verb():
    code, out = run_cli("spectrum", corpus_path("bool3.pba"))
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results["points"]) == 3
    code2, _ = run_cli("spectrum", corpus_path("mo2.pba"))
    assert code2 == 1  # not a Boolean algebra


def test_reflect_verb():
    code, out = run_cli("reflect", corpus_path("mo2.pba"))
    results = json.loads(out)["results"]
    assert results["reflection_size"] == 16
    assert results["unit_injective"]


def test_reflect_respects_max_carrier():
    # mo3 has 8 two-valued states, so its reflection has 256 elements
    code, out = run_cli("reflect", corpus_path("mo3.pba"), "--max-carrier", "100")
    assert code == 3
    assert "cutoff" in json.loads(out)["error"]
    code, out = run_cli("reflect", corpus_path("mo3.pba"))
    assert code == 0
    assert json.loads(out)["results"]["reflection_size"] == 256


def test_validate_verb_on_deep_boolean_algebra(tmp_path):
    path = tmp_path / "bool8.pba"
    path.write_text(serialize_algebra(boolean_algebra(8)))
    # the parsed carrier equals boolean_algebra(8), so a cached clique list
    # from an earlier test would skip the search this test is about
    maximal_cliques.cache_clear()
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        code, out = run_cli("validate", str(path))
    finally:
        sys.setrecursionlimit(old)
    assert code == 0
    assert json.loads(out)["results"]["valid"] is True


def test_bohrify_verb():
    code, out = run_cli("bohrify", corpus_path("mo2.pba"))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["frame_size"] == 17
    assert results["frame_laws"] == "ok"


def test_bohrify_with_morphism_report():
    code, out = run_cli(
        "bohrify", corpus_path("mo2.pba"),
        "--morphism-to", corpus_path("bool2.pba"),
        "--map", "0:00,1:11,x0:10,x0':01,x1:10,x1':01")
    assert code == 0
    morph = json.loads(out)["results"]["morphism"]
    assert morph["preserves_top"] and morph["preserves_joins"]
    assert not morph["preserves_binary_meets"]
    assert not morph["reflects_commeasurability"]


def test_bohrify_morphism_without_map_is_usage_error(capsys):
    code, out = run_cli("bohrify", corpus_path("bool2.pba"),
                        "--morphism-to", corpus_path("bool1.pba"))
    assert code == 2
    assert out == b""
    assert "--morphism-to needs --map" in capsys.readouterr().err


BLOCK0 = ["0", "1", "x0", "x0'"]
BLOCK1 = ["0", "1", "x1", "x1'"]
MO2_FRAME = {"members": 3, "frame_size": 17, "frame_laws": "ok",
             "generator_count": 5}
BOHRIFY_GOLDEN = [
    (["mo2.pba", "--list-generators"],
     {**MO2_FRAME, "generators": [
         {"member": ["0", "1"], "point": "1"},
         {"member": BLOCK0, "point": "x0"},
         {"member": BLOCK0, "point": "x0'"},
         {"member": BLOCK1, "point": "x1"},
         {"member": BLOCK1, "point": "x1'"}]}),
    (["mo2.pba", "--morphism-to", "bool2.pba",
      "--map", "0:00,1:11,x0:10,x0':01,x1:10,x1':01"],
     {**MO2_FRAME, "generators": "omitted", "morphism": {
         "reflects_commeasurability": False, "preserves_top": True,
         "preserves_joins": True, "preserves_binary_meets": False}}),
    (["cabello18.rays", "--max-frame", "4"],
     {"members": 202, "frame_size": None,
      "frame_laws": "skipped (enumeration over cutoff)",
      "generator_count": 559, "generators": "omitted"}),
    # bool4's frame has 2**37 masks, past --max-frame, yet the frame-map
    # report reads only the generators and decides
    (["bool4.pba", "--morphism-to", "bool4.pba",
      "--map", ",".join(f"{x}:{x}" for x in boolean_algebra(4).labels)],
     {"members": 15, "frame_size": None,
      "frame_laws": "skipped (enumeration over cutoff)",
      "generator_count": 37, "generators": "omitted", "morphism": {
          "reflects_commeasurability": True, "preserves_top": True,
          "preserves_joins": True, "preserves_binary_meets": True}}),
]


@pytest.mark.parametrize("argv, expected", BOHRIFY_GOLDEN)
def test_bohrify_report_is_golden(argv, expected):
    argv = [corpus_path(a) if a.endswith((".pba", ".rays")) else a for a in argv]
    code, out = run_cli("bohrify", *argv)
    assert code == 0
    # key order too: the report must stay byte-identical
    assert json.dumps(json.loads(out)["results"], indent=2) == \
        json.dumps(expected, indent=2)


def test_matrix_import_and_proj():
    code, out = run_cli("matrix-import", corpus_path("pauli_zx.mseed"))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["dim"] == 2 and results["generators"] == 2
    code2, out2 = run_cli("proj", corpus_path("pauli_zx.mseed"),
                          "--format", "pba")
    assert code2 == 0
    A = parse_algebra_text(out2.decode())
    assert is_isomorphic(A, mo2_algebra())


# sha256 of the carriers emitted with --format pba: element order, labels
# and tables of the projection closure are part of the output and must not
# drift
PBA_GOLDEN = [
    ("ks-rays", "cabello18.rays",
     "377d94f9b6820e7a30e089445bb8dc8f2cd980466f587336b2e4cc03c9a86468"),
    ("ks-rays", "peres24.rays",
     "2e8d09522df287d02a9ee699f508b01a1cb760a5f11ae2e598e89ea9915757d3"),
    ("proj", "pauli_zx.mseed",
     "f248d416082fefaf52b14f5e6e294331c42e6994f7122f07b8294717af2607f8"),
]


@pytest.mark.parametrize("verb, name, digest", PBA_GOLDEN)
def test_emitted_carrier_is_golden(verb, name, digest):
    code, out = run_cli(verb, corpus_path(name), "--format", "pba")
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == digest


def test_ks_rays_emits_blocks():
    code, out = run_cli("ks-rays", corpus_path("cabello18.rays"))
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results["blocks"]) == 9
    assert results["elements"] == 140


def test_peres24_bases_as_blocks_are_kochen_specker(tmp_path):
    # Peres-24's bases share pairs of rays; pasted from a .blocks file they
    # give the projection closure's carrier, and no valuation
    _, out = run_cli("ks-rays", corpus_path("peres24.rays"))
    results = json.loads(out)["results"]
    path = tmp_path / "peres24.blocks"
    path.write_text("blocks 1\n" + "".join(" ".join(b) + "\n" for b in results["blocks"]))
    code, out = run_cli("ks-search", str(path))
    assert code == 0
    ks = json.loads(out)["results"]
    assert (ks["elements"], ks["limit_points"], ks["is_kochen_specker"]) == (140, 0, True)
    pasted = paste_blocks(parse_blocks_text(path.read_text()))
    assert is_isomorphic(pasted, parse_algebra_text(results["algebra"]))


def test_out_flag(tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli("validate", corpus_path("bool2.pba"),
                        "--out", str(target))
    assert code == 0
    assert out == b""
    assert json.loads(target.read_text())["passed"]


def test_console_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "pbalg", "validate", corpus_path("bool2.pba")],
        capture_output=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"]
