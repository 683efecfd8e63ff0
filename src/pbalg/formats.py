"""Versioned text formats: algebra files (.pba), block hypergraphs
(.blocks), ray sets (.rays) and matrix seeds (.mseed, JSON).

Exact grammars live in docs/formats.md.  Parsing reports 1-based line
numbers on syntax errors; semantic problems are left to validation.  The
algebra serializer is canonical: parse followed by serialize is the
identity on its own output.
"""

from __future__ import annotations

import cmath
import json
import math
from typing import Sequence

import numpy as np

from .errors import FormatError, StructuralError
from .core import (
    UNDEF,
    BlockHypergraph,
    PartialBooleanAlgebra,
    block_hypergraph,
    make_pba,
)
from .matrixalg import MatrixSeed

PBA_HEADER = "pba 1"
BLOCKS_HEADER = "blocks 1"
RAYS_HEADER = "rays 1"


def _content_lines(text: str):
    """Yield (lineno, stripped content) skipping blanks and # comments."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


# ---------------------------------------------------------------------------
# algebra files
# ---------------------------------------------------------------------------

def parse_algebra_text(text: str) -> PartialBooleanAlgebra:
    """Parse the canonical algebra format.

    Sections in fixed order: header, n, zero, one, optional labels, neg,
    then comm/meet/join entry lines.  Implied commeasurabilities (reflexive
    pairs, 0/1 rows, complement pairs) must be omitted; meets and joins may
    only reference declared or implied pairs.
    """
    lines = list(_content_lines(text))
    if not lines or lines[0][1] != PBA_HEADER:
        raise FormatError("expected header 'pba 1'",
                          line=lines[0][0] if lines else 1)
    pos = 1

    def take(keyword: str, optional: bool = False):
        nonlocal pos
        if pos < len(lines):
            ln, content = lines[pos]
            parts = content.split()
            if parts[0] == keyword:
                pos += 1
                return ln, parts[1:]
        if optional:
            return None
        ln = lines[pos][0] if pos < len(lines) else lines[-1][0]
        raise FormatError(f"expected a '{keyword}' line", line=ln)

    def to_int(tok: str, ln: int) -> int:
        try:
            return int(tok)
        except ValueError:
            raise FormatError(f"expected an integer, got {tok!r}", line=ln) from None

    ln, args = take("n")
    if len(args) != 1:
        raise FormatError("'n' takes one value", line=ln)
    n = to_int(args[0], ln)
    if n <= 0:
        raise FormatError("element count must be positive", line=ln)
    ln, args = take("zero")
    if len(args) != 1:
        raise FormatError("'zero' takes one value", line=ln)
    zero = to_int(args[0], ln)
    if not 0 <= zero < n:
        raise FormatError("'zero' index out of range", line=ln)
    ln, args = take("one")
    if len(args) != 1:
        raise FormatError("'one' takes one value", line=ln)
    one = to_int(args[0], ln)
    if not 0 <= one < n:
        raise FormatError("'one' index out of range", line=ln)

    labels = None
    got = take("labels", optional=True)
    if got is not None:
        ln, args = got
        if len(args) != n:
            raise FormatError(f"'labels' needs {n} names", line=ln)
        if len(set(args)) != n:
            raise FormatError("labels must be unique", line=ln)
        labels = args

    ln, args = take("neg")
    if len(args) != n:
        raise FormatError(f"'neg' needs {n} entries", line=ln)
    neg = [to_int(t, ln) for t in args]
    for a, v in enumerate(neg):
        if not 0 <= v < n:
            raise FormatError(f"neg entry {a} out of range", line=ln)

    def implied(a: int, b: int) -> bool:
        return a == b or zero in (a, b) or one in (a, b) or neg[a] == b

    comm_pairs: list[tuple[int, int]] = []
    declared: set[tuple[int, int]] = set()
    meets: dict[tuple[int, int], int] = {}
    joins: dict[tuple[int, int], int] = {}
    for i in range(pos, len(lines)):
        ln, content = lines[i]
        parts = content.split()
        kind, args = parts[0], parts[1:]
        if kind == "comm":
            if len(args) != 2:
                raise FormatError("'comm' takes two indices", line=ln)
            a, b = (to_int(t, ln) for t in args)
            if not (0 <= a < n and 0 <= b < n):
                raise FormatError("comm index out of range", line=ln)
            if a >= b:
                raise FormatError("comm pairs are written with a < b", line=ln)
            if implied(a, b):
                raise FormatError(
                    "comm pair is implied (reflexive, 0/1, or complement) "
                    "and must be omitted", line=ln)
            if (a, b) in declared:
                raise FormatError("duplicate comm pair", line=ln)
            declared.add((a, b))
            comm_pairs.append((a, b))
        elif kind in ("meet", "join"):
            if len(args) != 3:
                raise FormatError(f"'{kind}' takes three indices", line=ln)
            a, b, v = (to_int(t, ln) for t in args)
            if not (0 <= a < n and 0 <= b < n and 0 <= v < n):
                raise FormatError(f"{kind} index out of range", line=ln)
            if a >= b:
                raise FormatError(f"{kind} entries are written with a < b", line=ln)
            if (a, b) not in declared:
                raise FormatError(
                    f"dangling {kind} entry: pair ({a}, {b}) is not declared "
                    "commeasurable", line=ln)
            table = meets if kind == "meet" else joins
            if (a, b) in table:
                raise FormatError(f"duplicate {kind} entry", line=ln)
            table[(a, b)] = v
        else:
            raise FormatError(f"unknown directive {kind!r}", line=ln)

    try:
        return make_pba(
            n, zero, one, neg, comm_pairs,
            [(a, b, v) for (a, b), v in meets.items()],
            [(a, b, v) for (a, b), v in joins.items()],
            labels)
    except StructuralError as exc:
        raise FormatError(str(exc)) from exc


def serialize_algebra(A: PartialBooleanAlgebra) -> str:
    """Canonical text form: explicit entries only for commeasurable pairs
    that are not implied by reflexivity, the bounds, or complementation."""
    for lab in A.labels:
        if not lab or any(ch.isspace() for ch in lab) or "#" in lab:
            raise StructuralError(f"label {lab!r} is not serializable")
    if len(set(A.labels)) != A.n:
        raise StructuralError("labels must be unique to serialize")
    out = [PBA_HEADER, f"n {A.n}", f"zero {A.zero}", f"one {A.one}",
           "labels " + " ".join(A.labels),
           "neg " + " ".join(str(v) for v in A.neg)]
    pairs = [(a, b) for a in range(A.n) for b in range(a + 1, A.n)
             if A.comm_pair(a, b)
             and A.zero not in (a, b) and A.one not in (a, b)
             and A.neg[a] != b]
    for a, b in pairs:
        out.append(f"comm {a} {b}")
    for a, b in pairs:
        if A.meet[a][b] != UNDEF:
            out.append(f"meet {a} {b} {A.meet[a][b]}")
    for a, b in pairs:
        if A.join[a][b] != UNDEF:
            out.append(f"join {a} {b} {A.join[a][b]}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# block files
# ---------------------------------------------------------------------------

def parse_blocks_text(text: str) -> BlockHypergraph:
    """One block per line: whitespace-separated atom labels."""
    lines = list(_content_lines(text))
    if not lines or lines[0][1] != BLOCKS_HEADER:
        raise FormatError("expected header 'blocks 1'",
                          line=lines[0][0] if lines else 1)
    blocks = []
    for ln, content in lines[1:]:
        atoms = content.split()
        if len(set(atoms)) != len(atoms):
            raise FormatError("repeated atom within a block", line=ln)
        blocks.append(atoms)
    if not blocks:
        raise FormatError("no blocks given", line=lines[0][0])
    try:
        return block_hypergraph(blocks)
    except StructuralError as exc:
        raise FormatError(str(exc)) from exc


def serialize_blocks(h: BlockHypergraph) -> str:
    out = [BLOCKS_HEADER]
    for blk in h.blocks:
        out.append(" ".join(sorted(blk)))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# ray files
# ---------------------------------------------------------------------------

def parse_rays_text(text: str) -> tuple[int, list[list[complex]]]:
    """Header, a 'dim' line, then one ray per line with dim entries; entries
    are finite real or complex literals in Python syntax (e.g. -1, 0.5,
    1+2j)."""
    lines = list(_content_lines(text))
    if not lines or lines[0][1] != RAYS_HEADER:
        raise FormatError("expected header 'rays 1'",
                          line=lines[0][0] if lines else 1)
    if len(lines) < 2 or not lines[1][1].startswith("dim"):
        raise FormatError("expected a 'dim' line", line=lines[min(1, len(lines) - 1)][0])
    ln, content = lines[1]
    parts = content.split()
    if len(parts) != 2:
        raise FormatError("'dim' takes one value", line=ln)
    try:
        dim = int(parts[1])
    except ValueError:
        raise FormatError("dimension must be an integer", line=ln) from None
    if dim < 1:
        raise FormatError("dimension must be positive", line=ln)
    rays = []
    for ln, content in lines[2:]:
        toks = content.split()
        if len(toks) != dim:
            raise FormatError(f"ray needs {dim} entries, got {len(toks)}", line=ln)
        try:
            ray = [complex(t) for t in toks]
        except ValueError:
            raise FormatError("ray entries must be numeric", line=ln) from None
        if not all(cmath.isfinite(v) for v in ray):
            raise FormatError("ray entries must be finite", line=ln)
        rays.append(ray)
    if not rays:
        raise FormatError("no rays given", line=lines[1][0])
    return dim, rays


def serialize_rays(dim: int, rays: Sequence[Sequence[complex]]) -> str:
    out = [RAYS_HEADER, f"dim {dim}"]

    def fmt(v: complex) -> str:
        v = complex(v)
        if v.imag == 0:
            r = v.real
            return str(int(r)) if r == int(r) else repr(r)
        return str(v).strip("()")

    for ray in rays:
        out.append(" ".join(fmt(v) for v in ray))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# matrix seed files (JSON)
# ---------------------------------------------------------------------------

def _finite_real(v) -> bool:
    """v is a JSON number, not a Boolean, and finite as a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer literal past the float range
        return False


def parse_matrix_seed_text(text: str) -> MatrixSeed:
    """JSON object: format/version markers, dim, optional tolerance, and
    matrices as nested [row][column] -> [re, im] arrays."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(data, dict) or data.get("format") != "mseed":
        raise FormatError("expected an object with format 'mseed'")
    if data.get("version") != 1:
        raise FormatError("unsupported mseed version")
    try:
        dim = data["dim"]
        raw = data["matrices"]
    except KeyError as exc:
        raise FormatError(f"malformed mseed fields: {exc}") from exc
    tol = data.get("tolerance", 1e-9)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise FormatError(f"'dim' must be a non-negative integer, got {dim!r}")
    if not _finite_real(tol) or tol < 0:
        raise FormatError(f"'tolerance' must be a finite non-negative number, got {tol!r}")
    if not isinstance(raw, list):
        raise FormatError("'matrices' must be a list")
    mats = []
    for mi, rows in enumerate(raw):
        if not (isinstance(rows, list) and len(rows) == dim
                and all(isinstance(row, list) and len(row) == dim for row in rows)):
            raise FormatError(f"matrix {mi} is not a {dim} by {dim} grid")
        if not all(isinstance(c, list) and len(c) == 2 and all(map(_finite_real, c))
                   for row in rows for c in row):
            raise FormatError(f"matrix {mi} has a cell that is not a finite [re, im] pair")
        mats.append(np.array([[complex(*c) for c in row] for row in rows],
                             dtype=complex).reshape(dim, dim))
    return MatrixSeed(dim=dim, generators=mats, tol=float(tol))


def serialize_matrix_seed(seed: MatrixSeed) -> str:
    payload = {
        "format": "mseed",
        "version": 1,
        "dim": seed.dim,
        "tolerance": seed.tol,
        "matrices": [
            [[[float(v.real), float(v.imag)] for v in row] for row in m]
            for m in seed.generators
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def parse_algebra_file(path: str) -> PartialBooleanAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_text(fh.read())


def parse_blocks_file(path: str) -> BlockHypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_blocks_text(fh.read())


def parse_rays_file(path: str) -> tuple[int, list[list[complex]]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rays_text(fh.read())


def parse_matrix_seed_file(path: str) -> MatrixSeed:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_seed_text(fh.read())
