"""Command-line front end: one binary with one subcommand per pipeline,
machine-parsable reports, and stable exit codes.

Exit codes: 0 pass, 1 property failure, 2 usage or parse error, 3 search
cutoff.  Reports are byte-stable for fixed inputs and options; wall-clock
timing is only emitted under --timing so that default output stays
golden-file testable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from .errors import (
    DomainError,
    FormatError,
    InvalidAlgebraError,
    PbalgError,
    SearchCutoffError,
)
from .core import PartialBooleanAlgebra, PbaMorphism, _boolean_block, check_morphism, validate
from .poset import boolean_subalgebras, structure_report
from .colimit import coproduct, product, tensor_product, verify_colimit
from .stone import boolean_reflection, stone_limit, stone_spectrum
from .bohr import BohrFrame, FrameMap, reflects_commeasurability
from . import formats

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CUTOFF = 3


@dataclass
class Report:
    verb: str
    inputs: list[dict[str, str]]
    options: dict[str, Any]
    results: dict[str, Any] = field(default_factory=dict)
    passed: bool = True
    error: str | None = None
    wall_time_s: float | None = None


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def emit_report(report: Report, fmt: str = "json", timing: bool = False) -> bytes:
    """Byte-stable rendering; identical result values in both formats."""
    if fmt == "json":
        payload = {
            "verb": report.verb,
            "inputs": report.inputs,
            "options": report.options,
            "results": report.results,
            "passed": report.passed,
        }
        if report.error is not None:
            payload["error"] = report.error
        if timing and report.wall_time_s is not None:
            payload["wall_time_s"] = round(report.wall_time_s, 3)
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    if fmt == "text":
        lines = [f"verb: {report.verb}"]
        for inp in report.inputs:
            lines.append(f"input: {inp['path']} sha256={inp['sha256']}")
        for key, value in sorted(report.options.items()):
            lines.append(f"option {key}: {value}")
        lines.extend(_flatten("result", report.results))
        if report.error is not None:
            lines.append(f"error: {report.error}")
        lines.append(f"passed: {'yes' if report.passed else 'no'}")
        if timing and report.wall_time_s is not None:
            lines.append(f"wall_time_s: {round(report.wall_time_s, 3)}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise DomainError(f"unknown report format {fmt!r}")


def _flatten(prefix: str, value) -> list[str]:
    if isinstance(value, dict):
        out = []
        for k in value:
            out.extend(_flatten(f"{prefix}.{k}", value[k]))
        return out
    if isinstance(value, (list, tuple)):
        rendered = json.dumps(value)
        return [f"{prefix}: {rendered}"]
    return [f"{prefix}: {json.dumps(value)}"]


def _load_algebra(path: str) -> PartialBooleanAlgebra:
    if path.endswith(".rays"):
        from .matrixalg import rays_to_pba

        dim, rays = formats.parse_rays_file(path)
        return rays_to_pba(rays, dim).algebra
    if path.endswith(".blocks"):
        from .core import paste_blocks

        return paste_blocks(formats.parse_blocks_file(path))
    return formats.parse_algebra_file(path)


def _member_labels(A: PartialBooleanAlgebra, member) -> list[str]:
    return [A.labels[a] for a in sorted(member)]


# ---------------------------------------------------------------------------
# verb handlers: fill report.results, set report.passed, maybe return an
# algebra for --format pba
# ---------------------------------------------------------------------------

def _do_validate(args, report: Report) -> PartialBooleanAlgebra | None:
    A = _load_algebra(args.input[0])
    rep = validate(A)
    report.results = {
        "elements": A.n,
        "valid": rep.ok,
        "violations": [
            {"rule": v.rule, "witness": list(v.witness), "message": v.message}
            for v in rep.violations],
    }
    report.passed = rep.ok
    return None


def _do_subalgebras(args, report: Report) -> None:
    A = _load_algebra(args.input[0])
    P = boolean_subalgebras(A)
    rep = structure_report(P)
    report.results = {
        "member_count": len(P.members),
        "members": [_member_labels(A, m) for m in P.members],
        "hasse_edges": [list(e) for e in P.hasse_edges()],
        "least": _member_labels(A, rep.least),
        "atoms": [_member_labels(A, m) for m in rep.atoms],
        "filtered": rep.is_filtered,
        "maximum": _member_labels(A, rep.maximum) if rep.maximum is not None else None,
    }
    return None


def _do_colimit_check(args, report: Report) -> None:
    A = _load_algebra(args.input[0])
    # the colimit theorem is about valid carriers: an invalid one would
    # pass vacuously or fail inside the cocone machinery
    checked = validate(A)
    if not checked.ok:
        v = checked.violations[0]
        raise InvalidAlgebraError(
            f"input fails validation: [{v.rule}] {v.message}", report=checked)
    rep = verify_colimit(A, seed=args.seed, max_apex=args.max_apex)
    report.results = {
        "cocones_checked": rep.cocones_checked,
        "ok": rep.ok,
        "entries": [
            {"target": e.target_n, "cocone": e.cocone_index,
             "mediates": e.mediates, "is_morphism": e.is_morphism,
             "unique": e.unique, "route": e.uniqueness_route}
            for e in rep.entries],
    }
    report.passed = rep.ok
    return None


def _summarize_morphism(f: PbaMorphism) -> dict[str, str]:
    return {f.dom.labels[a]: f.cod.labels[f.map[a]] for a in range(f.dom.n)}


def _do_coproduct(args, report: Report) -> PartialBooleanAlgebra:
    algs = [_load_algebra(p) for p in args.input]
    C, injections = coproduct(algs)
    report.results = {
        "elements": C.n,
        "algebra": formats.serialize_algebra(C),
        "injections": [_summarize_morphism(f) for f in injections],
    }
    return C


def _do_product(args, report: Report) -> PartialBooleanAlgebra:
    algs = [_load_algebra(p) for p in args.input]
    prod, projections = product(algs)
    report.results = {
        "elements": prod.n,
        "algebra": formats.serialize_algebra(prod),
        "projections": [_summarize_morphism(f) for f in projections],
    }
    return prod


def _do_tensor(args, report: Report) -> PartialBooleanAlgebra:
    if len(args.input) != 2:
        raise DomainError("tensor takes exactly two inputs")
    A, B = (_load_algebra(p) for p in args.input)
    T = tensor_product(A, B, max_carrier=args.max_carrier)
    report.results = {
        "elements": T.algebra.n,
        "algebra": formats.serialize_algebra(T.algebra),
        "kappa_a": _summarize_morphism(T.kappa_a),
        "kappa_b": _summarize_morphism(T.kappa_b),
    }
    return T.algebra


def _do_spectrum(args, report: Report) -> None:
    A = _load_algebra(args.input[0])
    if not A.is_total():
        raise DomainError("spectrum needs a total Boolean algebra")
    _boolean_block(A, A.elements())
    sp = stone_spectrum(A, frozenset(A.elements()))
    report.results = {
        "points": [A.labels[p] for p in sp.points],
        "evaluation": {
            A.labels[p]: {A.labels[x]: sp.evaluate(A, p, x) for x in A.elements()}
            for p in sp.points},
    }
    return None


def _do_ks_search(args, report: Report) -> None:
    A = _load_algebra(args.input[0])
    points = stone_limit(A)
    report.results = {
        "elements": A.n,
        "limit_points": len(points),
        "is_kochen_specker": len(points) == 0,
        "valuations": [
            [A.labels[a] for a in range(A.n) if v[a] == 1]
            for v in points[:args.max_listed]],
    }
    return None


def _do_reflect(args, report: Report) -> None:
    A = _load_algebra(args.input[0])
    refl = boolean_reflection(A, max_carrier=args.max_carrier)
    report.results = {
        "limit_points": len(refl.families),
        "reflection_size": refl.reflection.n,
        "unit_injective": len(set(refl.eta.map)) == A.n,
        "unit": _summarize_morphism(refl.eta),
    }
    return None


def _parse_map_option(spec: str, A: PartialBooleanAlgebra,
                      B: PartialBooleanAlgebra) -> PbaMorphism:
    table = {}
    for piece in spec.split(","):
        if ":" not in piece:
            raise DomainError(f"map entries look like label:label, got {piece!r}")
        src, dst = piece.split(":", 1)
        table[A.index_of(src.strip())] = B.index_of(dst.strip())
    missing = [A.labels[a] for a in A.elements() if a not in table]
    if missing:
        raise DomainError(f"map leaves elements unassigned: {missing}")
    f = PbaMorphism(A, B, tuple(table[a] for a in A.elements()))
    chk = check_morphism(f)
    if not chk.ok:
        raise DomainError(f"given map is not a morphism: {chk.message}")
    return f


def _do_bohrify(args, report: Report) -> None:
    A = _load_algebra(args.input[0])
    frame = BohrFrame(A)
    results: dict[str, Any] = {"members": len(frame.poset.members)}
    if frame.size_bound() <= args.max_frame:
        elements = frame.elements(max_frame=args.max_frame)
        frame.check_frame_laws(elements)
        results["frame_size"] = len(elements)
        results["frame_laws"] = "ok"
    else:
        results["frame_size"] = None
        results["frame_laws"] = "skipped (enumeration over cutoff)"
    generators = []
    for i, pts in enumerate(frame.spectra):
        for p in pts:
            generators.append({
                "member": _member_labels(A, frame.poset.members[i]),
                "point": A.labels[p]})
    results["generator_count"] = len(generators)
    results["generators"] = generators if args.list_generators else "omitted"
    if args.morphism_to is not None:
        B = _load_algebra(args.morphism_to)
        f = _parse_map_option(args.map, A, B)
        mrep = FrameMap(f, src=frame).report()
        results["morphism"] = {
            "reflects_commeasurability": reflects_commeasurability(f),
            "preserves_top": mrep.preserves_top,
            "preserves_joins": mrep.preserves_joins,
            "preserves_binary_meets": mrep.preserves_binary_meets,
        }
    report.results = results
    return None


def _do_matrix_import(args, report: Report) -> None:
    from .matrixalg import enumerated_subalgebras

    seed = formats.parse_matrix_seed_file(args.input[0])
    seed.tol = args.tolerance
    subs = enumerated_subalgebras(seed)
    report.results = {
        "dim": seed.dim,
        "generators": len(seed.generators),
        "tolerance": seed.tol,
        "all_normal": True,  # the seed type rejects non-normal generators
        "enumerated_subalgebra_dims": sorted(C.algebra_dim() for C in subs),
    }
    return None


def _do_proj(args, report: Report) -> PartialBooleanAlgebra:
    from .core import maximal_cliques
    from .matrixalg import projection_algebra

    seed = formats.parse_matrix_seed_file(args.input[0])
    seed.tol = args.tolerance
    pa = projection_algebra(seed)
    report.results = {
        "elements": pa.algebra.n,
        "blocks": len(maximal_cliques(pa.algebra)),
        "algebra": formats.serialize_algebra(pa.algebra),
    }
    return pa.algebra


def _do_ks_rays(args, report: Report) -> PartialBooleanAlgebra:
    from .matrixalg import rays_to_pba

    dim, rays = formats.parse_rays_file(args.input[0])
    ra = rays_to_pba(rays, dim, tol=args.tolerance)
    report.results = {
        "dim": dim,
        "rays": len(ra.ray_elements),
        "blocks": [sorted(b) for b in ra.blocks],
        "elements": ra.algebra.n,
        "algebra": formats.serialize_algebra(ra.algebra),
    }
    return ra.algebra


HANDLERS = {
    "validate": _do_validate,
    "subalgebras": _do_subalgebras,
    "colimit-check": _do_colimit_check,
    "coproduct": _do_coproduct,
    "product": _do_product,
    "tensor": _do_tensor,
    "spectrum": _do_spectrum,
    "ks-search": _do_ks_search,
    "reflect": _do_reflect,
    "bohrify": _do_bohrify,
    "matrix-import": _do_matrix_import,
    "proj": _do_proj,
    "ks-rays": _do_ks_rays,
}

ALGEBRA_EMITTING = {"coproduct", "product", "tensor", "proj", "ks-rays"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbalg",
        description="finite partial Boolean algebra toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, many_inputs=False):
        p.add_argument("input", nargs="+" if many_inputs else 1,
                       help="input file(s): .pba, .blocks, .rays, .mseed")
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--format", default="json",
                       choices=["json", "text", "pba"],
                       help="report format; 'pba' prints a result algebra")
        p.add_argument("--timing", action="store_true",
                       help="include wall time in the report")
        p.add_argument("--tolerance", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-apex", type=int, default=16)
        p.add_argument("--max-frame", type=int, default=65536)
        p.add_argument("--max-carrier", type=int, default=5000)
        p.add_argument("--max-listed", type=int, default=64)

    for verb in HANDLERS:
        p = sub.add_parser(verb)
        common(p, many_inputs=verb in ("coproduct", "product", "tensor"))
        if verb == "bohrify":
            p.add_argument("--morphism-to", default=None,
                           help="second algebra file for the frame-map report")
            p.add_argument("--map", default=None,
                           help="comma-separated label:label pairs")
            p.add_argument("--list-generators", action="store_true")
    return parser


# parse_args leaves the parser as it was, so one tree serves every run
_PARSER = build_parser()


def run(argv: list[str]) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if getattr(args, "morphism_to", None) is not None and args.map is None:
            _PARSER.error("bohrify: --morphism-to needs --map")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    options = {k: v for k, v in sorted(vars(args).items())
               if k not in ("verb", "input", "out", "format", "timing")}
    report = Report(verb=args.verb, inputs=[], options=options)
    started = time.perf_counter()
    code = EXIT_PASS
    algebra_out: PartialBooleanAlgebra | None = None
    try:
        report.inputs = [{"path": p, "sha256": _digest(p)} for p in args.input]
        algebra_out = HANDLERS[args.verb](args, report)
        if not report.passed:
            code = EXIT_FAIL
    except FileNotFoundError as exc:
        report.passed, report.error, code = False, f"missing file: {exc.filename}", EXIT_USAGE
    except FormatError as exc:
        report.passed, report.error, code = False, f"syntax: {exc}", EXIT_USAGE
    except SearchCutoffError as exc:
        report.passed, report.error, code = False, f"cutoff: {exc}", EXIT_CUTOFF
    except (DomainError, InvalidAlgebraError, PbalgError) as exc:
        report.passed, report.error, code = False, str(exc), EXIT_FAIL
    report.wall_time_s = time.perf_counter() - started

    if args.format == "pba":
        if args.verb not in ALGEBRA_EMITTING:
            print("the 'pba' format is only for algebra-emitting verbs",
                  file=sys.stderr)
            return EXIT_USAGE
        payload = (report.results.get("algebra", "") if code == EXIT_PASS
                   else (report.error or "") + "\n").encode("utf-8")
    else:
        payload = emit_report(report, fmt=args.format, timing=args.timing)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return code


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
