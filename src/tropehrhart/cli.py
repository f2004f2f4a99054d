"""Batch command line front-end.

Reads fan/matroid/bundle JSON files, dispatches computations and prints one
JSON report (deterministic key and array order) or an aligned text table.
Exit codes: 0 success, 2 input/validation errors (with a structured error
object naming the offending row or cone), 1 internal errors.

Every integer of a report, an error payload included, is emitted as a JSON
number while |x| < 2^53 and as a decimal string beyond (`_dump` applies the
rule once, to the whole report; booleans stay true and false); rationals are
always "p/q" strings.  Ground set elements and ray indices are 1-indexed in
all files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import hrr, taut
from .chains import ConvexChain, lattice_sum
from .errors import (
    NoCommonApartmentError,
    RowNotInBergmanError,
    TropehrhartError,
    UnsupportedDimensionError,
    ValidationError,
)
from .lattice import VERTEX_ENUM_MAX_DIM, Fan, VPolytope
from .linalg import exact
from .matroid import Matroid
from .tropvb import k_class_identity, split_resolution, validate


# ---------------------------------------------------------------------------
# JSON encoding and decoding
# ---------------------------------------------------------------------------

_SAFE = 2**53


def encode_int(x: int):
    return int(x) if abs(x) < _SAFE else str(int(x))


def encode_rational(q) -> str:
    """An int or a Fraction as a "p/q" string in lowest terms."""
    return f"{q.numerator}/{q.denominator}"


def parse_number(v):
    """A JSON number or a "k" / "p/q" string as an exact number
    (`linalg.exact`): an int where integral, else a Fraction."""
    if isinstance(v, bool):
        raise ValidationError("booleans are not numbers")
    if isinstance(v, int):
        return int(v)
    if isinstance(v, str):
        try:
            if "/" in v:
                p, q = v.split("/", 1)
                return exact(Fraction(int(p), int(q)))
            return int(v)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"cannot parse number from {v!r}") from None
    raise ValidationError(f"cannot parse number from {v!r}")


def parse_int(v) -> int:
    if type(v) is int:  # JSON integers; bool, a subclass, is refused below
        return v
    f = parse_number(v)
    if type(f) is not int:
        raise ValidationError(f"expected an integer, got {v!r}")
    return f


def _encoded(obj):
    """The report with every int, but no bool, through `encode_int`."""
    if type(obj) is int:
        return encode_int(obj)
    if isinstance(obj, dict):
        return {k: _encoded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encoded(v) for v in obj]
    return obj


def _dump(obj) -> str:
    return json.dumps(_encoded(obj), sort_keys=True, separators=(", ", ": "))


# ---------------------------------------------------------------------------
# Schema loading
# ---------------------------------------------------------------------------

def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"input file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from None


def load_matroid_data(data) -> Matroid:
    try:
        m = parse_int(data["m"])
        bases = [frozenset(parse_int(e) for e in b) for b in data["bases"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"matroid schema error: {exc}") from None
    return Matroid(m, bases)


def load_fan_data(data) -> Fan:
    try:
        rays = [tuple(parse_int(x) for x in r) for r in data["rays"]]
        cones = [[parse_int(i) - 1 for i in c] for c in data["cones"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"fan schema error: {exc}") from None
    return Fan(rays, cones)


def load_bundle(path: str):
    data = _load_json(path)
    try:
        fan = load_fan_data(data["fan"])
        matroid = load_matroid_data(data["matroid"])
        diagram = [tuple(parse_int(x) for x in row) for row in data["diagram"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bundle schema error: {exc}") from None
    return validate(fan, matroid, diagram)


def load_chain(path: str) -> ConvexChain:
    data = _load_json(path)
    try:
        terms = []
        for t in data["terms"]:
            coeff = parse_int(t["coeff"])
            verts = [tuple(parse_number(x) for x in v) for v in t["vertices"]]
            if any(not v for v in verts):
                # no --u could address a 0-dimensional chain
                raise ValidationError(
                    "chain piece vertices need at least one coordinate"
                )
            if any(len(v) > VERTEX_ENUM_MAX_DIM for v in verts):
                raise UnsupportedDimensionError(
                    f"chain pieces are capped at ambient dimension {VERTEX_ENUM_MAX_DIM}"
                )
            terms.append((coeff, VPolytope(verts)))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"chain schema error: {exc}") from None
    if not terms:
        # the empty chain is zero everywhere and fixes no dimension for --u
        raise ValidationError("chain has no terms")
    return ConvexChain(terms)


def _parse_vector(text: str, dim=None):
    """Comma-separated integers; with dim given, exactly dim of them."""
    try:
        vec = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if dim is not None and len(vec) != dim:
        raise ValidationError(
            f"expected {dim} coordinates, got {len(vec)} in {text!r}"
        )
    return vec


def _parse_box(text: str, dim: int):
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValidationError(f"expected a box lo1,lo2:hi1,hi2, got {text!r}")
    return (_parse_vector(lo, dim), _parse_vector(hi, dim))


def _user_box(text: str, bundle):
    """A --box for chi or alpha-eval; it must contain the computed `chi_box()`.

    The margin check alone passes a box that misses the support of chi,
    because such a box is zero on its shell.  `chi_box()` is padded by one,
    so a box containing it has hi - lo >= 2 in every coordinate; the point
    cap is checked where the box is summed.
    """
    box = _parse_box(text, bundle.fan.ambient_dim)
    need = bundle.chi_box()
    if any(l > nl or h < nh for l, h, nl, nh in zip(*box, *need)):
        shown = ":".join(",".join(map(str, v)) for v in need)
        raise ValidationError(
            f"box {text} does not contain the computed box {shown}"
        )
    return box


def _refuse_together(args, *pairs):
    """Refuse each pair of options given together that the command cannot
    both use, before any file is loaded: a report at one character (--u)
    sums no box, and a chain file has no box check and is no bundle."""
    for a, b in pairs:
        if getattr(args, a) is not None and getattr(args, b) is not None:
            raise ValidationError(f"--{a} and --{b} cannot be given together")


def _cone_label(key) -> str:
    return ",".join(str(i + 1) for i in sorted(key))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> dict:
    bundle = load_bundle(args.bundle)
    return {
        "valid": True,
        "rank": bundle.rank,
        "rays": len(bundle.fan.rays),
        "ground_size": bundle.matroid.m,
        "adapted_bases": {
            _cone_label(k): sorted(v) for k, v in bundle.adapted_bases.items()
        },
    }


def _cmd_h0(args) -> dict:
    bundle = load_bundle(args.bundle)
    if args.u is not None:
        u = _parse_vector(args.u, bundle.fan.ambient_dim)
        return {"u": list(u), "h0_u": bundle.h0_global(u)}
    nonzero = [{"u": list(u), "h0": h} for u, h in bundle.h0_nonzero()]
    return {"h0_total": sum(e["h0"] for e in nonzero), "nonzero": nonzero}


def _cmd_chi(args) -> dict:
    _refuse_together(args, ("u", "box"))
    bundle = load_bundle(args.bundle)
    if args.u is not None:
        u = _parse_vector(args.u, bundle.fan.ambient_dim)
        # chi_u is the alternating sum of the per-codimension totals
        by_codim = bundle.euler_char_by_codim(u)
        chi = sum((-1) ** k * v for k, v in enumerate(by_codim))
        return {"u": list(u), "chi_u": chi, "h0_by_codim": by_codim}
    box = _user_box(args.box, bundle) if args.box else bundle.chi_box()
    return {"chi_total": bundle.euler_char_total(box), "box": [list(b) for b in box]}


def _cmd_alpha_eval(args) -> dict:
    _refuse_together(args, ("chain", "bundle"), ("chain", "box"), ("u", "box"))
    if args.chain:
        if args.u is None:
            raise ValidationError("alpha-eval on a chain file needs --u")
        chain = load_chain(args.chain)
        u = _parse_vector(args.u, chain.ambient_dim)
        return {"u": list(u), "value": chain.evaluate(u)}
    if not args.bundle:
        raise ValidationError("alpha-eval needs --bundle or --chain")
    bundle = load_bundle(args.bundle)
    dim = bundle.fan.ambient_dim
    chain = bundle.chain_alpha(verify=False)
    if args.u is not None:
        u = _parse_vector(args.u, dim)
        alpha = chain.evaluate(u)
        chi = bundle.euler_char_u(u)
        return {"u": list(u), "alpha_u": alpha, "chi_u": chi, "equal": alpha == chi}
    box = _user_box(args.box, bundle) if args.box else bundle.chi_box()
    return {
        "alpha_total": lattice_sum(chain, box),
        "box": [list(b) for b in box],
    }


def _cmd_hrr(args) -> dict:
    bundle = load_bundle(args.bundle)
    result = hrr.hrr_verify(bundle)
    return {
        "lhs": encode_rational(result["lhs"]),
        "rhs": result["rhs"],
        "equal": result["equal"],
    }


def _cmd_resolve(args) -> dict:
    bundle = load_bundle(args.bundle)
    f = _parse_vector(args.f) if args.f else None
    resolution = split_resolution(bundle, f, check_bound=args.check_bound)
    pieces = []
    for piece in resolution:
        pieces.append(
            {
                "codim": piece.codim,
                "rank": piece.rank,
                "characters": {
                    _cone_label(k): us for k, us in piece.characters.items()
                },
            }
        )
    return {
        "f": list(f) if f else [max(row) for row in bundle.diagram],
        "bundles": pieces,
        "k_class_identity": k_class_identity(bundle, resolution),
    }


def _cmd_taut_check(args) -> dict:
    matroid = load_matroid_data(_load_json(args.matroid))
    report = taut.vanishing_check(matroid, args.max_coord)
    return {
        "matroid": {
            "m": matroid.m,
            "bases": sorted(sorted(b) for b in matroid.bases),
        },
        "verified_box": {
            "sum": 1,
            "max_coord": report["max_coord"],
            "points": report["points"],
        },
        "all_equal": report["all_equal"],
        "failures": [list(u) for u in report["failures"]],
    }


def _cmd_flag_sum(args) -> dict:
    return {"m": args.m, "sum": taut.flag_alternating_sum(args.m)}


# ---------------------------------------------------------------------------
# Rendering and entry point
# ---------------------------------------------------------------------------

def _render_table(report: dict) -> str:
    lines = []
    if "h0_by_codim" in report:
        byc = report["h0_by_codim"]
        lines.append(f"{'codim':>6} | {'sum h0':>7}")
        lines.append("-" * 17)
        for k, v in enumerate(byc):
            lines.append(f"{k:>6} | {v:>7}")
        terms = " ".join(
            ("-" if k % 2 else "+") + f" {v}" for k, v in enumerate(byc)
        ).lstrip("+ ")
        lines.append(f"chi = {terms} = {report['chi_u']}")
        return "\n".join(lines)
    width = max((len(k) for k in report), default=4)
    for key in sorted(report):
        lines.append(f"{key:<{width}} : {_dump(report[key])}")
    return "\n".join(lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process.

    A shell invocation calls `main` once; in-process callers (tests,
    library use) call it many times, and building the parser cost as much
    as validating a small bundle.  `parse_args` leaves the parser as it
    found it, so one parser serves every call.
    """
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--table", action="store_true",
        help="print an aligned text table instead of JSON",
    )
    parser = argparse.ArgumentParser(
        prog="tropehrhart",
        description="Exact section counts, Euler characteristics and "
        "Riemann-Roch checks for tropical vector bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a bundle file", parents=[shared])
    p.add_argument("--bundle", required=True)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("h0", help="global section ranks", parents=[shared])
    p.add_argument("--bundle", required=True)
    p.add_argument("--u", help="character, e.g. 1,0")
    p.set_defaults(fn=_cmd_h0)

    p = sub.add_parser("chi", help="equivariant Euler characteristic", parents=[shared])
    p.add_argument("--bundle", required=True)
    p.add_argument("--u", help="character, e.g. 1,0")
    p.add_argument("--box", help="override box lo1,lo2:hi1,hi2")
    p.set_defaults(fn=_cmd_chi)

    p = sub.add_parser("alpha-eval", help="evaluate the associated convex chain", parents=[shared])
    p.add_argument("--bundle")
    p.add_argument("--chain")
    p.add_argument("--u")
    p.add_argument("--box")
    p.set_defaults(fn=_cmd_alpha_eval)

    p = sub.add_parser("hrr", help="Todd-operator Riemann-Roch check", parents=[shared])
    p.add_argument("--bundle", required=True)
    p.set_defaults(fn=_cmd_hrr)

    p = sub.add_parser("resolve", help="split resolution character multisets", parents=[shared])
    p.add_argument("--bundle", required=True)
    p.add_argument("--f", help="twisting numbers, e.g. 0,0,0")
    p.add_argument("--check-bound", action="store_true")
    p.set_defaults(fn=_cmd_resolve)

    p = sub.add_parser("taut-check", help="tautological bundle vanishing check", parents=[shared])
    p.add_argument("--matroid", required=True)
    p.add_argument("--max-coord", type=int)
    p.set_defaults(fn=_cmd_taut_check)

    p = sub.add_parser("flag-sum", help="alternating sum over flags of subsets", parents=[shared])
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(fn=_cmd_flag_sum)
    return parser


# options whose value is a comma-separated vector, or two of them for a box
_VECTOR_OPTIONS = ("--u", "--f", "--box")


def _attach_vector_values(argv):
    """argv with `--u -1,0` written as `--u=-1,0`, and so for --f and --box.

    argparse takes a value such as -1,0, which starts with a minus sign but
    is not a plain number, for an unknown option, and stops with "expected
    one argument"; the `=` spelling it reads as a value.
    """
    out = []
    for arg in argv:
        if out and out[-1] in _VECTOR_OPTIONS and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _error_payload(exc: Exception) -> dict:
    # cones are named by the file's 1-based ray numbers, as in every report
    message = exc.message(1) if isinstance(exc, ValidationError) else str(exc)
    err = {"type": type(exc).__name__, "message": message}
    if isinstance(exc, RowNotInBergmanError):
        err["row"] = exc.row_number
        err["entries"] = list(exc.row)
        err["level_set"] = sorted(exc.level_set) if exc.level_set else []
    if isinstance(exc, NoCommonApartmentError):
        err["cone"] = sorted(i + 1 for i in exc.cone_rays)
    return {"error": err}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_vector_values(sys.argv[1:] if argv is None else argv)
    )
    try:
        report = args.fn(args)
    except TropehrhartError as exc:
        print(_dump(_error_payload(exc)))
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(_dump({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1
    if args.table:
        print(_render_table(report))
    else:
        print(_dump(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
