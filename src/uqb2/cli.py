"""Command-line front-end: every verification, machine-readable JSON out.

Exit codes: 0 success (and all contracted checks passed), 1 a contracted
check failed, 2 usage or parse error.  Results go to stdout as a single JSON
document; diagnostics go to stderr.  Field scalars are serialized as the
vector of power-basis coordinates, each an exact rational string, so output
is deterministic and lossless.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import conformance, expr, isoclass, lattice, repmod, structure, torus
from .cyclotomic import check_order, field_init
from .pbw import PBWAlgebra


def scalar_json(c):
    """The coordinates as exact rational strings, as ``str(Fraction)`` prints them."""
    den = c.den
    if den == 1:
        return [str(n) for n in c.num]
    return [str(n // den) if (g := math.gcd(n, den)) == den else "%d/%d" % (n // g, den // g)
            for n in c.num]


def term_json(key, coeff):
    i, j, k, n = key
    return {"i": i, "j": j, "k": k, "n": n, "coeff": scalar_json(coeff)}


def matrix_json(M, zero):
    """A square matrix as d rows of d scalars, ``zero`` where a row holds no entry."""
    return [[scalar_json(row.get(j, zero)) for j in range(len(M))] for row in M]


_encode = json.encoder.encode_basestring_ascii


# one term of an ``nf`` answer, as ``json.dumps`` writes ``term_json(key, coeff)``
# at that depth; the coordinate strings need no escaping
_TERM = ('{\n      "i": %d,\n      "j": %d,\n      "k": %d,\n      "n": %d,\n'
         '      "coeff": [\n        "%s"\n      ]\n    }')


def nf_json(m, text, x):
    """``json.dumps({"m": m, "expr": text, "terms": [term_json(...) per term]},
    indent=2)``, the same bytes, with each term written by one format and its
    coordinates joined once."""
    terms = x.terms
    body = ",\n    ".join([_TERM % (*key, '",\n        "'.join(scalar_json(terms[key])))
                           for key in sorted(terms)])
    return '{\n  "m": %d,\n  "expr": %s,\n  "terms": %s\n}' % (
        m, _encode(text), "[\n    " + body + "\n  ]" if body else "[]")


def _parse_matrix(spec):
    if spec in lattice.NAMED_MATRICES:
        return lattice.NAMED_MATRICES[spec]
    try:
        with open(spec) as fh:
            rows = [
                [int(tok) for tok in line.split()]
                for line in fh
                if line.strip()
            ]
    except OSError as exc:
        raise ValueError("matrix %r is neither a built-in name nor a readable file: %s" % (spec, exc))
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix file must hold a square whitespace-separated integer grid")
    return tuple(tuple(r) for r in rows)


def _parse_params(ctx, family, text):
    values = [expr.eval_scalar(part, ctx) for part in text.split(",")]
    return repmod.module_params(ctx, family, *values)


def _module(args):
    """The module of ``--family`` at ``--params`` over Q(zeta_m)."""
    ctx = field_init(args.m)
    return repmod.build(ctx, _parse_params(ctx, args.family, args.params))


# Each command maps its parsed arguments to ``(answer, passed)``: the answer
# is a payload dict, or the finished text of ``nf``, and ``passed`` is false
# when a contracted check failed.  ``main`` writes the answer and the exit code.
def cmd_nf(args):
    x = expr.evaluate(args.expr, PBWAlgebra(field_init(args.m)))
    return nf_json(args.m, args.expr, x), True


def cmd_central(args):
    alg = PBWAlgebra(field_init(args.m))
    witness = alg.commutator_witness(expr.evaluate(args.expr, alg))
    if witness is not None:
        gname, key, coeff = witness
        witness = {"against": gname, **term_json(key, coeff)}
    return {"expr": args.expr, "central": witness is None, "witness": witness}, True


def cmd_pideg(args):
    snf, degree = lattice.smith_form_and_pi_degree(_parse_matrix(args.matrix), args.m)
    return {"matrix": args.matrix, "invariant_factors": list(snf.diag), "pi_degree": degree}, True


def cmd_build_module(args):
    r = _module(args)
    return {
        "family": args.family,
        "dim": r.dim,
        "generators": list(r.act),
        "matrices": {g: matrix_json(M, r.ctx.zero) for g, M in r.act.items()},
    }, True


def cmd_check_module(args):
    r = _module(args)
    v = repmod.verify_relations(r)
    return {
        "family": args.family,
        "dim": r.dim,
        "relations_zero": v["zero"],
        "all_zero": v["all_zero"],
    }, v["all_zero"]


def cmd_simple(args):
    r = _module(args)
    cert = repmod.is_simple(r)
    return {
        "family": args.family,
        "dim": r.dim,
        "simple": cert.simple,
        "certificate": cert.span_dim,
        "path": cert.path,
    }, True


def cmd_character(args):
    chars = repmod.central_character(_module(args))
    return {
        "family": args.family,
        "characters": {
            name: {"scalar": scalar_json(c), "zero": not c} for name, c in chars.items()
        },
    }, True


def cmd_iso(args):
    ctx = field_init(args.m)
    p1 = _parse_params(ctx, args.family, args.params1)
    p2 = _parse_params(ctx, args.family, args.params2)
    verdict = isoclass.isomorphism_verdict(ctx, p1, p2)
    return {
        "family": args.family,
        "isomorphic": verdict.isomorphic,
        "witness_p": verdict.witness_p,
        "intertwiner": matrix_json(verdict.intertwiner, ctx.zero) if verdict.intertwiner else None,
    }, True


def cmd_center_report(args):
    rep = structure.center_report(PBWAlgebra(field_init(args.m)))
    contracted = [v for k, v in rep["central"].items() if k != "zp"]
    ok = all(contracted) and all(rep["subalgebra_central"].values())
    return {
        "central": rep["central"],
        "subalgebra_central": rep["subalgebra_central"],
        "zp_witness": rep["zp_witness"],
        "all_contracted_pass": ok,
    }, ok


def cmd_torus_check(args):
    ctx = field_init(args.m)
    emb = torus.verify_embedding(ctx)
    affine = torus.affine_center_checks(ctx)
    ok = emb["all_relations_hold"] and all(affine.values())
    return {
        "relation_images_zero": {k: v.is_zero() for k, v in emb["residuals"].items()},
        "affine_center_monomials_commute": affine,
        "bracket_image_equals_X2X4X1": emb["zp_image_matches"],
        "all_contracted_pass": ok,
    }, ok


def cmd_conformance(args):
    report = conformance.run_conformance(args.m)
    return report, report["all_pass"]


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built on first use and shared by every later call
    (about 2 ms to build; ``parse_args`` returns a fresh namespace each time,
    so callers share no state as long as none of them mutates the parser)."""
    parser = argparse.ArgumentParser(
        prog="uqb2",
        description="Exact verification workbench for the rank-two quantized "
        "enveloping algebra's positive part at a root of unity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **extra):
        p = sub.add_parser(name, help=extra.pop("help", None))
        p.add_argument("--m", type=int, required=True, help="order of the root of unity (>= 5)")
        p.set_defaults(fn=fn)
        return p

    p = add("nf", cmd_nf, help="normal form of an expression")
    p.add_argument("expr")
    p = add("central", cmd_central, help="centrality test with witness")
    p.add_argument("expr")
    p = add("pideg", cmd_pideg, help="invariant factors and PI degree")
    p.add_argument("--matrix", required=True,
                   help="built-in name (uqb2, balg, qaspace) or a file with an integer grid")

    for name, fn in (
        ("build-module", cmd_build_module),
        ("check-module", cmd_check_module),
        ("simple", cmd_simple),
        ("character", cmd_character),
    ):
        p = add(name, fn, help="module family operation")
        p.add_argument("--family", required=True, choices=repmod.FAMILIES)
        p.add_argument("--params", required=True,
                       help="comma-separated scalar expressions, e.g. '1,q^-2,1,0'")

    p = add("iso", cmd_iso, help="isomorphism test for two parameter tuples")
    p.add_argument("--family", required=True, choices=repmod.FAMILIES)
    p.add_argument("--params1", required=True)
    p.add_argument("--params2", required=True)

    add("center-report", cmd_center_report, help="centrality survey")
    add("torus-check", cmd_torus_check, help="torus realization residuals")
    add("conformance", cmd_conformance, help="full exact-check suite for one m")
    return parser


def _dash_values(argv):
    """``argv`` with each value that begins with '-' (``-e1``, ``-1,q``) in a
    form argparse reads as a value: ``--params -1,q`` becomes
    ``--params=-1,q``, and a positional ``-e1`` moves behind ``--``.  A
    token from ``--`` on, ``-h`` and every ``--option`` stay as they are."""
    end = argv.index("--") if "--" in argv else len(argv)
    if not argv or argv[0].startswith("-"):
        return argv
    out, moved = [argv[0]], []
    for tok in argv[1:end]:
        if not tok.startswith("-") or tok.startswith("--") or tok == "-h":
            out.append(tok)
        elif out[-1].startswith("--") and "=" not in out[-1] and not "--help".startswith(out[-1]):
            out[-1] += "=" + tok
        else:
            moved.append(tok)
    return out + ["--", *moved, *argv[end + 1:]] if moved or end < len(argv) else out


def main(argv=None):
    """Run one command: write its answer to stdout as one JSON document (a
    payload after a leading ``"m"``) and return 0, or 1 when a contracted
    check failed; on a usage error write one ``error:`` line to stderr and
    return 2."""
    args = build_parser().parse_args(_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        check_order(args.m)
        answer, passed = args.fn(args)
    except (expr.ParseError, ValueError, ArithmeticError, RecursionError) as exc:
        # ArithmeticError: input that divides by zero, such as "1/0";
        # RecursionError: an expression nested or chained too deeply
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if not isinstance(answer, str):
        answer = json.dumps({"m": args.m, **answer}, indent=2)
    sys.stdout.write(answer + "\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
