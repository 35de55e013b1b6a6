#!/usr/bin/env python3
# The seven module families: explicit matrices, relation verification,
# simplicity certificates, and the central characters separating them.

from uqb2 import field_init
from uqb2 import repmod
from uqb2.pbw import evaluate_letters

ctx = field_init(5)
q = ctx.q

samples = {
    "V1": (q, 2, 1, 0),
    "V2": (q, 2, 1),
    "V3": (q, 2),
    "V1p": (q, 2, 1, 0),
    "V2p": (q, 2, 1),
    "V3p": (q, 2),
    "V4p": (q, 2, 1),
}

print("m = 5, so every family has dimension l = 5 here (V3-type: ord(q^4) = 5).")
print()
for family, vals in samples.items():
    rep = repmod.build(ctx, repmod.module_params(ctx, family, *vals))
    verdict = repmod.verify_relations(rep)
    cert = repmod.is_simple(rep)
    chars = repmod.central_character(rep)
    flags = ", ".join("%s=%s" % (k, "0" if not v else "nonzero") for k, v in chars.items())
    print("%-4s dim=%d  relations zero: %-5s  simple: %s (span %d, %s)" % (
        family, rep.dim, verdict["all_zero"], cert.simple, cert.span_dim, cert.path))
    print("      characters: %s" % flags)
print()

print("The e2 action of a primed family is forced by the subalgebra data:")
rb = repmod.build(ctx, repmod.module_params(ctx, "V1", q, 2, 1, 0))
rp = repmod.build(ctx, repmod.module_params(ctx, "V1p", q, 2, 1, 0))
zt = evaluate_letters(("zt",), rp.act, ctx, repmod._matrix_ops())[0]
print("  zt from the primed e2 == subalgebra zt:", zt == rb.act["zt"])
print()

print("A block-diagonal sum of two simple modules is certified non-simple from")
print("its summands (density theorem): its span is d1^2 + d2^2, or d1^2 when the")
print("summands are isomorphic, with no word closure:")
r = repmod.build(ctx, repmod.module_params(ctx, "V4p", 1, 1, 0))
s = repmod.build(ctx, repmod.module_params(ctx, "V4p", 2, 1, 0))
S = repmod.direct_sum
for label, total in (("V4p + V4p, same", S(r, r)), ("V4p + V4p, other alpha", S(r, s)),
                     ("(same + same) + other", S(S(r, r), s))):
    cert = repmod.is_simple(total)
    print("  %-22s simple: %s  span: %d of %d  path: %s" % (
        label, cert.simple, cert.span_dim, total.dim ** 2, cert.path))
