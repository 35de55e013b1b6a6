#!/usr/bin/env python3
# The seven module families: explicit matrices, relation verification,
# simplicity certificates, and the central characters separating them.

from uqb2 import field_init
from uqb2 import repmod

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
print("  reconstructed == closed form:",
      repmod.e2_from_subalgebra_action(rb) == rp.act["e2"])
print()

print("A block-diagonal sum is certified non-simple; its span falls short mod p,")
print("so the exact span decides:")
r = repmod.build(ctx, repmod.module_params(ctx, "V4p", 1, 1, 0))
cert = repmod.is_simple(repmod.direct_sum(r, r))
print("  simple:", cert.simple, " span:", cert.span_dim, "of", (2 * r.dim) ** 2, " path:", cert.path)
