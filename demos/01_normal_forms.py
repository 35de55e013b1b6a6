#!/usr/bin/env python3
# Normal forms in the four-generator presentation: products rewrite onto the
# ordered basis z^i e3^j e1^k e2^n, and the closed-form power-commutation
# identities drop out of the engine.

from uqb2 import field_init, PBWAlgebra
from uqb2.expr import evaluate, to_src

ctx = field_init(5)
alg = PBWAlgebra(ctx)
e1, e2, e3, z = alg.generators()

print("Working over Q(zeta_5); l =", ctx.l)
print()
print("The defining relations, as the engine rewrites them:")
print("  e2*e1 =", e2 * e1)
print("  e2*e3 =", e2 * e3)
print("  e1*e3 =", e1 * e3)
print()
print("e3 and z are commutators of the two true generators:")
print("  e1*e2 - q^2*e2*e1  ->", evaluate("e1*e2 - q^2*e2*e1", alg))
print("  e2*e3 - q^2*e3*e2  ->", evaluate("e2*e3 - q^2*e3*e2", alg))
print()
print("Both defining relations on e1, e2 alone normal-form to zero:")
for name, residual in alg.serre_residuals().items():
    print("  %s residual -> %r" % (name, residual))
print()
print("A power expansion and its closed form (k = 3):")
x = e2 ** 3 * e1
print("  e2^3*e1 =", to_src(x))
print("  residual against the closed form:", alg.power_commutation_identity(4, 3))
print()
print("Central powers: e1^l, e2^l, e3^l and z commute with everything.")
for gname in ("e1", "e2", "e3"):
    g = alg.generator(gname)
    print("  %s^%d central: %s   %s^%d central: %s" % (
        gname, ctx.l, alg.is_central(g ** ctx.l),
        gname, ctx.l - 1, alg.is_central(g ** (ctx.l - 1)),
    ))
