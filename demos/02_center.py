#!/usr/bin/env python3
# The center: the distinguished central element z1 built from the normal
# element zt, the kernel-lattice computation behind the center of the
# associated q-commuting polynomial algebra, and the measured commutators of
# the bracket expression zp.

from uqb2 import field_init, PBWAlgebra
from uqb2 import lattice, structure

for m in (5, 6, 8):
    ctx = field_init(m)
    alg = PBWAlgebra(ctx)
    print("m = %d (l = %d)" % (m, ctx.l))
    zt = structure.named(alg, "z_tilde")
    print("  zt =", zt)
    z1 = structure.named(alg, "z_one")
    print("  z1 =", z1)
    print("  z1 central:", alg.is_central(z1))
    print("  both displayed forms of z1 agree:",
          z1 == structure.z_one_ordered_form(alg))
    rep = structure.center_report(alg)
    print("  centrality survey:", rep["central"])
    if rep["zp_witness"]:
        print("  zp commutator witness:", rep["zp_witness"])
    print()

# The center of the associated q-commuting polynomial algebra is read off a
# kernel lattice: points of Z^4 with H v == 0 (mod l).  The minimal
# generators are l*e_i and the minimal residues mod l of the lattice points.
H = lattice.NAMED_MATRICES["qaspace"]
for l in (3, 5):
    print("kernel semigroup generators at l = %d:" % l)
    for v in lattice.nonneg_hilbert_basis(H, l):
        print("   ", v)
