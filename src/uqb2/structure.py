"""Derived structural elements and their commutation properties.

``named`` evaluates the distinguished elements of ``pbw.DEFINITIONS`` on the
generators.  This module verifies the normal-element condition for quotient
constructions and centrality both in the full algebra and in the subalgebra
generated by e1, e3, z, zt; ``zt_power_identity(alg, n)`` returns the residuals of the two zt
power-commutation identities for every a = 1..n in one pass.
"""

from __future__ import annotations

from .pbw import DEFINITIONS, GENERATOR_NAMES, evaluate_letters


def named(alg, name):
    """PBW normal form of the element ``pbw.DEFINITIONS`` defines under ``name``."""
    for rel in DEFINITIONS:
        if rel.name == name:
            images = dict(zip(GENERATOR_NAMES, alg.generators()))
            return evaluate_letters((rel.terms[0][1],), images, alg.ctx)[0]
    raise ValueError("unknown named element %r" % (name,))


def z_one_ordered_form(alg):
    """The alternative expansion e1 e2 e3 + e1 z/(q^2-1) + e3^2/(q^4-1)."""
    ctx = alg.ctx
    e1 = alg.generator("e1")
    e2 = alg.generator("e2")
    e3 = alg.generator("e3")
    z = alg.generator("z")
    return (
        e1 * e2 * e3
        + e1 * z * (ctx.q_pow(2) - 1).invert()
        + e3 * e3 * (ctx.q_pow(4) - 1).invert()
    )


def gwa_condition(alg, rho, alpha, b, sigma_spec):
    """Check the normal-element equation rho*alpha - sigma(alpha) = b.

    ``sigma_spec`` maps generator names to the scalar by which the diagonal
    automorphism rescales them; ``alpha`` must be a polynomial in exactly
    those generators.
    """
    ctx = alg.ctx
    rho = ctx.scalar(rho)
    sigma_terms = {}
    for key, co in alpha.terms.items():
        factor = ctx.one
        for gname, e in zip(alg.NAMES, key):
            if not e:
                continue
            if gname not in sigma_spec:
                raise ValueError(
                    "alpha involves %s, which sigma does not act on" % gname
                )
            factor = factor * ctx.scalar(sigma_spec[gname]) ** e
        sigma_terms[key] = co * factor
    sigma_alpha = alg.element(sigma_terms)
    return (rho * alpha - sigma_alpha - b).is_zero()


def zt_power_identity(alg, n):
    """Residual pairs of the two power-commutation identities against zt.

    The pair at index a - 1 holds, for a = 1..n,

    1: e1^a zt - zt e1^a - [(1-q^-4a)/(1-q^-4)] e3^2 e1^(a-1)
    2: e1 zt^a - zt^a e1 - [(1-q^4a)/(1-q^4)] e3^2 zt^(a-1)

    e1^a and zt^a are carried from one a to the next.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ctx = alg.ctx
    e1 = alg.generator("e1")
    e3 = alg.generator("e3")
    zt = named(alg, "z_tilde")
    e3sq = e3 * e3
    e1a = zta = alg.unit()
    out = []
    for a in range(1, n + 1):
        e1prev, ztprev = e1a, zta
        e1a = e1prev * e1
        zta = ztprev * zt
        out.append((
            e1a * zt - zt * e1a - ctx.q_bracket(a, -4) * (e3sq * e1prev),
            e1 * zta - zta * e1 - ctx.q_bracket(a, 4) * (e3sq * ztprev),
        ))
    return out


def center_report(alg):
    """Centrality survey of the distinguished elements.

    The elements e1^l, e2^l, e3^l, z and z1 are expected to be central; the
    commutators of zp are measured and reported as computed.  Centrality in
    the e1/e3/z/zt subalgebra is checked against all four of its generators.
    """
    l = alg.ctx.l
    e1, e2, e3, z = alg.generators()
    zt = named(alg, "z_tilde")
    e1l = e1 ** l
    e3l = e3 ** l
    witness = alg.commutator_witness(named(alg, "z_prime"))
    full = {
        "e1^l": alg.is_central(e1l),
        "e2^l": alg.is_central(e2 ** l),
        "e3^l": alg.is_central(e3l),
        "z": alg.is_central(z),
        "z1": alg.is_central(named(alg, "z_one")),
        "zp": witness is None,
    }
    sub = {
        label: all(not alg.commutator(x, g) for g in (e1, e3, z, zt))
        for label, x in (("z", z), ("e1^l", e1l), ("e3^l", e3l), ("zt^l", zt ** l))
    }
    if witness is not None:
        gname, key, coeff = witness
        witness = {"against": gname, "monomial": key, "coeff": repr(coeff)}
    return {"central": full, "zp_witness": witness, "subalgebra_central": sub}
