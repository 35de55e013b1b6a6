"""One-shot conformance run: every contracted check for a fixed field order.

``run_conformance(m)`` exercises the engine, the torus realization, the
lattice toolkit, the module families and the classification machinery, and
returns a machine-readable ledger.  Checks are pass/fail; measured outcomes
that are reported rather than asserted (the bracket-expression commutators,
the embedded-bracket comparison, the non-isomorphy of q-shifted parameter
variants) are collected under ``info``.
"""

from __future__ import annotations

from . import expr, isoclass, lattice, repmod, structure, torus
from .cyclotomic import field_init
from .pbw import PBWAlgebra


def _sample_params(ctx, family):
    q = ctx.q
    pools = {
        "V1": [(1, 1, 1, 0), (q, q ** 2, 2, q ** 3)],
        "V2": [(1, 1, 1), (q ** 2, 2, q)],
        "V3": [(1, 1), (q, 2)],
        "V4p": [(1, 1, 0), (q, 0, q ** 2)],
    }
    pool = pools[repmod.base_family(family)]
    return [repmod.module_params(ctx, family, *vals) for vals in pool]


def _checks(ctx, alg, info):
    """Each contracted check in ledger order, as (name, pass) or (name, pass,
    detail); measured outcomes are appended to ``info`` on the way."""
    l = ctx.l
    # normal-form engine
    serre = alg.serre_residuals()
    yield ("serre_relations_normal_form_to_zero", all(r.is_zero() for r in serre.values()))

    ok = True
    for index in (1, 2, 3, 4):
        for k in range(2 if index == 4 else 1, 2 * l + 1):
            if not alg.power_commutation_identity(index, k).is_zero():
                ok = False
    yield ("power_commutation_identities", ok)

    e1, e2, e3, z = alg.generators()
    rep = structure.center_report(alg)
    central_ok = (
        all(rep["central"][key] for key in ("e1^l", "e2^l", "e3^l", "z", "z1"))
        and not alg.is_central(e1 ** (l - 1))
        and not alg.is_central(e2 ** (l - 1))
    )
    yield ("central_elements_with_negative_controls", central_ok)
    yield ("subalgebra_central_elements", all(rep["subalgebra_central"].values()))
    info.append({
        "name": "bracket_expression_commutators",
        "central": rep["central"]["zp"],
        "witness": rep["zp_witness"],
    })

    zt_ok = all(not r1 and not r2 for r1, r2 in structure.zt_power_identity(alg, 2 * l))
    yield ("zt_power_identities", zt_ok)

    q2 = ctx.q_pow(2)
    gwa_ok = (
        structure.gwa_condition(alg, q2, z * (q2 - 1).invert(), z, {"z": ctx.one})
        and structure.gwa_condition(
            alg,
            ctx.one,
            (e3 * e3) * (ctx.one - ctx.q_pow(-4)).invert(),
            e3 * e3,
            {"z": ctx.one, "e3": ctx.q_pow(-2)},
        )
        and not structure.gwa_condition(alg, q2, z, z, {"z": ctx.one})
    )
    yield ("normal_element_equations", gwa_ok)

    z1 = structure.named(alg, "z_one")
    yield ("z1_two_forms_agree", z1 == structure.z_one_ordered_form(alg))

    emb = torus.verify_embedding(ctx)
    yield ("embedding_relations_vanish", emb["all_relations_hold"])
    info.append({
        "name": "embedded_bracket_vs_X2X4X1",
        "equal": emb["zp_image_matches"],
        "difference_terms": len(emb["zp_difference"].terms),
    })
    yield ("affine_center_monomials_commute", all(torus.affine_center_checks(ctx).values()))

    snf_ok = True
    for name in ("uqb2", "balg"):
        H = lattice.NAMED_MATRICES[name]
        snf, degree = lattice.smith_form_and_pi_degree(H, ctx.m)
        if snf.diag != (2, 2, 0, 0) or degree != l:
            snf_ok = False
        if abs(lattice.determinant(snf.U)) != 1 or abs(lattice.determinant(snf.V)) != 1:
            snf_ok = False
    yield ("invariant_factors_and_pi_degree", snf_ok)

    expected = sorted([(l, 0, 0, 0), (0, l, 0, 0), (0, 0, l, 0), (0, 0, 0, 1), (1, 1, 1, 0)])
    hb = lattice.nonneg_hilbert_basis(lattice.NAMED_MATRICES["qaspace"], l)
    yield ("kernel_semigroup_generators", hb == expected)

    fam_detail = []
    for family in repmod.FAMILIES:
        for params in _sample_params(ctx, family):
            r = repmod.build(ctx, params)
            v = repmod.verify_relations(r)
            cert = repmod.is_simple(r)
            chars = repmod.central_character(r)
            good = (
                v["all_zero"]
                and r.dim == repmod.module_dimension(ctx, family)
                and cert.simple
                and cert.span_dim == r.dim ** 2
            )
            # the annihilation pattern of the family, which a primed family
            # shares with the subalgebra family it extends
            base = repmod.base_family(family)
            if base == "V2" and (chars["e1^l"] or not chars["e3^l"] or not chars["zt^l"]):
                good = False
            if base == "V3" and (chars["e1^l"] or chars["zt^l"] or not chars["e3^l"]):
                good = False
            if base == "V4p" and chars["e3^l"]:
                good = False
            if base == "V1" and (not chars["e1^l"] or not chars["e3^l"]):
                good = False
            if not good and family not in fam_detail:
                fam_detail.append(family)
    yield ("module_families_relations_simplicity_characters", not fam_detail, ",".join(fam_detail))

    iso_ok = True
    shifted_not_iso = True
    for family in ("V1p", "V2p", "V3p", "V4p"):
        pa, pb = _sample_params(ctx, family)
        for x, y in ((pa, pa), (pa, pb)):
            verdict = isoclass.isomorphism_verdict(ctx, x, y)
            if verdict.isomorphic != (verdict.intertwiner is not None):
                iso_ok = False
        # q-shifted parameter variants: checked to NOT be isomorphisms
        if family != "V1p" and l > 2:
            q = ctx.q_pow
            if family == "V2p":
                shifted = repmod.module_params(ctx, family, pa.alpha, q(2) * pa.beta, pa.gamma)
            elif family == "V3p":
                shifted = repmod.module_params(ctx, family, q(2) * pa.alpha, pa.beta)
            else:
                shifted = repmod.module_params(
                    ctx, family, ctx.q_bracket(2, 2) * pa.alpha, q(-2) * pa.beta, pa.gamma
                )
            verdict = isoclass.isomorphism_verdict(ctx, shifted, pa)
            if verdict.isomorphic != (verdict.intertwiner is not None):
                iso_ok = False
            if verdict.isomorphic or verdict.intertwiner is not None:
                shifted_not_iso = False
    yield ("classification_predicate_matches_solver", iso_ok)
    info.append({
        "name": "q_shifted_parameter_variants",
        "non_isomorphic_confirmed_by_solver": shifted_not_iso,
    })

    samples = ("e2*e1", "e2^2*e1", "e1*e2 - q^2*e2*e1", "zt*e1 - e1*zt + e3^2", "z1")
    parser_ok = True
    for src in samples:
        x = expr.evaluate(src, alg)
        if expr.evaluate(expr.to_src(x), alg) != x:
            parser_ok = False
    yield ("parser_round_trip", parser_ok)


def run_conformance(m):
    ctx = field_init(m)
    checks = []
    info = []
    for name, ok, *detail in _checks(ctx, PBWAlgebra(ctx), info):
        entry = {"name": name, "pass": bool(ok)}
        if any(detail):
            entry["detail"] = detail[0]
        checks.append(entry)
    all_pass = all(c["pass"] for c in checks)
    return {"m": m, "l": ctx.l, "checks": checks, "info": info, "all_pass": all_pass}
