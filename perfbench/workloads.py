"""The benchmark's three workloads: seeded inputs, requests and references.

A workload is a list of ``Request``s.  ``run`` is the timed call into uqb2's
public API; ``check`` compares its output with a reference that does not come
from the code path under test, and runs outside the timed region.  Every
call into uqb2 looks its target up through the module at call time, so the
tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from uqb2 import cli, conformance, isoclass, repmod, torus
from uqb2.cyclotomic import field_init


@dataclass
class Request:
    label: str  # groups requests in reports, e.g. "nf m=12"
    run: Callable[[], object]
    check: Callable[[object], bool]


def _l(m):
    return m if m % 2 else m // 2


# -- conformance-sweep -------------------------------------------------------

SWEEP_MS = (5, 7, 8, 12, 16, 20)

CONFORMANCE_CHECKS = (
    "serre_relations_normal_form_to_zero",
    "power_commutation_identities",
    "central_elements_with_negative_controls",
    "subalgebra_central_elements",
    "zt_power_identities",
    "normal_element_equations",
    "z1_two_forms_agree",
    "embedding_relations_vanish",
    "affine_center_monomials_commute",
    "invariant_factors_and_pi_degree",
    "kernel_semigroup_generators",
    "module_families_relations_simplicity_characters",
    "classification_predicate_matches_solver",
    "parser_round_trip",
)

# m -> (l, whether q^4 = -1): the bracket expression zp is central, and its
# torus image equals X2*X4*X1, exactly when q^4 = -1, i.e. at m = 8
CONFORMANCE_EXPECTED = {
    5: (5, False),
    7: (7, False),
    8: (4, True),
    12: (6, False),
    16: (8, False),
    20: (10, False),
}


def _check_conformance(m, report):
    l, q4_is_minus_one = CONFORMANCE_EXPECTED[m]
    info = {entry["name"]: entry for entry in report["info"]}
    bracket = info["bracket_expression_commutators"]
    embedded = info["embedded_bracket_vs_X2X4X1"]
    return (
        report["m"] == m
        and report["l"] == l
        and report["all_pass"] is True
        and tuple(c["name"] for c in report["checks"]) == CONFORMANCE_CHECKS
        and all(c["pass"] is True for c in report["checks"])
        and bracket["central"] is q4_is_minus_one
        and (bracket["witness"] is None) is q4_is_minus_one
        and embedded["equal"] is q4_is_minus_one
        and (embedded["difference_terms"] == 0) is q4_is_minus_one
        and info["q_shifted_parameter_variants"]["non_isomorphic_confirmed_by_solver"] is True
    )


def conformance_sweep(rng):
    """One request per m; the seed fixes only the order."""
    ms = list(SWEEP_MS)
    rng.shuffle(ms)
    return [
        Request(
            "conformance m=%d" % m,
            lambda m=m: conformance.run_conformance(m),
            lambda report, m=m: _check_conformance(m, report),
        )
        for m in ms
    ]


# -- nf-stream ---------------------------------------------------------------

NF_MS = (5, 6, 7, 8, 10, 12, 16, 20, 24, 30)
NF_PER_M = 100  # 70 nf and 30 central requests per m, 1000 per pass
ATOMS = ("e1", "e2", "e3", "z", "zt", "z1")


def _gen(rng, l, central):
    k = rng.choice((l, 2 * l)) if central else rng.randint(1, 2 * l)
    return ("gen", rng.choice(("e1", "e2", "e3")), k)


def _sum(rng, m, central):
    atoms = ["z", "z1"] if central else rng.sample(ATOMS, rng.randint(2, 3))
    return ("sum", [(rng.randrange(1, m) if rng.random() < 0.5 else None, a) for a in atoms],
            rng.randint(2, 4))


def _expression(rng, m, central):
    """Factors ("gen", name, k) and ("sum", [(q exponent or None, atom)], power).

    Every expression has one sum factor, between the generator powers when
    there are two: a sum raised to a power times a large product such as
    e2^14*e1^28 takes seconds where the other requests take milliseconds.
    With ``central`` every factor is central (e_i^l, e_i^2l and sums of z
    and z1), so that some centrality verdicts are true.
    """
    l = _l(m)
    middle = _sum(rng, m, central)
    if rng.random() < 0.5:
        return [_gen(rng, l, central), middle, _gen(rng, l, central)]
    if rng.random() < 0.5:
        return [middle, _gen(rng, l, central)]
    return [_gen(rng, l, central), middle]


def _render(factors):
    parts = []
    for f in factors:
        if f[0] == "gen":
            parts.append("%s^%d" % (f[1], f[2]))
        else:
            body = " + ".join(("q^%d*%s" % (a, atom)) if a else atom for a, atom in f[1])
            parts.append("(%s)^%d" % (body, f[2]))
    return "*".join(parts)


def _is_prime(n):
    if n < 2 or n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# a prime p = 1 (mod 1680), so F_p holds a primitive m-th root of unity for
# every m of the stream (1680 is the lcm of NF_MS)
P = next(p for p in range(1680 * (2 ** 30 // 1680) + 1, 2 ** 31, 1680) if _is_prime(p))


def _prime_factors(n):
    return {f for f in range(2, n + 1) if n % f == 0 and _is_prime(f)}


class TorusModP:
    """Images in the rank-4 quantum torus over F_p, without the PBW engine.

    q is sent to a primitive m-th root of unity r in F_p; this is a ring map
    from Q(zeta_m), so equal elements have equal images, and unequal ones
    collide only with probability about 1/p.  Elements are dicts from
    exponent tuples to residues, multiplied with the commutation matrix of
    ``torus.TORUS_COMMUTATION``.  The generator images come from
    ``torus.embedding_image``; zt and z1 are expanded from their definitions
    zt = e2*e3 + z/(q^2-1) and z1 = e1*zt + e3^2/(q^4-1).
    """

    def __init__(self, m):
        self.m = m
        x = 2
        while True:
            r = pow(x, (P - 1) // m, P)
            if all(pow(r, m // f, P) != 1 for f in _prime_factors(m)):
                break
            x += 1
        self.rpow = [pow(r, k, P) for k in range(m)]
        self.skew = torus.TORUS_COMMUTATION
        exact = torus.quantum_torus(field_init(m))
        img = {
            g: {e: self.scalar(c.coeffs) for e, c in torus.embedding_image(exact, g).terms.items()}
            for g in ("e1", "e2", "e3", "z")
        }
        inv_q2m1 = pow(self.rpow[2] - 1, -1, P)
        inv_q4m1 = pow(self.rpow[4 % m] - 1, -1, P)
        img["zt"] = self.add(self.mul(img["e2"], img["e3"]), self.scale(img["z"], inv_q2m1))
        img["z1"] = self.add(
            self.mul(img["e1"], img["zt"]), self.scale(self.mul(img["e3"], img["e3"]), inv_q4m1)
        )
        self.img = img

    def scalar(self, coords):
        """Residue of sum c_t q^t for rational coordinates (Fractions or strings)."""
        total = 0
        for t, c in enumerate(coords):
            c = Fraction(c)
            if c:
                total += c.numerator * pow(c.denominator, -1, P) * self.rpow[t]
        return total % P

    def add(self, x, y):
        out = dict(x)
        for e, c in y.items():
            s = (out.get(e, 0) + c) % P
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return out

    def scale(self, x, c):
        return {e: v * c % P for e, v in x.items()}

    def mul(self, x, y):
        skew, rpow, m = self.skew, self.rpow, self.m
        xs = list(x.items())
        out = {}
        for eb, cb in y.items():
            # X^ea X^eb = q^k X^(ea+eb), k = sum over v < u of skew[u][v]*ea[u]*eb[v],
            # which is linear in ea with coefficients z
            z0, z1, z2, z3 = (sum(skew[u][v] * eb[v] for v in range(u)) for u in range(4))
            for ea, ca in xs:
                k = ea[0] * z0 + ea[1] * z1 + ea[2] * z2 + ea[3] * z3
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
                out[e] = (out.get(e, 0) + ca * cb * rpow[k % m]) % P
        return {e: c for e, c in out.items() if c}

    def power(self, x, n):
        out = {(0, 0, 0, 0): 1}
        for _ in range(n):
            out = self.mul(out, x)
        return out

    def fold(self, factors):
        """Image of the product the factors describe."""
        out = {(0, 0, 0, 0): 1}
        for f in factors:
            if f[0] == "gen":
                value = self.power(self.img[f[1]], f[2])
            else:
                value = {}
                for a, atom in f[1]:
                    value = self.add(value, self.scale(self.img[atom], self.rpow[a]) if a else self.img[atom])
                value = self.power(value, f[2])
            out = self.mul(out, value)
        return out

    def of_terms(self, terms):
        """Image of sum c * z^i e3^j e1^k e2^n, by Horner's rule in the e2 image."""
        by_n = {}
        for t in terms:
            # z^i e3^j e1^k -> X3^i X2^j X1^k, brought to the order X1 X2 X3
            mono = self.mul(self.mul({(0, 0, t["i"], 0): self.scalar(t["coeff"])},
                                     {(0, t["j"], 0, 0): 1}), {(t["k"], 0, 0, 0): 1})
            by_n[t["n"]] = self.add(by_n.get(t["n"], {}), mono)
        out = {}
        for n in range(max(by_n, default=0), -1, -1):
            out = self.add(self.mul(out, self.img["e2"]), by_n.get(n, {}))
        return out


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _check_nf(refs, m, command, src, factors, output):
    code, text = output
    if code != 0:
        return False
    doc = json.loads(text)
    if doc["m"] != m or doc["expr"] != src:
        return False
    ref = refs.get(m)
    if ref is None:
        ref = refs[m] = TorusModP(m)
    image = ref.fold(factors)
    if command == "nf":
        return ref.of_terms(doc["terms"]) == image
    if doc["central"] is not True:
        return doc["central"] is False and doc["witness"] is not None
    return all(ref.mul(image, ref.img[g]) == ref.mul(ref.img[g], image) for g in ("e1", "e2"))


def nf_stream(rng):
    """NF_PER_M requests per m, 70% nf and 30% central, in a seeded order."""
    refs = {}  # m -> TorusModP, built on first use by a check
    out = []
    for m in NF_MS:
        for i in range(NF_PER_M):
            command = "nf" if i < NF_PER_M * 7 // 10 else "central"
            factors = _expression(rng, m, command == "central" and rng.random() < 0.5)
            src = _render(factors)
            argv = [command, "--m", str(m), src]
            out.append(Request(
                "%s m=%d" % (command, m),
                lambda argv=argv: _cli(argv),
                lambda output, m=m, c=command, s=src, f=factors: _check_nf(refs, m, c, s, f, output),
            ))
    rng.shuffle(out)
    return out


# -- module-certs ------------------------------------------------------------

CERT_MS = (5, 7, 8, 12, 16)
CERT_DRAWS = 3  # parameter draws per m and family; their costs differ, so a pass averages over several
SUM_MAX_DIM = 6  # direct sums only of summands up to this dimension
SUBALGEBRA = ("V1", "V2", "V3")

# index of the parameter that is the scalar by which z acts
Z_SLOT = {"V1": 2, "V2": 2, "V3": 1, "V1p": 2, "V2p": 2, "V3p": 1, "V4p": 0}
ARITY = {"V1": 4, "V2": 3, "V3": 2, "V1p": 4, "V2p": 3, "V3p": 2, "V4p": 3}


def _dim(m, family):
    """Module dimension by construction: ord(q^4) for V3-type, l otherwise."""
    return m // math.gcd(m, 4) if family in ("V3", "V3p") else _l(m)


def _isomorphic_values(rng, ctx, family, values):
    """Parameters of a module isomorphic to the one built from ``values``.

    V1-type modules are shifted by a witness p of the predicate: beta by
    q^(-2p), delta by [p]_(-4) beta^2, and alpha by an l-th root of unity.
    V2-type modules take alpha times q^(2p).  V3- and V4-type parameters
    are invariants, so an equal tuple is the only choice.
    """
    p = rng.randrange(ctx.l)
    values = list(values)
    if family in ("V1", "V1p"):
        alpha, beta, gamma, delta = values
        bracket = ctx.q_bracket(p, -4) if p else ctx.zero
        return [alpha * ctx.q_pow(2 * rng.randrange(ctx.l)), ctx.q_pow(-2 * p) * beta,
                gamma, delta + bracket * beta * beta]
    if family in ("V2", "V2p"):
        return [ctx.q_pow(2 * p) * values[0]] + values[1:]
    return values


def _annihilation_pattern(family, chars, z):
    """The pattern conformance asserts, and z acting by its parameter."""
    full = family not in SUBALGEBRA
    keys = {"e1^l", "e3^l", "zt^l", "z"} | ({"e2^l", "z1"} if full else set())
    if set(chars) != keys or chars["z"] != z:
        return False
    kind = family.rstrip("p")
    if kind == "V1":
        return bool(chars["e1^l"]) and bool(chars["e3^l"])
    if kind == "V2":
        return not chars["e1^l"] and bool(chars["e3^l"]) and bool(chars["zt^l"])
    if kind == "V3":
        return not chars["e1^l"] and not chars["zt^l"] and bool(chars["e3^l"])
    return not chars["e3^l"]  # V4


def _check_intertwiner(ctx, p1, p2, T):
    # a nonzero intertwiner between simple modules is an isomorphism (Schur)
    if T is None or not any(c for row in T for c in row):
        return False
    return isoclass.intertwines(repmod.build(ctx, p1), repmod.build(ctx, p2), T)


def _cert_requests(rng, m, family):
    ctx = field_init(m)
    d = _dim(m, family)

    def scalar():
        return ctx.q_pow(rng.randrange(m))

    values = [scalar() for _ in range(ARITY[family])]
    p1 = repmod.module_params(ctx, family, *values)
    p_iso = repmod.module_params(ctx, family, *_isomorphic_values(rng, ctx, family, values))
    other = list(values)
    other[Z_SLOT[family]] = 2 * values[Z_SLOT[family]]  # z acts by another scalar
    p_other = repmod.module_params(ctx, family, *other)
    z = values[Z_SLOT[family]]
    tag = "m=%d %s" % (m, family)

    def simple(*params):
        if len(params) == 1:
            r = repmod.build(ctx, params[0])
        else:
            r = repmod.direct_sum(repmod.build(ctx, params[0]), repmod.build(ctx, params[1]))
        cert = repmod.is_simple(r)
        return cert.simple, cert.span_dim

    out = [
        Request("simple " + tag, lambda: simple(p1), lambda res: res == (True, d * d)),
        Request(
            "character " + tag,
            lambda: repmod.central_character(repmod.build(ctx, p1)),
            lambda chars: _annihilation_pattern(family, chars, z),
        ),
        Request(
            "iso " + tag,
            lambda: isoclass.find_intertwiner(repmod.build(ctx, p1), repmod.build(ctx, p_iso)),
            lambda T: _check_intertwiner(ctx, p1, p_iso, T),
        ),
        Request(
            "noniso " + tag,
            lambda: isoclass.find_intertwiner(repmod.build(ctx, p1), repmod.build(ctx, p_other)),
            lambda T: T is None,
        ),
    ]
    if d <= SUM_MAX_DIM:
        out += [
            Request("sum-self " + tag, lambda: simple(p1, p1), lambda res: res == (False, d * d)),
            Request("sum-pair " + tag, lambda: simple(p1, p_other), lambda res: res == (False, 2 * d * d)),
        ]
    return out


def module_certs(rng):
    """Per m, family and draw of parameters: simplicity, central character,
    an isomorphic and a non-isomorphic intertwiner solve, and, for small
    modules, two direct sums."""
    out = []
    for m in CERT_MS:
        for family in repmod.FAMILIES:
            for _ in range(CERT_DRAWS):
                out += _cert_requests(rng, m, family)
    rng.shuffle(out)
    return out


WORKLOADS = {
    "conformance-sweep": conformance_sweep,
    "nf-stream": nf_stream,
    "module-certs": module_certs,
}


def build(name, seed):
    """The requests of one workload; the same seed gives the same inputs."""
    return WORKLOADS[name](random.Random(seed))
