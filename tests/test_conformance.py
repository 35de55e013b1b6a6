"""The failure paths of the conformance ledger, each driven by one broken check."""

import json

from uqb2 import cli, conformance, repmod, structure


def _failing(report):
    return {c["name"]: c for c in report["checks"] if not c["pass"]}


def test_nonzero_zt_residual_fails_the_ledger_and_exits_1(monkeypatch, capsys):
    real = structure.zt_power_identity

    def broken(alg, n):
        pairs = real(alg, n)
        r1, r2 = pairs[-1]
        pairs[-1] = (r1, r2 + alg.generator("e3"))
        return pairs

    monkeypatch.setattr(structure, "zt_power_identity", broken)
    assert cli.main(["conformance", "--m", "5"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert list(_failing(report)) == ["zt_power_identities"]
    assert report["all_pass"] is False


def test_non_simple_certificate_names_its_family(monkeypatch):
    real = repmod.is_simple

    def broken(rep):
        cert = real(rep)
        if rep.family == "V3p":
            return repmod.SimplicityCertificate(False, cert.span_dim - 1, cert.path)
        return cert

    monkeypatch.setattr(repmod, "is_simple", broken)
    failing = _failing(conformance.run_conformance(5))
    assert list(failing) == ["module_families_relations_simplicity_characters"]
    assert failing["module_families_relations_simplicity_characters"]["detail"] == "V3p"


def test_subalgebra_family_annihilation_pattern_is_checked(monkeypatch):
    # V2 modules have e1^l acting as 0, like the V2p modules built on them
    real = repmod.central_character

    def broken(rep):
        chars = real(rep)
        if rep.family == "V2":
            chars["e1^l"] = rep.ctx.one
        return chars

    monkeypatch.setattr(repmod, "central_character", broken)
    failing = _failing(conformance.run_conformance(5))
    assert list(failing) == ["module_families_relations_simplicity_characters"]
    assert failing["module_families_relations_simplicity_characters"]["detail"] == "V2"
