"""The failure paths of the conformance ledger, each driven by one broken check."""

import json

from uqb2 import cli, conformance, pbw, repmod, structure


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


def _double_z_in_z_tilde(monkeypatch):
    """Double the z coefficient of the z_tilde definition, so that z1 acts
    on no full module as a scalar."""
    (i, zt), = ((i, r) for i, r in enumerate(pbw.DEFINITIONS) if r.name == "z_tilde")
    *rest, (coeff, word) = zt.terms
    assert word == "z"
    broken = zt._replace(terms=(*rest, ({e: 2 * c for e, c in coeff.items()}, word)))
    monkeypatch.setattr(pbw, "DEFINITIONS", pbw.DEFINITIONS[:i] + (broken,) + pbw.DEFINITIONS[i + 1:])


def test_non_scalar_character_fails_its_check_and_exits_1(monkeypatch, capsys):
    # the doubled z coefficient: the module-family check fails and names
    # every full family, where central_character's ArithmeticError used to
    # end the run (exit 2)
    _double_z_in_z_tilde(monkeypatch)
    failing = _failing(conformance.run_conformance(5))
    assert failing["module_families_relations_simplicity_characters"]["detail"] == "V1p,V2p,V3p,V4p"
    assert cli.main(["conformance", "--m", "5"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["all_pass"] is False
    assert "module_families_relations_simplicity_characters" in _failing(report)


def test_character_of_a_non_scalar_element_exits_1(monkeypatch, capsys):
    # the same defect through ``uqb2 character``: a failed check that names
    # z1 (exit 1), where it was reported as a usage error (exit 2); input
    # that divides by zero is still a usage error
    _double_z_in_z_tilde(monkeypatch)
    argv = ["character", "--m", "5", "--family", "V1p", "--params"]
    assert cli.main(argv + ["1,1,1,0"]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["characters"] is None and err == ""
    assert report["failure"] == "z1 failed to act as a scalar"
    assert cli.main(argv + ["1,1,1/0,0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
