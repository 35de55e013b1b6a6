import argparse
import json
import pathlib
import random
from fractions import Fraction

import pytest

from uqb2 import cli, cyclotomic, expr, lattice, repmod
from uqb2.pbw import PBWAlgebra


def _main(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli(capsys, *argv):
    code, out, err = _main(capsys, list(argv))
    return code, json.loads(out) if out.strip() else None, err


def test_nf_command(capsys):
    code, out, _ = run_cli(capsys, "nf", "--m", "5", "e2*e1")
    assert code == 0
    assert len(out["terms"]) == 2
    # q^-2 = q^3 at m = 5
    assert out["terms"][0] == {"i": 0, "j": 0, "k": 1, "n": 1, "coeff": ["0", "0", "0", "1"]}
    assert out["terms"][1]["coeff"] == ["0", "0", "0", "-1"]


def test_nf_terms_sorted_deterministically(capsys):
    code, out, _ = run_cli(capsys, "nf", "--m", "5", "e2*e2*e1 + z - z")
    assert code == 0
    keys = [(t["i"], t["j"], t["k"], t["n"]) for t in out["terms"]]
    assert keys == sorted(keys)


def test_central_command(capsys):
    code, out, _ = run_cli(capsys, "central", "--m", "5", "e1")
    assert code == 0
    assert out["central"] is False
    assert out["witness"]["against"] in ("e1", "e2")
    code, out, _ = run_cli(capsys, "central", "--m", "5", "e1^5")
    assert code == 0
    assert out["central"] is True and out["witness"] is None
    code, out, _ = run_cli(capsys, "central", "--m", "5", "z1")
    assert out["central"] is True


def test_pideg_named_matrix(capsys):
    code, out, _ = run_cli(capsys, "pideg", "--m", "8", "--matrix", "uqb2")
    assert code == 0
    assert out == {
        "m": 8,
        "matrix": "uqb2",
        "invariant_factors": [2, 2, 0, 0],
        "pi_degree": 4,
    }


def test_pideg_matrix_file(tmp_path, capsys):
    path = tmp_path / "H.txt"
    path.write_text("0 2 -2 0\n-2 0 2 0\n2 -2 0 0\n0 0 0 0\n")
    code, out, _ = run_cli(capsys, "pideg", "--m", "5", "--matrix", str(path))
    assert code == 0
    assert out["pi_degree"] == 5


@pytest.mark.parametrize("matrix", ["uqb2", "balg", "qaspace"])
def test_pideg_computes_one_smith_form(capsys, monkeypatch, matrix):
    calls = []
    smith_normal_form = lattice.smith_normal_form
    monkeypatch.setattr(lattice, "smith_normal_form", lambda H: calls.append(H) or smith_normal_form(H))
    code, _, _ = run_cli(capsys, "pideg", "--m", "8", "--matrix", matrix)
    assert code == 0
    assert len(calls) == 1


def test_pideg_bad_matrix_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n3\n")
    code, _, err = run_cli(capsys, "pideg", "--m", "5", "--matrix", str(path))
    assert code == 2
    assert "square" in err


def test_build_and_check_module(capsys):
    code, out, _ = run_cli(capsys, "build-module", "--m", "5", "--family", "V4p",
                           "--params", "1,1,0")
    assert code == 0
    assert out["dim"] == 5
    assert set(out["generators"]) == {"e1", "e2", "e3", "z"}
    code, out, _ = run_cli(capsys, "check-module", "--m", "5", "--family", "V4p",
                           "--params", "1,1,0")
    assert code == 0
    assert out["all_zero"] is True


def test_simple_and_character(capsys):
    code, out, _ = run_cli(capsys, "simple", "--m", "5", "--family", "V1p",
                           "--params", "1,1,1,0")
    assert code == 0
    assert out["simple"] is True and out["certificate"] == 25
    assert out["path"] == "modular"
    code, out, _ = run_cli(capsys, "character", "--m", "5", "--family", "V2p",
                           "--params", "q,2,1")
    assert code == 0
    assert out["characters"]["e1^l"]["zero"] is True
    assert out["characters"]["e3^l"]["zero"] is False


def test_simple_at_a_large_order(capsys):
    # d = 41: Norton's test certifies without the d^4-entry word closure
    code, out, _ = run_cli(capsys, "simple", "--m", "41", "--family", "V1p",
                           "--params", "1,1,1,0")
    assert code == 0
    assert out["simple"] is True and out["certificate"] == 1681
    assert out["path"] == "modular"


def test_character_scalar_params_grammar(capsys):
    code, out, _ = run_cli(capsys, "character", "--m", "5", "--family", "V1p",
                           "--params", "1,q^-2,1/2,q^2-1")
    assert code == 0
    assert out["characters"]["z"]["zero"] is False


def test_iso_command(capsys):
    code, out, _ = run_cli(capsys, "iso", "--m", "5", "--family", "V1p",
                           "--params1", "1,q^-2,1,1", "--params2", "1,1,1,0")
    assert code == 0
    assert out["isomorphic"] is True
    assert out["witness_p"] == 1
    assert out["intertwiner"] is not None
    code, out, _ = run_cli(capsys, "iso", "--m", "5", "--family", "V2p",
                           "--params1", "1,1,1", "--params2", "1,1,q")
    assert code == 0
    assert out["isomorphic"] is False and out["intertwiner"] is None


def test_center_report_command(capsys):
    code, out, _ = run_cli(capsys, "center-report", "--m", "5")
    assert code == 0
    assert out["all_contracted_pass"] is True
    assert out["central"]["z1"] is True
    assert out["central"]["zp"] is False  # reported as computed
    assert out["zp_witness"]["against"] == "e1"


def test_torus_check_command(capsys):
    code, out, _ = run_cli(capsys, "torus-check", "--m", "6")
    assert code == 0
    assert out["all_contracted_pass"] is True
    assert all(out["relation_images_zero"].values())
    assert out["bracket_image_equals_X2X4X1"] is False


def test_conformance_command(capsys):
    code, out, _ = run_cli(capsys, "conformance", "--m", "6")
    assert code == 0
    assert out["all_pass"] is True
    names = {c["name"] for c in out["checks"]}
    assert "serre_relations_normal_form_to_zero" in names
    assert "classification_predicate_matches_solver" in names


def test_usage_errors_exit_2(capsys):
    code, out, err = run_cli(capsys, "nf", "--m", "5", "e1 +")
    assert code == 2 and out is None and "error" in err
    code, out, err = run_cli(capsys, "nf", "--m", "4", "e1")
    assert code == 2
    code, out, err = run_cli(capsys, "build-module", "--m", "5", "--family", "V2p",
                             "--params", "0,1,1")
    assert code == 2 and "nonzero" in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_digit_glued_to_a_name_is_a_usage_error(capsys):
    for expression, word in (("e12", "e12"), ("q2*e1", "q2"), ("e1 + z12", "z12"), ("zt2", "zt2")):
        code, out, err = run_cli(capsys, "nf", "--m", "5", expression)
        assert code == 2 and out is None, expression
        assert "unknown identifier %r" % word in err and err.count("\n") == 1, expression
    code, out, _ = run_cli(capsys, "nf", "--m", "5", "e1 2")
    assert code == 0 and out["terms"] == [
        {"i": 0, "j": 0, "k": 1, "n": 0, "coeff": ["2", "0", "0", "0"]}
    ]


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    calls = (
        ["nf", "--m", "7", "e2^2*e1"],
        ["nf", "--m", "five", "e1"],  # argparse rejects it: exit 2
        ["central", "--m", "7", "e1^7"],
    )

    def outputs():
        seen = []
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen

    shared = outputs()
    assert [code for code, _, _ in shared] == [0, 2, 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert outputs() == shared


def test_arithmetic_error_is_a_usage_error(capsys):
    for expression in ("1/0", "e1*(q-q)^-1"):
        code, out, err = run_cli(capsys, "nf", "--m", "5", expression)
        assert code == 2 and out is None
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("argv, explicit", [
    (["nf", "--m", "5", "-e1"], ["nf", "--m", "5", "--", "-e1"]),
    (["nf", "--m", "5", "-q^2*e3*e1"], ["nf", "--m", "5", "--", "-q^2*e3*e1"]),
    (["nf", "-2*e1", "--m", "7"], ["nf", "--m", "7", "--", "-2*e1"]),
    (["central", "--m", "5", "-e1^5"], ["central", "--m", "5", "--", "-e1^5"]),
    (["simple", "--m", "5", "--family", "V3", "--params", "-1,1"],
     ["simple", "--m", "5", "--family", "V3", "--params=-1,1"]),
    (["character", "--m", "7", "--family", "V2p", "--params", "-q,2,-1"],
     ["character", "--m", "7", "--family", "V2p", "--params=-q,2,-1"]),
    (["iso", "--m", "5", "--family", "V3", "--params1", "-1,1", "--params2", "-1,q"],
     ["iso", "--m", "5", "--family", "V3", "--params1=-1,1", "--params2=-1,q"]),
], ids=["nf", "nf-product", "nf-before-m", "central", "params", "params-unit", "params1-params2"])
def test_value_with_a_leading_minus_is_read_as_a_value(capsys, argv, explicit):
    code, out, err = _main(capsys, argv)
    assert (code, out, err) == _main(capsys, explicit)
    assert code == 0 and json.loads(out)["m"] == int(argv[argv.index("--m") + 1])


def test_options_and_tokens_after_a_double_dash_stay_as_they_are(capsys):
    for argv in (["nf", "--m", "5", "--e1"], ["nf", "--m", "5"], ["nf", "--m", "5", "--foo", "-e1"],
                 ["simple", "--m", "5", "--family", "V3", "--params"], ["nf", "--m", "-e1", "e1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == "", argv
    for argv in (["nf", "--m", "5", "-h"], ["nf", "--m", "5", "--help", "-e1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: uqb2 nf")
    argv = ["nf", "--m", "5", "--", "--e1", "-h"]
    assert cli._dash_values(argv) == argv
    code, out, _ = _main(capsys, argv[:-1])
    assert code == 0 and json.loads(out)["expr"] == "--e1"


_EXPR_WORDS = ("e1", "e2", "e3", "z", "z1", "zt", "zp", "q", "q^-2", "2", "1/2", "0", "foo", "e4",
               "1/0", "(e1 - e3)")
_PARAM_PARTS = ("0", "1", "2", "q", "q^-2", "1/2", "-1", "-q", "1/0", "e1", "")
_PIDEG_FILES = {"empty": "", "ragged": "1 2\n3\n", "non-integer": "0 x\n1 0\n",
                "not-antisymmetric": "1 2\n3 4\n", "antisymmetric": "0 2 -2\n-2 0 2\n2 -2 0\n"}


def _random_expr(rng):
    words = []
    for _ in range(rng.randint(1, 4)):
        word = rng.choice(_EXPR_WORDS)
        words.append(word + "^%d" % rng.randint(0, 3) if rng.random() < 0.3 else word)
    text = words[0]
    for word in words[1:]:
        text += rng.choice((" + ", " - ", "*", " ")) + word
    return "-" + text if rng.random() < 0.3 else text


def _random_params(rng, family):
    n = len(repmod._param_spec(family)) + rng.choice((0, 0, 0, -1, 1))
    return ",".join(rng.choice(_PARAM_PARTS if rng.random() < 0.3 else _PARAM_PARTS[1:6])
                    for _ in range(max(n, 1)))


def _random_argv(rng, files):
    """A subcommand, then its options and positional in a random order."""
    command = rng.choice(("nf", "central", "pideg", "build-module", "check-module", "simple",
                          "character", "iso", "center-report", "torus-check"))
    family = rng.choice(repmod.FAMILIES)
    parts = [["--m", str(rng.randint(5, 12))]]
    if command in ("nf", "central"):
        parts.append([_random_expr(rng)])
    elif command == "pideg":
        parts.append(["--matrix", rng.choice((*lattice.NAMED_MATRICES, "missing", *files))])
    elif command == "iso":
        parts += [["--family", family], ["--params1", _random_params(rng, family)],
                  ["--params2", _random_params(rng, family)]]
    elif command not in ("center-report", "torus-check"):
        parts += [["--family", family], ["--params", _random_params(rng, family)]]
    rng.shuffle(parts)
    return [command] + [token for part in parts for token in part]


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_every_accepted_argv_keeps_the_exit_code_contract(capsys, tmp_path, monkeypatch, seed):
    # ROADMAP "Correctness and robustness": 0 pass, 1 a contracted check
    # failed, 2 usage error, on every input argparse accepts
    monkeypatch.chdir(tmp_path)
    for name, text in _PIDEG_FILES.items():
        (tmp_path / name).write_text(text)
    rng = random.Random(seed)
    for _ in range(300):
        argv = _random_argv(rng, _PIDEG_FILES)
        code, out, err = _main(capsys, argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
            assert err.endswith("\n"), argv
        else:
            assert err == "" and out.endswith("}\n"), argv
            assert json.loads(out)["m"] == int(argv[argv.index("--m") + 1]), argv


_FLAT_SUM = "+".join(["e1"] * 1500)


@pytest.mark.parametrize("argv", [
    ["nf", "--m", "5", "--", "(" * 250 + "1" + ")" * 250],
    ["nf", "--m", "5", "--", "-" * 1200 + "e1"],
    ["nf", "--m", "5", "--", _FLAT_SUM],
    ["simple", "--m", "5", "--family", "V1p", "--params", _FLAT_SUM + ",1,1,0"],
], ids=["parentheses", "minus-signs", "flat-sum", "simple-params"])
def test_expression_past_the_nesting_limit_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out is None
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("m", ["-3", "0", "4"])
def test_every_subcommand_rejects_small_m(capsys, m):
    for argv in (
        ["pideg", "--m", m, "--matrix", "uqb2"],
        ["nf", "--m", m, "e1"],
        ["conformance", "--m", m],
        ["simple", "--m", m, "--family", "V1p", "--params", "1,1,1,0"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out is None, argv
        assert err.startswith("error:") and err.count("\n") == 1, argv


def test_order_above_the_cap_is_rejected_before_any_table(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a field table was built for a rejected m")

    monkeypatch.setattr(cyclotomic.FieldContext, "__init__", refuse)
    monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", refuse)
    for m in (cyclotomic.MAX_ORDER + 1, 100000):
        for argv in (["nf", "--m", str(m), "e1"], ["conformance", "--m", str(m)]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out is None, argv
            assert err.startswith("error:") and err.count("\n") == 1, argv


def test_order_at_the_cap_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "nf", "--m", str(cyclotomic.MAX_ORDER), "e2*e1")
    assert code == 0 and len(out["terms"]) == 2


def test_exponent_above_the_cap_is_a_parse_error(capsys):
    for expression in ("e1^99999999999999999999", "q^-%d" % (expr.MAX_EXPONENT + 1)):
        code, out, err = run_cli(capsys, "nf", "--m", "5", expression)
        assert code == 2 and out is None, expression
        assert "exponent exceeds" in err and err.count("\n") == 1, expression
    code, out, _ = run_cli(capsys, "nf", "--m", "5", "e1^%d" % expr.MAX_EXPONENT)
    assert code == 0 and out["terms"][0]["k"] == expr.MAX_EXPONENT


def test_deep_e2_powers_are_answered(capsys):
    # each fills the e2^n e3^j e1^k table more than 900 entries deep
    code, out, _ = run_cli(capsys, "nf", "--m", "5", "e2^%d*e3*e1" % expr.MAX_EXPONENT)
    assert code == 0 and out["terms"]
    code, out, _ = run_cli(capsys, "central", "--m", "997", "e2^997")
    assert code == 0 and out["central"] is True


_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

_JSON_EDGE_CASES = [
    {}, [], (), {"a": {}}, {"a": []}, [[], {}], [[[]]], {"a": {"b": {}}},
    "plain", "é ü   \U0001f600", "quote \" backslash \\ newline \n tab \t nul \x00",
    ["é", "\x1f", ""], True, False, None, [True, False, None], {"t": True, "f": False, "n": None},
    (1, 2), {"x": (1, ("a", "b"))}, [("a", "b"), ("c",), ()],
    {1: "a", 2: [True]}, {"a": {1: 2}}, {True: 1}, {None: [1]},
    0, -5, 10 ** 40, [-(10 ** 40), 0], 1.5, [0.1, -2.0], {"deep": [{"b": [1, {"c": {"d": []}}]}]},
]


def _main_writes(monkeypatch, capsys, m, payload):
    """What ``cli.main`` writes for a command whose answer is ``payload``."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--m", type=int)
    parser.set_defaults(fn=lambda args: (payload, True))
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    assert cli.main(["--m", str(m)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("path", sorted(set(_GOLDEN.glob("*.json")) - {_GOLDEN / "MANIFEST.json"}),
                         ids=lambda p: p.stem)
def test_writer_matches_json_dumps_on_every_golden(path, capsys, monkeypatch):
    # every golden answer is the bytes ``main`` writes for its own payload
    text = path.read_text()
    payload = json.loads(text)
    assert _main_writes(monkeypatch, capsys, payload["m"], payload) == text


@pytest.mark.parametrize("value", _JSON_EDGE_CASES, ids=repr)
def test_writer_matches_json_dumps_on_edge_cases(value, capsys, monkeypatch):
    for payload in ({"v": value}, {"k": [value]}):
        out = _main_writes(monkeypatch, capsys, 5, payload)
        assert out == json.dumps({"m": 5, **payload}, indent=2) + "\n"


def _random_scalar(rng, ctx):
    """Coordinates zero, small, negative or about 2^70 in size, over 1, a small
    denominator or one above 2^64."""
    nums = [rng.choice((0, rng.randrange(-60, 60), rng.randrange(-2 ** 70, 2 ** 70)))
            for _ in range(ctx.degree)]
    nums[rng.randrange(ctx.degree)] = rng.randrange(1, 2 ** 70)
    return cyclotomic._make(ctx, nums, rng.choice((1, rng.randrange(1, 50), 2 ** 65 + 1)))


@pytest.mark.parametrize("m", (5, 8, 12, 30, 997))
def test_nf_writer_matches_json_dumps_of_the_term_dicts(m):
    ctx = cyclotomic.field_init(m)
    alg = PBWAlgebra(ctx)
    rng = random.Random(m)
    elements = [alg.zero(), alg.element({(0, 0, 0, 0): _random_scalar(rng, ctx)}),
                alg.element({(0, 0, 0, 0): Fraction(-7, 3)}), alg.element({(0, 0, 0, 0): -2 ** 70})]
    for _ in range(3 if m == 997 else 20):
        elements.append(alg.element({
            tuple(rng.randrange(0, 3 * m) for _ in range(4)): _random_scalar(rng, ctx)
            for _ in range(rng.randrange(1, 12))}))
    for x in elements:
        for text in ("e1*e3 - q^-2*e3*e1", 'quote " and é'):
            payload = {"m": m, "expr": text,
                       "terms": [cli.term_json(key, x.terms[key]) for key in sorted(x.terms)]}
            assert cli.nf_json(m, text, x) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("m", (5, 7, 12, 13))
def test_scalar_json_prints_as_fraction(m):
    ctx = cyclotomic.field_init(m)
    rng = random.Random(m)
    for _ in range(200):
        nums = [rng.choice((0, rng.randrange(-60, 60), rng.randrange(-2 ** 70, 2 ** 70)))
                for _ in range(ctx.degree)]
        c = cyclotomic._make(ctx, nums, rng.choice((1, rng.randrange(1, 50), 2 ** 65 + 1)))
        assert cli.scalar_json(c) == [str(Fraction(n, c.den)) for n in c.num]
