"""Write the golden corpus: CLI output captured byte for byte.

Run from the root of a checkout, against the code whose output is to be
frozen:

    PYTHONPATH=src python tests/golden/capture.py

Each case is stored as ``<name>.json`` (the exact stdout of ``cli.main``) and
``MANIFEST.json`` records the argv and exit code of every case.
``tests/test_golden.py`` replays the manifest and compares the bytes.

A golden is frozen once.  New cases are written and unchanged ones left as
they are; if any existing case would change (its bytes, argv or exit code),
nothing is written, the differing cases are named on stderr and the script
exits with status 1.  To re-freeze a case on purpose, delete its file first.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

from uqb2 import cli

HERE = pathlib.Path(__file__).resolve().parent

CORPUS = {
    "conformance_m5": ["conformance", "--m", "5"],
    "conformance_m7": ["conformance", "--m", "7"],
    "conformance_m8": ["conformance", "--m", "8"],
    "conformance_m12": ["conformance", "--m", "12"],
    "nf_m5_e2e1": ["nf", "--m", "5", "e2*e1"],
    "nf_m7_div": ["nf", "--m", "7", "(e1 + q^-2*e2)^3 / (q^2 - 1)"],
    "nf_m8_rational": ["nf", "--m", "8", "e2^3*e1^2 - 3/5*q^-3*z"],
    "nf_m12_inverse_power": ["nf", "--m", "12", "(q^-1 + 2)^-2 * e3 * e2"],
    "nf_m9_quotient": ["nf", "--m", "9", "e1^2*e2/(q^3 - q + 2) + zt/(1 - q^4)"],
    "central_m5_e1pow": ["central", "--m", "5", "e1^5"],
    "central_m8_commutator": ["central", "--m", "8", "e1*e2 - q^-2*e2*e1"],
    "center_report_m5": ["center-report", "--m", "5"],
    "center_report_m8": ["center-report", "--m", "8"],
    "simple_m7_V1p": ["simple", "--m", "7", "--family", "V1p",
                      "--params", "1,q^-2,1/(q+2),0"],
    "simple_m8_V4p": ["simple", "--m", "8", "--family", "V4p", "--params", "2,1/q,0"],
    "iso_m5_V1p": ["iso", "--m", "5", "--family", "V1p",
                   "--params1", "1,q^-2,1,1", "--params2", "1,1,1,0"],
    "iso_m6_V2": ["iso", "--m", "6", "--family", "V2",
                  "--params1", "q^2/(q-3),2,q", "--params2", "1/(q-3),2,q"],
    "character_m7_V2p": ["character", "--m", "7", "--family", "V2p",
                         "--params", "q^2,2/(q+1),q"],
    "character_m12_V3p": ["character", "--m", "12", "--family", "V3p",
                          "--params", "q^-1,3/2"],
    "build_module_m6_V1": ["build-module", "--m", "6", "--family", "V1",
                           "--params", "1/(q+1),q^-1,2,1/3"],
    "build_module_m10_V4p": ["build-module", "--m", "10", "--family", "V4p",
                             "--params", "q^3 - 1,2,1/(q^2+q+1)"],
    "build_module_m9_V2p": ["build-module", "--m", "9", "--family", "V2p",
                            "--params", "(1+q)/(2-q^4),q^-3,5"],
    "build_module_m8_V3": ["build-module", "--m", "8", "--family", "V3",
                           "--params", "1/(q-2),q"],
    "check_module_m7_V1p": ["check-module", "--m", "7", "--family", "V1p",
                            "--params", "q,q^2,2,q^3"],
    "check_module_m9_V3": ["check-module", "--m", "9", "--family", "V3",
                           "--params", "1/(q-2),q"],
    "torus_check_m9": ["torus-check", "--m", "9"],
    "iso_m9_V1p": ["iso", "--m", "9", "--family", "V1p",
                   "--params1", "1,q^-2,1,1", "--params2", "1,1,1,0"],
    "iso_m20_V2p": ["iso", "--m", "20", "--family", "V2p",
                    "--params1", "q^2,2,q", "--params2", "1,2,q"],
    "iso_m16_V1p_none": ["iso", "--m", "16", "--family", "V1p",
                         "--params1", "1,q,1,0", "--params2", "1,q,2,0"],
    "simple_m20_V2p": ["simple", "--m", "20", "--family", "V2p", "--params", "q,2,q^3"],
    "simple_m5_V4p_residue_prime": ["simple", "--m", "5", "--family", "V4p",
                                    "--params", "2147483171,0,0"],
    "character_m16_V1p": ["character", "--m", "16", "--family", "V1p",
                          "--params", "q,q^2,2,q^3"],
    "check_module_m20_V2p": ["check-module", "--m", "20", "--family", "V2p",
                             "--params", "q,2,q^3"],
    "iso_m8_V1": ["iso", "--m", "8", "--family", "V1",
                  "--params1", "1,q^-2,1,1", "--params2", "1,1,1,0"],
    "iso_m8_V3p": ["iso", "--m", "8", "--family", "V3p",
                   "--params1", "1,q", "--params2", "1,q"],
    "iso_m7_V4p": ["iso", "--m", "7", "--family", "V4p",
                   "--params1", "1,0,q", "--params2", "1,0,q"],
    "nf_m7_named": ["nf", "--m", "7", "z1*zp-zt^2"],
    "central_m8_zp": ["central", "--m", "8", "zp"],
    "torus_check_m8": ["torus-check", "--m", "8"],
    "character_m9_V2": ["character", "--m", "9", "--family", "V2",
                        "--params", "q^2,2/(q+1),q"],
    "character_m8_V1": ["character", "--m", "8", "--family", "V1",
                        "--params", "1/(q+1),q^-1,2,1/3"],
    "iso_m29_V1p_shift3": ["iso", "--m", "29", "--family", "V1p",
                           "--params1", "q^2,q^-6,1,1+q^-4+q^-8", "--params2", "1,1,1,0"],
}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def main():
    old = {}
    if (HERE / "MANIFEST.json").exists():
        old = json.loads((HERE / "MANIFEST.json").read_text())
    manifest, texts, changed = {}, {}, []
    for name, argv in CORPUS.items():
        code, text = run(argv)
        manifest[name] = {"argv": argv, "exit": code}
        path = HERE / (name + ".json")
        if path.exists():
            if path.read_text() != text or old.get(name, manifest[name]) != manifest[name]:
                changed.append(name)
        else:
            texts[path] = text
    if changed:
        print("golden output would change, nothing written: %s" % ", ".join(changed),
              file=sys.stderr)
        return 1
    for path, text in texts.items():
        path.write_text(text)
    (HERE / "MANIFEST.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
