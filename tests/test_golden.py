"""CLI reports must stay byte-identical to the committed golden files.

``tests/data/golden`` holds the inputs (``b0.json``, ``mc.json`` and their
jet files, built at degree 14 from the map z -> (3/5 + 4/5 i) z, w -> 3w,
``mixed.json``, ``excluded.json``, and at degree 32 ``mc2.json`` (family mc
with c = 1, j = 2), ``mc2_curved.json`` (its pull-back by
z -> (3/5 + 4/5 i) z + z^2, w -> 3w) and that map's jet ``mc2_curved_jet.json``)
and, for each case below, the exact stdout the CLI printed for it.  The
commands run from inside that directory so the relative input paths
embedded in the reports match.
"""

from pathlib import Path

import pytest

from crjet.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {}
for fam in ("b0", "mc"):
    CASES[f"validate_{fam}"] = ["validate", "--family", fam]
    CASES[f"dset_{fam}"] = ["dset", "--family", fam]
    CASES[f"jet_order_{fam}"] = ["jet-order", "--family", fam]
    CASES[f"upsilon_n2_{fam}"] = ["upsilon", "--family", fam, "--n", "2"]
    CASES[f"upsilon_symbolic_{fam}"] = ["upsilon", "--family", fam]
    CASES[f"reconstruct_{fam}"] = ["reconstruct", f"{fam}.json", f"{fam}.json",
                                   f"{fam}_jet.json", "--order", "2"]
CASES["upsilon_n3_nb_j2"] = ["upsilon", "--family", "nb", "--j", "2",
                             "--b-re", "1", "--b-im", "2", "--n", "3"]
CASES["upsilon_n0_mc_j2"] = ["upsilon", "--family", "mc", "--j", "2", "--n", "0"]
# K = 2: L = 2 for mc, and L = 1 for nb, whose det_3 is nonzero up to n^6
CASES["dset_mc_j2"] = ["dset", "--family", "mc", "--j", "2"]
CASES["dset_nb_j2"] = ["dset", "--family", "nb", "--j", "2", "--b-re", "1", "--b-im", "2"]
# theta = -1/2 z chi - 1/3 z chi^2 - 1/3 z^2 chi + 2 z^2 chi^2 at degree 11: its
# symbolic Upsilon mixes ExactComplex and NPoly coefficients
CASES["upsilon_symbolic_mixed"] = ["upsilon", "mixed.json"]
# Theta = s (z chi - i z^2 chi^3 + i z^3 chi^2) at degree 11: the root n = 1
# of det_4 is excluded from D by a rank certificate
CASES["dset_excluded"] = ["dset", "excluded.json"]
# L = K = 2 with a curved f_0, through order 4
CASES["reconstruct_mc2_curved"] = ["reconstruct", "mc2_curved.json", "mc2.json",
                                   "mc2_curved_jet.json", "--order", "4"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert main(CASES[name]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
