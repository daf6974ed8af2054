"""Output bytes pinned across refactors.

One tiny config per experiment, plus the d=3 corrector, growth, green and
sg, with the SHA-256 of every output as homoglab 0.9.0 wrote it.  Each is
replayed from a manifest at one and two threads and must match exactly.
Those run on the iid two-point ensemble; the cases named after another
ensemble kind hold the bytes that homoglab 0.9.2 wrote on that kind, and
the ``oned-*`` cases the bytes it wrote for the other 1d profile kinds.
Every case that runs CG (``cell``, ``ahom``, ``corrector``, ``twoscale``,
``growth``, ``green`` and ``meyers``, with their variants) holds the bytes
of 0.11.0, whose flux stencil and ``numpy.fft`` transforms round in other
last digits than the CSR stencil and ``scipy.fft`` did; its CG iteration
counts are those of 0.10.0.  Every CSV output (``oned``, ``corrector`` and
``twoscale``) holds the bytes of 0.12.0, which writes each float as
``format(v, ".16e")``; each parses to the float64 values that the earlier
``%.17g`` layout wrote, bit for bit.
"""

import json

import pytest

from homoglab.cli import replay


def _ensemble(kind, **params):
    return {"kind": kind, "params": params, "lambda": 0.2, "master_seed": 321}


ENSEMBLE = _ensemble("iid-two-point", alpha=0.25, beta=0.75)
UNIFORM = _ensemble("iid-uniform", low=0.25, high=0.75)
CORRELATED = _ensemble("correlated-two-point", alpha=0.25, beta=0.75, radius=1, decay=0.5)
CONSTANT = _ensemble("constant", value=0.5)
TILE = _ensemble("periodic-tile", unit_cell=[[0.3, 0.5], [0.7, 0.4], [0.6, 0.9], [0.25, 0.8]])


def _config(experiment, out, params, d=None, L=None, ensemble=ENSEMBLE):
    return {"experiment": experiment, "params": params, "out": out,
            "ensemble": ensemble if d else None,
            "box": {"d": d, "L": L} if d else None}


ONED = {"eps_list": [0.125, 0.0625, 0.03125], "points_per_period": 32}
LAYERED = {"kind": "layered", "alpha": 0.25, "beta": 0.75}

CASES = {
    "oned": _config("oned", "oned.csv", {"eps_list": [0.125, 0.0625, 0.03125],
                                         "points_per_period": 32}),
    "oned-layered": _config("oned", "oned.csv", {**ONED, "a": LAYERED}),
    "oned-layered-fraction": _config("oned", "oned.csv",
                                     {**ONED, "a": {**LAYERED, "fraction": 0.3}}),
    "oned-constant-a": _config("oned", "oned.csv", {**ONED, "a": {"kind": "constant",
                                                                   "value": 0.7}}),
    "oned-constant-f": _config("oned", "oned.csv", {**ONED, "f": {"kind": "constant",
                                                                   "value": 2.0}}),
    "oned-sine-f": _config("oned", "oned.csv", {**ONED, "f": {"kind": "sine", "k": 2}}),
    "cell": _config("cell", "cell.json", {"sample": 1}, 2, 8),
    "ahom": _config("ahom", "ahom.json", {"samples": 4}, 2, 8),
    "corrector": _config("corrector", "corrector.csv", {"dir": 1, "sample": 2}, 2, 16),
    "corrector-d3": _config("corrector", "corrector3.csv", {"dir": 2}, 3, 6),
    "twoscale": _config("twoscale", "twoscale.csv", {"samples": 4, "alpha": 0.2}, 2, 8),
    "growth": _config("growth", "growth.json", {"samples": 4, "radii": [2, 4]}, 2, 16),
    "growth-d3": _config("growth", "growth3.json", {"samples": 3, "radii": [1, 2]}, 3, 8),
    "sg": _config("sg", "sg.json", {"samples": 19}, 2, 4),
    "sg-d3": _config("sg", "sg3.json", {"samples": 10}, 3, 2),
    "semigroup": _config("semigroup", "semigroup.json", {"samples": 8, "t_grid": [1, 4]},
                         2, 16),
    "green": _config("green", "green.json", {"samples": 2, "radii": [2, 4]}, 2, 16),
    "green-d3": _config("green", "green3.json", {"samples": 2, "radii": [2, 3, 4]}, 3, 16),
    "meyers": _config("meyers", "meyers.json", {"samples": 4}, 2, 8),
    "birkhoff": _config("birkhoff", "birkhoff.json", {"samples": 8, "R_list": [2, 4]}, 2, 8),
    "birkhoff-uniform": _config("birkhoff", "birkhoff.json", {"samples": 8, "R_list": [2, 4]},
                                2, 8, UNIFORM),
    "ahom-correlated": _config("ahom", "ahom.json", {"samples": 4}, 2, 8, CORRELATED),
    "semigroup-constant": _config("semigroup", "semigroup.json",
                                  {"samples": 4, "t_grid": [1, 4]}, 2, 16, CONSTANT),
    "cell-tile": _config("cell", "cell.json", {"sample": 1}, 2, 8, TILE),
    "birkhoff-tile": _config("birkhoff", "birkhoff.json", {"samples": 4, "R_list": [2, 4]},
                             2, 8, TILE),
}

OUTPUTS = {
    "ahom": {"ahom.json":
        "c98f31f42282a5b34a94008224096d0f1fcae88c9e92d850a1ee1d3aa278bf62"},
    "ahom-correlated": {"ahom.json":
        "0e16cad655c5ee6aa810910c6a8eb5314d883df218c2a7515522c4d63a86282e"},
    "birkhoff": {"birkhoff.json":
        "78347c19cd627a6aaa3d664afe90cde4259905e9ab01c63651bba55752a2879a"},
    "birkhoff-tile": {"birkhoff.json":
        "1fa9e590cfe6eda25bdbc3d8f090adfde248b07cbd1e66d8b5a10ce6899c20c0"},
    "birkhoff-uniform": {"birkhoff.json":
        "676de704d87651db2c0bd727c6380b1f3f81ca0d402b8eceac165e29e32fdcf8"},
    "cell": {"cell.json":
        "d035f22450de5a9b0e83eafdcd4426d065e2c731c367de6057c100bf1beffdf9"},
    "cell-tile": {"cell.json":
        "b722e8ed1ecdaf10dc7bdb620d6662d1ef947db3ea4dac8d8acda678b3a36e18"},
    "corrector": {
        "corrector.csv":
            "444a62b0f8a993a4ab3f467eb338aab5eb7e47e4c87c39ad4e95171458d1d3a8",
        "corrector.csv.meta.json":
            "e523d1ef29ac64131521d06c7f589dbeb3567ece7bde462f1140b269128bcc5c",
    },
    "corrector-d3": {
        "corrector3.csv":
            "0befa96e1cd54259467e0ae81e53ec3252dd113f8be2b72f401bd6709914d4aa",
        "corrector3.csv.meta.json":
            "39bcdfa2be1c7e2bd946028481b2dc2c21b9591269f91ea69b4a9123161f80fc",
    },
    "green": {"green.json":
        "dd6685ec039c57747e02992b980fb09fb4a0700321a3610df55269adfcfb87c6"},
    "green-d3": {"green3.json":
        "18a457678265ad94cc9d45af38661cb6377f8d374131b27e25e327f37e1c1c4b"},
    "growth": {"growth.json":
        "3502043029630301186fb3c72dd4863f0bcf7514e5f0fb4a30dd948267bcda73"},
    "growth-d3": {"growth3.json":
        "3f8f6e18b354fe67ed6f811426e60744024b7143f49f522db7afbecbd68a3cff"},
    "meyers": {"meyers.json":
        "a03afb1e80b2cd1104b973f8b4f5ba8ffa157bfb57510a4d7322b5b7a018fb7b"},
    "oned": {"oned.csv":
        "9062b31af98566b334339b497a5d64c9331d5db539e90a47f07c4888c65a4c5d"},
    "oned-constant-a": {"oned.csv":
        "52686de0ae54a8b00344a37839e401deb2cf5e78aa65f2ffef7dae2f7e93606a"},
    "oned-constant-f": {"oned.csv":
        "c7d1a97477574cc29d2d71f778aedd753e11a2358a69e3ddb8f6865c8d5e5763"},
    "oned-layered": {"oned.csv":
        "7dafc8924bfaf6a6bfebfc9d0cf5d6c7768395407a778be92ad50ed8f22b7864"},
    "oned-layered-fraction": {"oned.csv":
        "b604ec30b7e7fb5f87df6cd61c8d13344b8288af0c0a37b62382b24b09ae0d5e"},
    "oned-sine-f": {"oned.csv":
        "8138c91b2ae0e0e86d88d2361416073974d886a99636e96bfc810c7ffdb405c6"},
    "semigroup": {"semigroup.json":
        "d4c938acfe769a3a635de053c6c95f48857997c90cf7b9326e11e4f74fcf8641"},
    "semigroup-constant": {"semigroup.json":
        "f5d57e11d185bfb99759ce3521a2c7b92f582ed58f45446f23ba7215006d5a99"},
    "sg": {"sg.json":
        "5b5b601e2d002e7f750aef49b8bf370098c71f69ae18e404f2bbe30d0cbc2735"},
    "sg-d3": {"sg3.json":
        "1a69a5ec809e22456e087ac9f4816cd490a4a46acb5c230bf533dc3da49adaff"},
    "twoscale": {"twoscale.csv":
        "3444521c13ea55073b8692c6e3e398a9e72329b9d1f54a7af1c27c8ecf057fe2"},
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_reproduces_the_pinned_bytes(case, threads, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"config": CASES[case], "outputs": OUTPUTS[case]}))
    ok, report = replay(str(path), threads=threads)
    assert ok, report
    assert all(entry["status"] == "identical" for entry in report["files"].values())
