"""Output bytes pinned across refactors.

One tiny config per experiment, plus the d=3 corrector, growth, green and
sg, with the SHA-256 of every output as homoglab 0.9.0 wrote it.  Each is
replayed from a manifest at one and two threads and must match exactly.
"""

import json

import pytest

from homoglab.cli import replay

ENSEMBLE = {"kind": "iid-two-point", "params": {"alpha": 0.25, "beta": 0.75},
            "lambda": 0.2, "master_seed": 321}


def _config(experiment, out, params, d=None, L=None):
    return {"experiment": experiment, "params": params, "out": out,
            "ensemble": ENSEMBLE if d else None,
            "box": {"d": d, "L": L} if d else None}


CASES = {
    "oned": _config("oned", "oned.csv", {"eps_list": [0.125, 0.0625, 0.03125],
                                         "points_per_period": 32}),
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
}

OUTPUTS = {
    "ahom": {"ahom.json":
        "dfef3a9c54b41e0c57108afaa60f865e3ab48ece7baba71d7d867a74961f6f26"},
    "birkhoff": {"birkhoff.json":
        "78347c19cd627a6aaa3d664afe90cde4259905e9ab01c63651bba55752a2879a"},
    "cell": {"cell.json":
        "1b414a144cd5d88bdb3467d1d8e513c247d91b4f4286830b34328b8bfc618761"},
    "corrector": {
        "corrector.csv":
            "fe1cde436c3a1121b22b538245acd9089cc970776fba1a5be69405ba74a55601",
        "corrector.csv.meta.json":
            "f5ac39d23d6989323ec1af2570b47b45fb79deabf7bf26c8a5ea7f93c127ae70",
    },
    "corrector-d3": {
        "corrector3.csv":
            "1f906a4dd8ed06efa30d4d9b1b4a29f8488beab474f50d960196ee2b19f8e32e",
        "corrector3.csv.meta.json":
            "c08572d15d262b234209c02926512019543b6853cf323e4ce59d7e55e45db164",
    },
    "green": {"green.json":
        "a7b05dfb83ff8d329f7affb325425aa4ef624af410743fde2cd8145701860803"},
    "green-d3": {"green3.json":
        "3a2015f30cda3868d53ccc9a864bdd8f86254d27c0f0582c68bcc701fbe91040"},
    "growth": {"growth.json":
        "f0093786a2c0bb9bc81cf7b74bb52a045b3edfcf48504f01752f2e2eea79089c"},
    "growth-d3": {"growth3.json":
        "750682f50caf4d5a595088d7da9c235a8a14fa148bf3b67e18b6ce0a464f9e74"},
    "meyers": {"meyers.json":
        "b360529a6d230d9d9a1fd81fee6e7eaf38bdfebb40fb6cdce85619d3c81cb647"},
    "oned": {"oned.csv":
        "34a49db9e2853fd38c6775c8a608c0619ba7f0ae3f7d8f4fdcb32f4dfcaeb8b0"},
    "semigroup": {"semigroup.json":
        "d4c938acfe769a3a635de053c6c95f48857997c90cf7b9326e11e4f74fcf8641"},
    "sg": {"sg.json":
        "5b5b601e2d002e7f750aef49b8bf370098c71f69ae18e404f2bbe30d0cbc2735"},
    "sg-d3": {"sg3.json":
        "1a69a5ec809e22456e087ac9f4816cd490a4a46acb5c230bf533dc3da49adaff"},
    "twoscale": {"twoscale.csv":
        "f8dd9aec6f3712020f7a40f2f44662fff74f1da341a5927f2f11112893f440c5"},
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
