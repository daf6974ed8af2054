"""Output checks for one benchmark invocation, run after the timed region.

``check`` returns a list of problems (empty when the outputs are right)
and the key numbers that the parent compares with stored references.
Every check reads what the CLI wrote to disk; the corrector check also
gets the in-memory ``CorrectorSet``, because the CSV carries only the
upper triangle of the skew field sigma.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from homoglab.correctors import ahom_cell
from homoglab.elliptic import SolverConfig
from homoglab.ensembles import SampleId, sample
from homoglab.quant import CellAhomEntry

# |div* sigma - q| / |q| allowed on the corrector output
FLUX_IDENTITY_TOL = 1e-7
# |CellAhomEntry - ahom_cell[0, 0]| allowed on sample 0 of the sg workloads
CELL_ENTRY_TOL = 1e-8
SG_FUNCTIONALS = ["single-site", "box-average", "ahom-entry"]


def check(cfg, manifest: dict, corrector_set=None) -> tuple[list[str], dict]:
    problems: list[str] = []
    for name, sha in manifest["outputs"].items():
        with open(name, "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != sha:
                problems.append(f"{name}: bytes on disk differ from the manifest hash")
    summary = manifest["solver_summary"]
    if summary["n_solves"] and not (summary["all_converged"] and
                                    summary["max_final_relative_residual"] <= cfg.solver.tol):
        problems.append(f"unconverged solve: {summary}")
    if cfg.experiment == "green":
        key = _check_green(cfg, summary, problems)
    elif cfg.experiment == "sg":
        key = _check_sg(cfg, problems)
    elif cfg.experiment == "corrector":
        key = _check_corrector(cfg, corrector_set, problems)
    else:
        raise ValueError(f"no check for experiment {cfg.experiment!r}")
    return problems, key


def check_trace(layers: dict, summary: dict) -> list[str]:
    """Traced solve and iteration counts must equal the manifest's."""
    traced = (layers["elliptic.solves"] + layers["elliptic.solves_failed"],
              layers["elliptic.iterations"])
    recorded = (summary["n_solves"], summary["total_iterations"])
    if traced != recorded:
        return [f"traced (solves, iterations) {traced} != manifest {recorded}"]
    return []


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check_green(cfg, summary: dict, problems: list[str]) -> dict:
    with open(cfg.out) as fh:
        out = json.load(fh)
    n, d = int(cfg.params["samples"]), cfg.box.d
    if summary["n_solves"] != (d + 1) * n:
        problems.append(f"green: {summary['n_solves']} solves, expected {(d + 1) * n}")
    quenched, annealed = out["quenched_profile"], out["annealed_profile"]
    if not (_finite(quenched) and min(quenched) > 0):
        problems.append(f"green: quenched profile not positive: {quenched}")
    if not (_finite(annealed) and min(annealed) > 0):
        problems.append(f"green: annealed profile not positive: {annealed}")
    return {"quenched_profile": quenched, "annealed_profile": annealed}


def _check_sg(cfg, problems: list[str]) -> dict:
    with open(cfg.out) as fh:
        reports = json.load(fh)["reports"]
    names = [r["functional"] for r in reports]
    if names != SG_FUNCTIONALS:
        problems.append(f"sg: functionals {names}, expected {SG_FUNCTIONALS}")
    key = {}
    for r in reports:
        nums = [r["ratio"], r["variance"]["value"], r["derivative_sum"]["value"]]
        if not (_finite(nums) and min(nums) > 0):
            problems.append(f"sg: {r['functional']} has non-positive or non-finite {nums}")
        key[r["functional"]] = nums
    a = sample(cfg.ensemble, cfg.box, SampleId(0))
    dense = CellAhomEntry()(a)
    cg = float(ahom_cell(a, SolverConfig()).matrix[0, 0])
    if abs(dense - cg) > CELL_ENTRY_TOL:
        problems.append(f"sg: CellAhomEntry {dense!r} != CG ahom_cell {cg!r} on sample 0")
    return key


def _check_corrector(cfg, cs, problems: list[str]) -> dict:
    box = cfg.box
    d, L = box.d, box.L
    sig = cs.sigma.values
    if not np.array_equal(sig, -np.swapaxes(sig, 1, 2)):
        problems.append("corrector: sigma is not exactly antisymmetric")
    table = np.loadtxt(cfg.out, delimiter=",", skiprows=1, ndmin=2)
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    if table.shape != (box.n_sites, 1 + d + 1 + d + len(pairs)):
        problems.append(f"corrector: CSV shape {table.shape}")
        return {}
    phi = table[:, 1 + d]
    q = table[:, 2 + d:2 + 2 * d]
    upper = table[:, 2 + 2 * d:]
    if not (np.array_equal(phi, cs.phi.values) and np.array_equal(q, cs.q.values)
            and all(np.array_equal(upper[:, m], sig[:, j, k]) for m, (j, k) in enumerate(pairs))):
        problems.append("corrector: CSV values do not round-trip to the computed fields")
    # (div* sigma)_j = sum_k sigma_jk(x - e_k) - sigma_jk(x), on the CSV values
    full = np.zeros((box.n_sites, d, d))
    for m, (j, k) in enumerate(pairs):
        full[:, j, k], full[:, k, j] = upper[:, m], -upper[:, m]
    div = np.zeros((box.n_sites, d))
    for j in range(d):
        for k in range(d):
            g = full[:, j, k].reshape((L,) * d, order="F")
            div[:, j] += (np.roll(g, 1, axis=k) - g).ravel(order="F")
    rel = float(np.linalg.norm(div - q) / np.linalg.norm(q))
    if not rel <= FLUX_IDENTITY_TOL:
        problems.append(f"corrector: |div* sigma - q| / |q| = {rel:.3e} > {FLUX_IDENTITY_TOL}")
    with open(cfg.out + ".meta.json") as fh:
        meta = json.load(fh)
    if not all(r["converged"] for r in meta["solver_reports"]):
        problems.append(f"corrector: unconverged solve in {meta['solver_reports']}")
    return {"ahom_row": meta["ahom_row"],
            "phi_rms": float(np.sqrt(np.mean(phi ** 2))),
            "sigma_rms": float(np.sqrt(np.mean(upper ** 2)))}
