"""The benchmark's workloads and the inputs each is given.

Every input is made from the workload seed with public ``dataio`` functions
(networks, cases, scenario documents) before anything is timed.  Networks
are the fixed study networks of acceptance criterion 7: gravity networks
from ``generate_synthetic(m, profile, 2024)``, calibrated with ``r0 = 3``
and ``mu = 0.9 * bound * rho / r0`` (so the rate sits at 0.9 of the
invariance bound), with 5 seeded sites at 1e-3 of their population.  The
seed varies the solver streams and, on ``compile-export-m300``, which
trajectory state is compiled.  It does not redraw the networks: on
random gravity networks the first plan ranges from isolating 2 to 147 of
300 sites and the peak reduction from 0.1% to 11%, which would swamp any
bound on plan quality.

A plan is what one pass runs: a list of actions, each a CLI command
(``{"cli": argv}``) or a direct ``import_qubo`` of a text file
(``{"import": path}``).  ``{pass}`` in an action is the pass's output
directory and ``{jobs}`` the ``batch`` job count.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from epiqubo import dataio
from epiqubo.epinet import (
    EpidemicParams,
    EpidemicState,
    ModelKind,
    infection_rate_from_r0,
    invariance_bound,
    simulate,
    spectral_growth_factor,
)

STUDY_NETWORK_SEED = 2024
R0 = 3.0
MU_SHARE = 0.9
SEEDED_SITES = 5
SEED_FRACTION = 1e-3
GAMMA = 1e-5  # fixed per workload; never searched at run time
BATCH_JOBS = 2  # = nproc of the reference host
COMPILE_STATES = 1
COMPILE_HORIZON = 30

WORKLOADS = {
    "batch-mixed": "the closed control loop: every solver, both builders, SIS and SIR, scenario parsing, CSV load and generation, reports, batch --jobs 2",
    "compile-export-m300": "external-solver path with no solver: both builders, text export and import, numeric-builder memory",
}


class RateRefused(ValueError):
    """A calibrated infection rate lies above the network's invariance bound."""


def check_rate(net, r0: float, mu: float) -> float:
    """Calibrated rate for ``(r0, mu)``; refuses one above the invariance bound."""
    lam = infection_rate_from_r0(r0, mu, net)
    bound = invariance_bound(net)
    if lam > bound:
        raise RateRefused(
            f"r0={r0} with mu={mu} calibrates lambda={lam}, above the invariance bound {bound}"
        )
    return lam


def calibrated_mu(net, r0: float) -> float:
    """Recovery rate that puts the calibrated infection rate at 0.9 of the bound."""
    rho = spectral_growth_factor(net, np.zeros(net.m, dtype=np.int8))
    mu = MU_SHARE * invariance_bound(net) * rho / r0
    check_rate(net, r0, mu)
    return mu


def seeded_cases(net, kind: str):
    x0 = np.zeros(net.m)
    x0[:SEEDED_SITES] = SEED_FRACTION * net.populations[:SEEDED_SITES]
    return x0, (np.zeros(net.m) if kind == "sir" else None)


def _study_network(m: int, directory: Path, kind: str = "sir", profile: str = "gravity"):
    """Generate a study network and write its edges, population and cases CSVs."""
    net = dataio.generate_synthetic(m, profile, STUDY_NETWORK_SEED)
    edges, population = dataio.write_network_csvs(net, directory)
    infected, removed = seeded_cases(net, kind)
    cases = dataio.write_cases_csv(directory / "cases.csv", infected, removed)
    return net, {"edges": str(edges), "population": str(population), "cases": str(cases)}


# (stem, model, profile, m, r0, solver, builder, steps)
BATCH_SCENARIOS = (
    ("ring40-sis-ga", "sis", "ring", 40, 1.5, "ga", "analytic", 1),
    ("gravity18-sir-exhaustive", "sir", "gravity", 18, R0, "exhaustive", "numeric", 3),
    ("complete60-sis-tabu", "sis", "complete", 60, 1.5, "tabu", "numeric", 2),
    ("gravity60-sir-sa", "sir", "gravity", 60, R0, "sa", "analytic", 2),
)


def _batch_plan(seed: int, work: Path) -> dict:
    """Synthetic-profile documents regenerate their network in the run;
    gravity documents name CSV files, so both network paths are exercised."""
    docs, runs = [], []
    for stem, model, profile, m, r0, solver, builder, steps in BATCH_SCENARIOS:
        directory = work / stem
        net, files = _study_network(m, directory, model, profile)
        mu = calibrated_mu(net, r0)
        values = {"model": model, "r0": repr(r0), "mu": repr(mu), "gamma": repr(GAMMA)}
        if profile == "gravity":
            values.update(edges="edges.csv", population="population.csv", cases="cases.csv")
            network = files
        else:
            values.update(profile=profile, m=str(m), network_seed=str(STUDY_NETWORK_SEED))
            values["cases"] = "cases.csv"
            network = {"profile": profile, "m": m, "network_seed": STUDY_NETWORK_SEED}
        values.update(steps=str(steps), solver=solver, builder=builder, seed=str(seed))
        doc = directory / f"{stem}.txt"
        doc.write_text(dataio.scenario_to_text(values), encoding="utf-8")
        docs.append(str(doc))
        runs.append({"dir": f"batch/{stem}", "network": network, "steps": steps})
    total = sum(s[-1] for s in BATCH_SCENARIOS)
    return {
        "workload": "batch-mixed",
        "actions": [{"cli": ["batch", *docs, "--jobs", "{jobs}", "--out", "{pass}/batch"]}],
        "steps": total,
        "instances": total,
        "runs": runs,
        "states": [],
        "setup": {"networks": [], "scenarios": docs},
    }


def _compile_plan(seed: int, work: Path) -> dict:
    """Both builders over states drawn by the seed from one uncontrolled
    SIR trajectory of the M=300 study network."""
    m = 300
    net, files = _study_network(m, work / "net")
    mu = calibrated_mu(net, R0)
    lam = check_rate(net, R0, mu)
    infected, removed = seeded_cases(net, "sir")
    traj = simulate(
        net, EpidemicParams(ModelKind.SIR, lam, mu), EpidemicState(infected, removed), None, COMPILE_HORIZON
    )
    rng = np.random.default_rng(seed)
    picks = sorted(int(t) for t in rng.choice(COMPILE_HORIZON + 1, COMPILE_STATES, replace=False))
    actions, states = [], []
    for t in picks:
        cases = dataio.write_cases_csv(work / f"state{t}.csv", traj.infected[t], traj.removed[t])
        texts = []
        for builder in ("analytic", "numeric"):
            text = f"{{pass}}/t{t}-{builder}.qubo"
            argv = [
                "build-qubo",
                "--network", files["edges"],
                "--population", files["population"],
                "--cases", str(cases),
                "--model", "sir",
                "--r0", repr(R0),
                "--mu", repr(mu),
                "--gamma", repr(GAMMA),
                "--builder", builder,
                "--out", text,
            ]
            actions.append({"cli": argv})
            texts.append(text)
        actions.extend({"import": text} for text in texts)
        states.append({"t": t, "texts": texts})
    return {
        "workload": "compile-export-m300",
        "actions": actions,
        "steps": len(picks),
        "instances": 2 * len(picks),
        "runs": [],
        "states": states,
        "setup": {"networks": [dict(files, r0=R0, mu=mu)], "scenarios": []},
    }


def make_plan(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs under ``work`` and return its pass plan."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "batch-mixed":
        return _batch_plan(seed, work)
    if workload == "compile-export-m300":
        return _compile_plan(seed, work)
    raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
