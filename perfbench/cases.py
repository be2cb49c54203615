"""Workload definitions: each workload expands to a fixed list of CLI cases.

Every case runs one `cnsmax` command on the unit parameter set P1 (the set
the acceptance tests use).  Cost depends on the parameters through T0,
cond(M) and precision escalation, so P1 is held fixed and the benchmark
seed only becomes each case's `seed` (the random initial state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

P1 = {"rho_s": 1.0, "u_s": 1.0, "b": 1.0, "kappa": 1.0, "mu": 1.0}

# Controllability waiting time 2*pi*sum(1/|beta_j|) of P1, recorded so that
# building a case never calls into the program; the `ingham` case checks the
# T0 it reports against this value.
T0_P1 = 21.953193156040005


@dataclass(frozen=True)
class Case:
    """One CLI command: name, subcommand, block, and its end-to-end slot."""

    name: str
    command: str
    block: dict
    slot: str

    def config(self, seed: int) -> dict:
        block = dict(self.block)
        if self.command in ("simulate", "control", "stabilize"):
            block["seed"] = seed
        return {"model": dict(P1), self.command: block}


# Per-workload end-to-end slots: the metric `caseK_s` of a workload is the
# time of the commands whose slot is K, so every workload reports the same
# metric names while each slot keeps one meaning per workload.
SLOT_NAMES = {
    "hum": {"case1_s": "control_boundary_s",
            "case2_s": "control_localized_s",
            "case3_s": "control_everywhere_s"},
    "feedback": {"case1_s": "stabilize_exact_s",
                 "case2_s": "stabilize_spillover_s",
                 "case3_s": "stabilize_f64_s"},
    "scan": {"case1_s": "spectrum_s",
             "case2_s": "simulate_s",
             "case3_s": "gram_s"},
}


def workload_cases(workload: str) -> list[Case]:
    """The ordered case list of one workload."""
    T = 1.2 * T0_P1
    if workload == "hum":
        return [
            Case("control_boundary", "control",
                 {"variant": "boundary", "kind": "density", "N": 8, "T": T},
                 "case1_s"),
            Case("control_localized", "control",
                 {"variant": "localized", "interval": [0.0, math.pi], "N": 8,
                  "T": T},
                 "case2_s"),
            Case("control_everywhere", "control",
                 {"variant": "everywhere", "N": 16, "T": 1.0},
                 "case3_s"),
        ]
    if workload == "feedback":
        return [
            Case("stabilize_exact", "stabilize",
                 {"N": 8, "omega": 2.0, "kind": "density"}, "case1_s"),
            Case("stabilize_spillover", "stabilize",
                 {"N": 2, "omega": 2.0, "kind": "density", "spillover": True},
                 "case2_s"),
            Case("stabilize_f64", "stabilize",
                 {"N": 3, "omega": 1.0, "kind": "density", "T_end": 400.0},
                 "case3_s"),
        ]
    if workload == "scan":
        return [
            Case("spectrum", "spectrum", {"n_max": 1024}, "case1_s"),
            Case("simulate", "simulate",
                 {"N": 64, "T": 5.0, "record_points": 257}, "case2_s"),
            Case("ingham", "ingham", {"N": 64}, "case3_s"),
            Case("observability_boundary", "observability",
                 {"N": 64, "kind": "density"}, "case3_s"),
            Case("observability_interior", "observability",
                 {"N": 64, "interval": [0.0, math.pi]}, "case3_s"),
            Case("lack", "lack", {"N_list": [8, 16, 32, 64, 128, 256]},
                 "case3_s"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = tuple(SLOT_NAMES)

# Modules each workload's commands import lazily; `setup_s` imports them in
# a fresh interpreter.
SETUP_MODULES = {
    "hum": ["cnsmax.cli", "cnsmax.control", "scipy.linalg", "scipy.special"],
    "feedback": ["cnsmax.cli", "cnsmax.stabilize", "cnsmax.control",
                 "scipy.linalg", "mpmath"],
    "scan": ["cnsmax.cli", "cnsmax.dynamics", "cnsmax.observability",
             "cnsmax.control", "scipy.linalg", "scipy.special"],
}
