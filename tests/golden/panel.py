"""The golden panel: which cells are pinned, and how a result is digested.

Every other equality check in the suite is relative (kernel A against
kernel B, parallel against serial).  The digests stored next to this file
pin full :class:`~repro.cpu.simulator.SimResult`\\ s in absolute terms, so a
change to shared code that moves both sides of a differential check still
trips a test.  ``regen.py`` rewrites them; any digest that moves must be
explained in the change that moves it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

DIGESTS = Path(__file__).resolve().with_name("digests.json")

WORKLOADS = ("astar", "mcf", "hmmer")
PREFETCHERS = ("berti", "ipcp", "bop")
POLICIES = ("discard", "permit", "dripper")
WARMUP, SIM = 2_000, 6_000

#: one 4-core mix; the QMM core runs halved budgets, finishes first and
#: replays past its packed window while the others catch up
MIX = ("astar", "hmmer", "mcf", "qmm_int_13")
MIX_POLICY = "dripper"
MIX_WARMUP, MIX_SIM = 1_000, 3_000


def digest(result) -> str:
    """Digest of every field of a result (exact float reprs, sorted keys)."""
    text = json.dumps(asdict(result), sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def single_labels() -> list[str]:
    """One label per single-core cell: ``workload/prefetcher/policy``."""
    return [f"{w}/{pf}/{policy}"
            for w in WORKLOADS for pf in PREFETCHERS for policy in POLICIES]


def run_single(label: str):
    """Simulate one single-core cell on the default drive path."""
    from repro.cpu.simulator import simulate
    from repro.experiments.runner import RunSpec
    from repro.workloads.registry import by_name

    name, prefetcher, policy = label.split("/")
    workload = by_name(name)
    spec = RunSpec(prefetcher=prefetcher, policy=policy,
                   warmup_instructions=WARMUP, sim_instructions=SIM)
    return simulate(workload, spec.config_for(workload))


def mix_label() -> str:
    return "mix:" + "+".join(MIX) + f"/berti/{MIX_POLICY}"


def run_mix():
    """Simulate the pinned mix cell; returns the per-core results."""
    from repro.cpu.multicore import simulate_mix
    from repro.experiments.runner import RunSpec
    from repro.workloads.registry import by_name

    spec = RunSpec(prefetcher="berti", policy=MIX_POLICY,
                   warmup_instructions=MIX_WARMUP, sim_instructions=MIX_SIM)
    return simulate_mix([by_name(n) for n in MIX], spec.base_config()).results


def mix_digests(results) -> list[str]:
    return [digest(r) for r in results]


def load() -> dict:
    return json.loads(DIGESTS.read_text())
