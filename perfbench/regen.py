"""Regenerate ``perfbench/references.json`` from the current library.

Usage (from the repository root)::

    python3 perfbench/regen.py

Stores, at the reference seed and the "bench" sizes:

* the output digest of every ``paper-suite`` exhibit;
* the digest of every sampled ``sampled-paper-scale`` cell;
* each sampled cell's *truth*: the model's own full-window run of the same
  cell (no sampling), as its IPC and digest.  The panel and windows do not
  depend on the seed, so these truths hold for every seed.

Every reference is a result of this model, not of hardware: a changed
digest means the model's output changed, and the change that moved it
must explain why.  Takes a few minutes (the full-window truths dominate).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import suite  # noqa: E402


def digests(workload: str, seed: int) -> dict[str, str]:
    """Digest of every cell of one workload, in reference order."""
    outputs = {}
    for op in suite.operations(workload, seed):
        outputs.update(op.run())
    return {cell: suite.digest(outputs[cell]) for cell in suite.cells(workload)}


def truths() -> dict[str, dict]:
    """Full-window (unsampled) runs of the sampled panel."""
    from repro.experiments import run_policies
    from repro.workloads import by_name

    size = suite.SIZES["bench"]["sampled-paper-scale"]
    spec = suite.sampled_spec(size, suite.REFERENCE_SEED, sampled=False)
    grid = run_policies([by_name(w) for w in suite.SAMPLED_PANEL],
                        list(suite.SAMPLED_POLICIES), base_spec=spec)
    return {f"{r.workload}/{policy}": {"ipc": r.ipc, "digest": suite.digest(r)}
            for policy, results in grid.items() for r in results}


def main() -> None:
    seed = suite.REFERENCE_SEED
    refs = {
        "seed": seed,
        "sizes": suite.SIZES["bench"],
        "paper-suite": {"digests": digests("paper-suite", seed)},
        "sampled-paper-scale": {
            "digests": digests("sampled-paper-scale", seed),
            "truth": truths(),
        },
    }
    suite.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {suite.REFERENCES}")


if __name__ == "__main__":
    main()
