"""Rewrite the golden digests from the simulator on ``PYTHONPATH``.

Usage::

    PYTHONPATH=src python tests/golden/regen.py          # rewrite digests.json
    PYTHONPATH=src python tests/golden/regen.py --check  # diff only, write nothing

Prints every digest that differs from the stored file.  A moved digest is a
changed simulation result: explain it in CHANGES.md before committing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import panel  # noqa: E402


def compute() -> dict:
    single = {}
    for label in panel.single_labels():
        result = panel.run_single(label)
        single[label] = {"digest": panel.digest(result), "ipc": result.ipc}
    mix_results = panel.run_mix()
    mix = {
        "label": panel.mix_label(),
        "digests": panel.mix_digests(mix_results),
        "ipcs": [r.ipc for r in mix_results],
    }
    return {"single": single, "mix": mix}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="report differences without rewriting the file")
    args = parser.parse_args(argv)
    fresh = compute()
    old = panel.load() if panel.DIGESTS.exists() else {"single": {}, "mix": {}}
    moved = [label for label, entry in fresh["single"].items()
             if old["single"].get(label, {}).get("digest") != entry["digest"]]
    if old["mix"].get("digests") != fresh["mix"]["digests"]:
        moved.append(fresh["mix"]["label"])
    for label in moved:
        print(f"moved: {label}")
    print(f"{len(moved)} of {len(fresh['single']) + 1} digests moved")
    if not args.check:
        panel.DIGESTS.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
    return 1 if (args.check and moved) else 0


if __name__ == "__main__":
    sys.exit(main())
