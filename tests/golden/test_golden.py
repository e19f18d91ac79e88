"""Absolute pins: full SimResult digests of a fixed panel must not move."""

import pytest

from tests.golden import panel

GOLDEN = panel.load()


@pytest.mark.parametrize("label", panel.single_labels())
def test_single_core_cell_matches_golden(label):
    result = panel.run_single(label)
    stored = GOLDEN["single"][label]
    assert panel.digest(result) == stored["digest"], (
        f"{label}: ipc {result.ipc!r} (stored {stored['ipc']!r}); "
        "regenerate with tests/golden/regen.py only for an explained model change")


def test_mix_cell_matches_golden():
    results = panel.run_mix()
    assert GOLDEN["mix"]["label"] == panel.mix_label()
    assert panel.mix_digests(results) == GOLDEN["mix"]["digests"], (
        f"mix ipcs {[r.ipc for r in results]} (stored {GOLDEN['mix']['ipcs']})")


def test_panel_covers_every_stored_digest():
    assert sorted(GOLDEN["single"]) == sorted(panel.single_labels())
