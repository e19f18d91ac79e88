"""Runtime invariant checking and differential validation.

Two complementary layers guard the simulator's headline counters:

* :class:`InvariantChecker` (:mod:`repro.validate.invariants`) attaches to a
  live :class:`~repro.cpu.core.CoreEngine` and asserts conservation laws per
  epoch and at result-collection time — enabled per run via
  ``SimConfig(validate=True)`` or the CLI's ``--validate`` flag;
* :func:`run_validation_suite` (:mod:`repro.validate.differential`) runs
  metamorphic checks over the production code paths — determinism,
  parallel == serial, shm grid == serial, discard == source suppression,
  epoch invariance, packed kernel == generator oracle
  (:func:`simulate_generator`, :func:`simulate_mix_generator`; single-core
  and per mix core),
  sampled-within-error-bound against a full run
  (:func:`check_sampled_matches_full`), a clean invariant pass per
  (workload × policy), and
  mutation detection via :func:`reintroduce_stale_mshr_bug` — exposed as
  the ``repro validate`` subcommand.
"""

from repro.validate.differential import (
    CheckOutcome,
    check_mix_packed_matches_generator,
    check_packed_matches_generator,
    check_sampled_matches_full,
    check_shm_grid_matches_serial,
    result_diff,
    run_validation_suite,
    simulate_generator,
    simulate_mix_generator,
)
from repro.validate.invariants import InvariantChecker, InvariantViolation
from repro.validate.mutation import reintroduce_stale_mshr_bug

__all__ = [
    "CheckOutcome",
    "check_mix_packed_matches_generator",
    "check_packed_matches_generator",
    "check_sampled_matches_full",
    "check_shm_grid_matches_serial",
    "InvariantChecker",
    "InvariantViolation",
    "reintroduce_stale_mshr_bug",
    "result_diff",
    "run_validation_suite",
    "simulate_generator",
    "simulate_mix_generator",
]
