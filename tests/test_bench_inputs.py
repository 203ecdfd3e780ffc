"""The benchmark's inputs against the library: a change to the scenarios'
default initial data or Lagrangian parameters that would break the
benchmark fails here first."""
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))

import workloads  # noqa: E402
from matchdyn.scenarios import INITIAL, LAGRANGIANS  # noqa: E402


def test_bench_default_initial_data_are_the_scenarios():
    assert np.array_equal(workloads.SL2C_DIRECTION, INITIAL["sl2c"][1])
    assert np.array_equal(workloads.TG_ARROW, INITIAL["trivial_groupoid"][1])


def test_bench_parameters_are_the_scenarios_lagrangian_parameters():
    for scenario, (_, _, _, ranges) in workloads.SCENARIO_INPUTS.items():
        assert set(ranges) <= set(LAGRANGIANS[scenario][1]), scenario
