"""The benchmark's inputs against the library: a change to the scenarios'
default initial data or Lagrangian parameters that would break the
benchmark fails here first."""
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))

import workloads  # noqa: E402
from matchdyn.scenarios import SCENARIOS  # noqa: E402


def test_bench_default_initial_data_are_the_scenarios():
    for scenario, direction in (("sl2c", workloads.SL2C_DIRECTION),
                                ("trivial_groupoid", workloads.TG_ARROW)):
        assert np.array_equal(direction, SCENARIOS[scenario].initial[1])


def test_bench_parameters_are_the_scenarios_lagrangian_parameters():
    for scenario, (_, _, _, ranges) in workloads.SCENARIO_INPUTS.items():
        defaults = SCENARIOS[scenario].lagrangian[1]
        assert set(ranges) <= set(defaults), scenario
