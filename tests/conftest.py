import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Every property test draws the same examples on every run, has no deadline,
# and writes no example database into the checkout. A test's own @settings
# still sets its number of examples.
settings.register_profile("repeatable", derandomize=True, deadline=None, database=None)
settings.load_profile("repeatable")

# Hypothesis also caches the literals it reads from local modules
# (.hypothesis/constants), database or not. Each session keeps that cache in
# a temporary directory of its own, removed when the session ends, so a test
# run writes nothing into the checkout.
_HYPOTHESIS_HOME = Path(tempfile.mkdtemp(prefix="hypothesis-home-"))
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_sessionfinish(session):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)


# Make the sibling oracles module importable from every test file.
sys.path.insert(0, str(Path(__file__).parent))

from forcemotion.config import preset_scenario  # noqa: E402


@pytest.fixture
def smooth_exp2():
    """Builds exp2 for a control law on a flat floor: the preset with the
    floor's roughness and noise amplitudes at 0 and the same environment
    seed, for convergence tests."""

    def build(controller_kind):
        scenario = preset_scenario("exp2", controller_kind)
        env = scenario.environment
        floor = dataclasses.replace(env.obstacles[0], roughness_amplitude=0.0, noise_amplitude=0.0)
        return dataclasses.replace(scenario, environment=dataclasses.replace(env, obstacles=(floor,)))

    return build
