"""The configuration front end keeps its defaults on the dataclasses alone."""

from dudasim.config import SweepSpec, parse_config
from dudasim.params import SlotTiming, SystemParams, TrialConfig


def test_empty_document_gives_the_dataclass_defaults():
    bundle = parse_config("")
    assert bundle.params == SystemParams()
    assert bundle.timing == SlotTiming()
    assert bundle.sweep == SweepSpec()
    assert bundle.trial == TrialConfig()
    assert bundle.params.noise_power == 0.0 and bundle.forced_link is None


def test_params_and_timing_are_the_trials():
    bundle = parse_config("delta = 0.3\nt_u = 2\n")
    assert bundle.params is bundle.trial.params
    assert bundle.timing is bundle.trial.timing
