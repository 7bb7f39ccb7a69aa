"""Reception kernel vs per-pair reference: bit-identical verdicts.

:class:`~repro.phy.kernel.SinrKernel` reduces each frame field to its
worst interference interval and converts one SINR to dB per field; it
is only allowed to exist because it is *indistinguishable* from the
straightforward walk over every (field x interference interval) pair.
These tests keep that walk (and the uncached BER integration) as
oracles and drive both over generated signal-overlap layouts — short
and long timelines, duplicate offsets, unsorted offsets, zero
interference, bursts around the sensitivity and SINR thresholds — and
demand identical verdicts and identical RNG consumption.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.airtime import AirtimeCalculator
from repro.core.params import Rate
from repro.errors import ConfigurationError
from repro.phy import ber as ber_models
from repro.phy.kernel import resolve_kernel
from repro.phy.plans import data_frame_plan
from repro.phy.radio import RadioParameters
from repro.phy.reception import (
    BerReception,
    ReceptionContext,
    ReceptionOutcome,
    SinrThresholdReception,
)
from repro.units import dbm_to_mw, linear_to_db

RADIO = RadioParameters.calibrated()
AIRTIME = AirtimeCalculator()
PLANS = [
    data_frame_plan(540, Rate.MBPS_11, AIRTIME),
    data_frame_plan(1460, Rate.MBPS_2, AIRTIME),
    data_frame_plan(20, Rate.MBPS_5_5, AIRTIME),
]

#: Longest generated timeline.  The goldens record at most 34 entries
#: per reception; this stays above that.
MAX_TIMELINE = 40

#: Interference levels that straddle every interesting boundary for a
#: -88..-50 dBm signal: nothing, far-below-threshold, near-threshold,
#: equal, and above.
LEVELS_MW = [0.0] + [
    dbm_to_mw(dbm) for dbm in (-95.0, -85.0, -75.0, -70.0, -65.0, -62.0, -60.0, -55.0)
]

RX_POWERS_DBM = [-90.0, -84.0, -76.0, -70.0, -60.0, -50.0]


def _evaluate_reference(context, radio):
    """SINR-threshold verdict, one dB comparison per (field x interval)."""
    signal_mw = dbm_to_mw(context.rx_power_dbm)
    for start_ns, end_ns, segment in context.plan.segment_offsets_ns():
        if context.rx_power_dbm < radio.sensitivity_dbm[segment.rate]:
            return ReceptionOutcome.BELOW_SENSITIVITY
        threshold_db = radio.sinr_threshold_db[segment.rate]
        for _, _, interference_mw in context.interference_intervals(
            start_ns, end_ns
        ):
            sinr = signal_mw / (context.noise_mw + interference_mw)
            if linear_to_db(sinr) < threshold_db:
                return ReceptionOutcome.SINR_FAILURE
    return ReceptionOutcome.OK


def _evaluate_ber_reference(context, rng):
    """BER verdict through the uncached ``frame_success_probability``,
    with the success probability it drew against."""
    signal_mw = dbm_to_mw(context.rx_power_dbm)
    success_probability = 1.0
    for start_ns, end_ns, segment in context.plan.segment_offsets_ns():
        duration = end_ns - start_ns
        if duration <= 0:
            continue
        for lo, hi, interference_mw in context.interference_intervals(
            start_ns, end_ns
        ):
            sinr = signal_mw / (context.noise_mw + interference_mw)
            bits = segment.bits * (hi - lo) / duration
            success_probability *= ber_models.frame_success_probability(
                segment.rate, sinr, round(bits)
            )
    if rng.random() < success_probability:
        return ReceptionOutcome.OK, success_probability
    return ReceptionOutcome.BER_FAILURE, success_probability


class _FixedDraw:
    """An RNG stub whose ``random()`` always returns ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


@st.composite
def timelines(draw):
    """Sorted step-function timelines, offset 0 first, duplicates allowed."""
    n = draw(st.integers(min_value=1, max_value=MAX_TIMELINE))
    tail = draw(
        st.lists(
            st.integers(min_value=0, max_value=1_500_000),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    offsets = [0] + sorted(tail)
    levels = draw(
        st.lists(st.sampled_from(LEVELS_MW), min_size=n, max_size=n)
    )
    return tuple(zip(offsets, levels))


def make_context(plan, rx_power_dbm, timeline):
    return ReceptionContext(
        plan=plan,
        rx_power_dbm=rx_power_dbm,
        noise_mw=dbm_to_mw(RADIO.noise_floor_dbm),
        interference_timeline=timeline,
    )


class TestResolveKernel:
    def test_explicit_names(self, monkeypatch):
        # One kernel: every preference, and the retired REPRO_KERNEL
        # variable, resolve to the same name.
        monkeypatch.setenv("REPRO_KERNEL", "python")
        names = {resolve_kernel(), resolve_kernel("python"), resolve_kernel("numpy")}
        assert names == {"scalar"}


def test_retired_kernel_field_loads_and_changes_nothing():
    # ``stack.kernel`` no longer selects anything: older spec files that
    # carry it still load, build and run the one kernel, event for event.
    from repro.experiments.mac_surface import saturation_spec
    from repro.scenario import ScenarioSpec, run_scenarios

    def digest(kernel):
        doc = saturation_spec(2, duration_s=0.3, warmup_s=0.1).to_dict()
        doc["stack"]["kernel"] = kernel
        doc["observability"]["trace_digest"] = True
        [row] = run_scenarios(
            [ScenarioSpec.from_dict(doc)],
            extract="repro.obs.export:trace_digest_row",
        )
        assert row["records"] > 0
        return row["trace_sha256"]

    assert digest("python") == digest("numpy") == digest(None)
    with pytest.raises(ConfigurationError, match="kernel"):
        digest("fortran")


class TestSinrBitIdentity:
    @settings(max_examples=300, deadline=None)
    @given(
        plan_index=st.integers(min_value=0, max_value=len(PLANS) - 1),
        rx_power_dbm=st.sampled_from(RX_POWERS_DBM),
        timeline=timelines(),
    )
    def test_kernel_matches_reference(self, plan_index, rx_power_dbm, timeline):
        context = make_context(PLANS[plan_index], rx_power_dbm, timeline)
        expected = _evaluate_reference(context, RADIO)
        got = SinrThresholdReception().evaluate(context, RADIO, random.Random(0))
        assert got is expected

    def test_duplicate_offsets_long_timeline(self):
        # Every offset doubled: an entry sharing its offset with its
        # successor spans zero time, so the later level must win, as it
        # does in the reference's lo < hi interval check.
        strong = dbm_to_mw(-60.0)
        offsets = [0] + sorted(
            list(range(0, 700_000, 50_000)) + list(range(0, 700_000, 50_000))
        )[1:]
        timeline = tuple(
            (off, strong if i % 2 == 0 else 0.0) for i, off in enumerate(offsets)
        )
        for plan in PLANS:
            context = make_context(plan, -60.0, timeline)
            got = SinrThresholdReception().evaluate(context, RADIO, random.Random(0))
            assert got is _evaluate_reference(context, RADIO)

    def test_unsorted_timeline_matches_reference(self):
        # Only hand-built contexts can be unsorted; the kernel must walk
        # them exactly like the reference interval walk does.
        strong = dbm_to_mw(-58.0)
        timeline = tuple(
            [(0, 0.0)]
            + [(off, strong if off % 100_000 else 0.0) for off in
               (900_000, 100_000, 500_000, 300_000, 700_000) * 3]
        )
        context = make_context(PLANS[0], -60.0, timeline)
        got = SinrThresholdReception().evaluate(context, RADIO, random.Random(0))
        assert got is _evaluate_reference(context, RADIO)

    def test_below_sensitivity_short_circuits_identically(self):
        weak = RADIO.sensitivity_dbm[Rate.MBPS_11] - 1.0
        context = make_context(PLANS[0], weak, ((0, 0.0),))
        assert _evaluate_reference(context, RADIO) is ReceptionOutcome.BELOW_SENSITIVITY
        outcome = SinrThresholdReception().evaluate(context, RADIO, random.Random(0))
        assert outcome is ReceptionOutcome.BELOW_SENSITIVITY


class TestBerBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(
        plan_index=st.integers(min_value=0, max_value=len(PLANS) - 1),
        rx_power_dbm=st.sampled_from(RX_POWERS_DBM),
        timeline=timelines(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_cached_tables_match_reference(
        self, plan_index, rx_power_dbm, timeline, seed
    ):
        # The memoized success-probability tables must not perturb the
        # Bernoulli draw: same seed, same outcome, same RNG consumption.
        context = make_context(PLANS[plan_index], rx_power_dbm, timeline)
        rng_ref, rng_fast = random.Random(seed), random.Random(seed)
        expected, probability = _evaluate_ber_reference(context, rng_ref)
        model = BerReception()
        got = model.evaluate(context, RADIO, rng_fast)
        assert got is expected
        assert rng_ref.random() == rng_fast.random()  # same draw count
        # A seeded draw only notices a wrong probability when it flips the
        # verdict.  Drawing exactly p must fail and drawing the float just
        # below p must succeed, which pins the model's probability to p.
        failed = model.evaluate(context, RADIO, _FixedDraw(probability))
        assert failed is ReceptionOutcome.BER_FAILURE
        if probability > 0:
            below = math.nextafter(probability, -math.inf)
            assert model.evaluate(context, RADIO, _FixedDraw(below)) is (
                ReceptionOutcome.OK
            )
