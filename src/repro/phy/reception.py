"""Frame reception models.

The transceiver records, for the frame it is locked on, a timeline of the
total interference power (every other signal overlapping the reception).
At frame end a :class:`ReceptionModel` turns that timeline into a verdict:

* :class:`SinrThresholdReception` (default, ns-2-style): every field of
  the frame must be received above the sensitivity of its rate and with a
  worst-case SINR above the rate's threshold.  The verdict is computed by
  :class:`repro.phy.kernel.SinrKernel`, the one reception kernel.
* :class:`BerReception` (ablation): integrates the bit-error probability
  over every (field x interference interval) and draws a Bernoulli.
"""

from __future__ import annotations

import abc
import enum
import random
from dataclasses import dataclass

from repro.phy import ber as ber_models
from repro.phy.kernel import SinrKernel
from repro.phy.plans import TransmissionPlan
from repro.phy.radio import RadioParameters
from repro.errors import ConfigurationError
from repro.units import dbm_to_mw


class ReceptionOutcome(enum.Enum):
    """Why a locked frame was or was not decoded."""

    OK = "ok"
    BELOW_SENSITIVITY = "below-sensitivity"
    SINR_FAILURE = "sinr-failure"
    BER_FAILURE = "ber-failure"
    ABORTED = "aborted"

    @property
    def success(self) -> bool:
        """True only for a clean decode."""
        return self is ReceptionOutcome.OK


@dataclass(frozen=True)
class ReceptionContext:
    """Everything known about one locked frame at its end.

    ``interference_timeline`` is a step function: ``(offset_ns, mw)``
    entries meaning "from this offset (relative to frame start at the
    receiver) the summed power of all other signals is ``mw``".  The
    first entry is always at offset 0.
    """

    plan: TransmissionPlan
    rx_power_dbm: float
    noise_mw: float
    interference_timeline: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.interference_timeline:
            raise ConfigurationError("interference timeline must not be empty")
        if self.interference_timeline[0][0] != 0:
            raise ConfigurationError("interference timeline must start at offset 0")

    def interference_intervals(
        self, start_ns: int, end_ns: int
    ) -> list[tuple[int, int, float]]:
        """The timeline restricted to [start_ns, end_ns) as intervals."""
        intervals: list[tuple[int, int, float]] = []
        timeline = self.interference_timeline
        for index, (offset, mw) in enumerate(timeline):
            next_offset = (
                timeline[index + 1][0] if index + 1 < len(timeline) else end_ns
            )
            lo = max(offset, start_ns)
            hi = min(next_offset, end_ns)
            if lo < hi:
                intervals.append((lo, hi, mw))
        return intervals


class ReceptionModel(abc.ABC):
    """Decides whether a locked frame decodes."""

    @abc.abstractmethod
    def evaluate(
        self,
        context: ReceptionContext,
        radio: RadioParameters,
        rng: random.Random,
    ) -> ReceptionOutcome:
        """Verdict for one frame."""


class SinrThresholdReception(ReceptionModel):
    """Per-field sensitivity + worst-case SINR thresholds.

    The verdict comes from :class:`repro.phy.kernel.SinrKernel`: per-plan
    threshold tables and one dB conversion per field, at its worst
    interference interval.
    """

    def __init__(self):
        self._kernel = SinrKernel()

    def evaluate(
        self,
        context: ReceptionContext,
        radio: RadioParameters,
        rng: random.Random,
    ) -> ReceptionOutcome:
        return self._kernel.evaluate(context, radio)


class BerReception(ReceptionModel):
    """Bit-error integration over fields and interference intervals.

    Success probabilities come from the per-rate lookup tables and
    exact-key memo in :mod:`repro.phy.ber`
    (:func:`~repro.phy.ber.frame_success_probability_cached`), which
    return exactly what :func:`~repro.phy.ber.frame_success_probability`
    computes, so the single Bernoulli draw per frame is unaffected.
    """

    def evaluate(
        self,
        context: ReceptionContext,
        radio: RadioParameters,
        rng: random.Random,
    ) -> ReceptionOutcome:
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
                probability = ber_models.frame_success_probability_cached(
                    segment.rate, sinr, round(bits)
                )
                success_probability *= probability
        if rng.random() < success_probability:
            return ReceptionOutcome.OK
        return ReceptionOutcome.BER_FAILURE
