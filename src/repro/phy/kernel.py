"""The reception kernel: the SINR-threshold verdict in one pass per field.

The paper's reception rule is per field of the frame: received power at
or above the field rate's sensitivity, and worst-case SINR at or above
the rate's threshold.  Walking every (field x interference interval)
pair and converting each SINR to dB costs one transcendental per pair.
This kernel restructures that walk around one observation: a field
fails iff its *worst* (minimum-SINR) interval fails, and SINR is
monotone decreasing in interference power.  Each field therefore
reduces to its maximum interference power — a pure max, no
transcendental — and makes exactly one ``log10`` call, with the same
argument the per-pair walk would have used on that worst interval.  The
verdict is identical by monotonicity; the floating-point path to it is
identical by construction.  ``tests/phy/test_kernel.py`` keeps the
per-pair walk as the oracle.

The timelines the transceiver records are short — about ten entries at
most, even on 250-station fields — so the reduction is a scalar loop.
It accepts any timeline, sorted or not, with repeated offsets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from math import log10 as _log10

from repro.units import dbm_to_mw

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.phy.radio import RadioParameters
    from repro.phy.reception import ReceptionContext


def resolve_kernel(preference: str | None = None) -> str:
    """Name of the reception kernel: always ``"scalar"``.

    There is one kernel, so nothing is resolved: ``preference`` and the
    environment are ignored.  The function stays because run manifests
    (``perfbench``) record its answer next to the medium mode, and
    scenario specs may still carry a ``stack.kernel`` value for it.
    """
    return "scalar"


class SinrKernel:
    """The verdict of :class:`~repro.phy.reception.SinrThresholdReception`.

    Holds per-plan tables — segment offsets joined with the radio's
    per-rate sensitivity and SINR threshold — so the per-frame work is
    pure arithmetic on floats.  Plans are interned per station (see
    :mod:`repro.phy.plans`), so the table dict stays a handful of
    entries.  The tables are keyed against one radio; if the same model
    instance is ever handed a different radio the tables rebuild.
    """

    __slots__ = ()

    @staticmethod
    def _rows(
        plan, radio: "RadioParameters"
    ) -> tuple[tuple[int, int, float, float], ...]:
        # The table rides on the (interned, frozen) plan itself, written
        # through __dict__ like cached_property does — an attribute read
        # per frame instead of hashing the plan's segment tuple.  Tagged
        # with the radio it was built against: a plan is only ever
        # evaluated by its transmitting station's radio, but a different
        # radio (shared plans in tests) rebuilds rather than lies.
        cached = plan.__dict__.get("_sinr_rows")
        if cached is not None and cached[0] is radio:
            return cached[1]
        rows = tuple(
            (
                start_ns,
                end_ns,
                radio.sensitivity_dbm[segment.rate],
                radio.sinr_threshold_db[segment.rate],
            )
            for start_ns, end_ns, segment in plan.segment_offsets_ns()
        )
        plan.__dict__["_sinr_rows"] = (radio, rows)
        return rows

    def evaluate(self, context: "ReceptionContext", radio: "RadioParameters"):
        """Threshold-model verdict for one locked frame."""
        from repro.phy.reception import ReceptionOutcome

        rx_dbm = context.rx_power_dbm
        signal_mw = dbm_to_mw(rx_dbm)
        noise_mw = context.noise_mw
        timeline = context.interference_timeline
        n = len(timeline)
        rows = self._rows(context.plan, radio)

        # ``10.0 * log10(x)`` below is units.linear_to_db inlined (SINR
        # is strictly positive here): same expression, no call frame.

        if n == 1:
            # No interference change during the whole reception — the
            # modal case: every segment sees the single timeline level.
            interference_mw = timeline[0][1]
            for start_ns, end_ns, sensitivity, threshold in rows:
                if rx_dbm < sensitivity:
                    return ReceptionOutcome.BELOW_SENSITIVITY
                if end_ns <= start_ns:
                    continue
                sinr = signal_mw / (noise_mw + interference_mw)
                if 10.0 * _log10(sinr) < threshold:
                    return ReceptionOutcome.SINR_FAILURE
            return ReceptionOutcome.OK

        for start_ns, end_ns, sensitivity, threshold in rows:
            if rx_dbm < sensitivity:
                return ReceptionOutcome.BELOW_SENSITIVITY
            worst_mw = -1.0
            for i in range(n):
                off, mw = timeline[i]
                nxt = timeline[i + 1][0] if i + 1 < n else end_ns
                lo = off if off > start_ns else start_ns
                hi = nxt if nxt < end_ns else end_ns
                if lo < hi and mw > worst_mw:
                    worst_mw = mw
            if worst_mw < 0.0:
                continue
            sinr = signal_mw / (noise_mw + worst_mw)
            if 10.0 * _log10(sinr) < threshold:
                return ReceptionOutcome.SINR_FAILURE
        return ReceptionOutcome.OK
