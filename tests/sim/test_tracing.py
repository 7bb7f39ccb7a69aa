"""Tests for the tracing hub."""

from repro.sim.tracing import TraceRecord, Tracer


class TestTracer:
    def test_disabled_by_default_but_counts(self):
        tracer = Tracer()
        assert not tracer.active
        tracer.emit(0, "mac", "tx_start", frame="data")
        assert tracer.count("mac.tx_start") == 1

    def test_subscriber_receives_records(self):
        tracer = Tracer()
        records = []
        tracer.subscribe(records.append)
        tracer.emit(100, "phy", "rx_drop", reason="collision")
        assert len(records) == 1
        assert records[0].time_ns == 100
        assert records[0].category == "phy"
        assert records[0].fields["reason"] == "collision"

    def test_prefix_filtering(self):
        tracer = Tracer()
        mac_records = []
        tracer.subscribe(mac_records.append, prefix="mac.")
        tracer.emit(0, "mac", "tx_start")
        tracer.emit(0, "phy", "rx_start")
        assert [r.event for r in mac_records] == ["tx_start"]

    def test_unsubscribe(self):
        tracer = Tracer()
        records = []
        tracer.subscribe(records.append)
        tracer.unsubscribe(records.append)
        tracer.emit(0, "mac", "tx_start")
        assert records == []
        assert not tracer.active

    def test_counters_accumulate(self):
        tracer = Tracer()
        for _ in range(3):
            tracer.emit(0, "mac", "retry")
        tracer.emit(0, "mac", "drop")
        assert tracer.counters() == {"mac.retry": 3, "mac.drop": 1}

    def test_reset_counters(self):
        tracer = Tracer()
        tracer.emit(0, "a", "b")
        tracer.reset_counters()
        assert tracer.count("a.b") == 0
        assert tracer.counters() == {}

    def test_record_str_is_readable(self):
        tracer = Tracer()
        records = []
        tracer.subscribe(records.append)
        tracer.emit(1_000_000, "mac", "ack", dst=3)
        assert "mac.ack" in str(records[0])
        assert "dst=3" in str(records[0])

    def test_record_equality_and_default_fields(self):
        assert TraceRecord(5, "mac", "ack") == TraceRecord(5, "mac", "ack", {})
        assert TraceRecord(5, "mac", "ack", {"dst": 1}) != TraceRecord(
            5, "mac", "ack", {"dst": 2}
        )
        assert TraceRecord(5, "mac", "ack") != (5, "mac", "ack", {})


class TestRouting:
    """The per-key routing table must deliver exactly what a prefix scan
    of the subscriber list would, in the same order."""

    def test_subscribe_after_routing_takes_effect_next_emission(self):
        tracer = Tracer()
        first, late = [], []
        tracer.subscribe(first.append, prefix="mac.")
        tracer.emit(0, "mac", "retry")  # routes "mac.retry"
        tracer.subscribe(late.append, prefix="mac.re")
        tracer.emit(1, "mac", "retry")
        assert [r.time_ns for r in first] == [0, 1]
        assert [r.time_ns for r in late] == [1]

    def test_unsubscribe_after_routing_takes_effect_next_emission(self):
        tracer = Tracer()
        kept, dropped = [], []
        tracer.subscribe(kept.append)
        tracer.subscribe(dropped.append, prefix="mac.")
        tracer.emit(0, "mac", "retry")
        tracer.unsubscribe(dropped.append)
        tracer.emit(1, "mac", "retry")
        assert [r.time_ns for r in kept] == [0, 1]
        assert [r.time_ns for r in dropped] == [0]
        assert tracer.active

    def test_fanout_route_follows_subscriptions(self):
        tracer = Tracer()
        records = []
        tracer.fanout(0, "phy.1", "rx_ok", {})  # routes to nobody
        tracer.subscribe(records.append, prefix="phy.1.")
        tracer.fanout(1, "phy.1", "rx_ok", {"size": 3})
        assert [(r.time_ns, r.fields) for r in records] == [(1, {"size": 3})]
        assert tracer.counters() == {}

    def test_delivery_follows_subscription_order_across_prefixes(self):
        tracer = Tracer()
        order = []
        tracer.subscribe(lambda r: order.append("mac"), prefix="mac.")
        tracer.subscribe(lambda r: order.append("all"))
        tracer.subscribe(lambda r: order.append("exact"), prefix="mac.ack")
        tracer.subscribe(lambda r: order.append("phy"), prefix="phy.")
        tracer.emit(0, "mac", "ack")
        assert order == ["mac", "all", "exact"]
        order.clear()
        tracer.emit(0, "phy", "rx")
        assert order == ["all", "phy"]

    def test_self_unsubscribe_mid_delivery_keeps_others(self):
        tracer = Tracer()
        before, after, once = [], [], []

        def one_shot(record):
            once.append(record)
            tracer.unsubscribe(one_shot)

        tracer.subscribe(before.append)
        tracer.subscribe(one_shot)
        tracer.subscribe(after.append)
        tracer.emit(0, "mac", "ack")
        tracer.emit(1, "mac", "ack")
        assert [r.time_ns for r in before] == [0, 1]
        assert [r.time_ns for r in once] == [0]
        assert [r.time_ns for r in after] == [0, 1]

    def test_subscriber_added_during_delivery_sees_next_record(self):
        tracer = Tracer()
        late = []

        def recruiter(record):
            if record.time_ns == 0:
                tracer.subscribe(late.append)

        tracer.subscribe(recruiter)
        tracer.emit(0, "mac", "ack")
        assert late == []
        tracer.emit(1, "mac", "ack")
        assert [r.time_ns for r in late] == [1]

    def test_counters_identical_with_and_without_subscribers(self):
        def drive(tracer):
            tracer.audit = True
            for t in range(3):
                tracer.emit(t, "mac", "retry", n=t)
                tracer.emit_audit(t, "net.1", "sdu_open", sdu=t)
            tracer.emit(9, "phy", "rx")
            return tracer.counters()

        quiet = Tracer()
        routed = Tracer()
        routed.subscribe(lambda r: None, prefix="net.")
        assert drive(quiet) == drive(routed) == {
            "mac.retry": 3,
            "net.1.sdu_open": 3,
            "phy.rx": 1,
        }

    def test_audit_off_bumps_no_counter_and_builds_no_record(self, monkeypatch):
        import repro.sim.tracing as tracing

        built = []

        class CountingRecord(TraceRecord):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(tracing, "TraceRecord", CountingRecord)
        tracer = Tracer()
        records = []
        tracer.subscribe(records.append)
        tracer.emit_audit(0, "net.1", "sdu_open", sdu=1)
        assert tracer.counters() == {}
        assert records == [] and built == []
        tracer.audit = True
        tracer.emit_audit(1, "net.1", "sdu_open", sdu=1)
        assert tracer.count("net.1.sdu_open") == 1
        assert len(records) == len(built) == 1

    def test_unrouted_key_builds_no_record(self, monkeypatch):
        import repro.sim.tracing as tracing

        built = []
        monkeypatch.setattr(
            tracing, "TraceRecord", lambda *args: built.append(args)
        )
        tracer = Tracer()
        tracer.subscribe(lambda r: None, prefix="mac.")
        tracer.emit(0, "phy", "rx")
        tracer.fanout(0, "phy", "rx", {})
        assert built == []
        assert tracer.count("phy.rx") == 1
