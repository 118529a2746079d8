"""Application-tier tests: open-loop load, scorecard, and the served gap.

The cheap tests pin the load model (scheduled arrivals — the coordinated
omission fix), the zipf key sampler, app message registration with the
network sizer, and one small fault-free run of each app experiment
end-to-end through the harness.  The ``slow``-marked class serves real
traffic through the fault matrix and asserts the paper's end-to-end
claim: Rapid keeps the app's p99 bounded under every profile while the
all-to-all gossip FD turns a pairwise blackhole into failover storms and
a degraded tail — with client retries bounded throughout, because the
resilience tier (deadlines, backoff, breakers) refuses to amplify.
"""

import random

import pytest

from repro.apps.load import OpenLoopSource, ZipfKeys
from repro.apps.service_discovery import (
    HttpRequest,
    HttpResponse,
    LoadBalancer,
    ServiceDiscoveryConfig,
    WorkloadGenerator,
)
from repro.apps.txn_platform import (
    DataServer,
    NotSerializer,
    TsRequest,
    TsResponse,
    ViewRequest,
    TxnClient,
    TxnPlatformConfig,
    ViewResponse,
    WriteAck,
    WriteRequest,
)
from repro.core.node_id import Endpoint
from repro.experiments.scenarios import (
    service_discovery_experiment,
    txn_platform_experiment,
)
from repro.obs.app_scorecard import AppScorecard
from repro.runtime.dispatch import TypeDispatcher
from repro.sim import network as network_mod
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.process import SimRuntime


def _runtime(seed=0):
    engine = Engine()
    network = Network(engine, seed=seed)
    return engine, SimRuntime(engine, network, Endpoint("10.9.9.9", 1), seed=seed)


class TestOpenLoopSource:
    def test_arrivals_follow_the_schedule_not_the_work(self):
        # Coordinated omission fix: intended times are start + k/rate,
        # independent of anything the issue callback does.
        engine, runtime = _runtime()
        seen = []
        source = OpenLoopSource(
            runtime, rate=10.0, issue=lambda t, i: seen.append((t, i))
        )
        engine.schedule(2.0, source.start)
        engine.run(until=3.05)
        times = [t for t, _ in seen]
        assert times == pytest.approx([2.0 + k / 10.0 for k in range(11)])
        assert [i for _, i in seen] == list(range(11))
        assert source.offered == 11

    def test_duration_bounds_offered_load(self):
        engine, runtime = _runtime()
        seen = []
        source = OpenLoopSource(
            runtime, rate=20.0, issue=lambda t, i: seen.append(t), duration=1.0
        )
        source.start()
        engine.run(until=10.0)
        # Arrivals in [0, 1.0): exactly rate * duration of them.
        assert len(seen) == 20

    def test_stop_halts_future_arrivals(self):
        engine, runtime = _runtime()
        seen = []
        source = OpenLoopSource(runtime, rate=10.0, issue=lambda t, i: seen.append(t))
        source.start()
        engine.schedule(0.55, source.stop)
        engine.run(until=5.0)
        assert len(seen) == 6  # t = 0.0 .. 0.5

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_a_rate_that_offers_nothing_is_refused(self, rate):
        _, runtime = _runtime()
        with pytest.raises(ValueError, match="rate must be positive"):
            OpenLoopSource(runtime, rate=rate, issue=lambda t, i: None)


class TestZipfKeys:
    def test_samples_stay_in_range_and_skew_low(self):
        keys = ZipfKeys(n_keys=64, skew=1.2)
        rng = random.Random(11)
        samples = [keys.sample(rng) for _ in range(4000)]
        assert all(0 <= k < 64 for k in samples)
        low = sum(1 for k in samples if k < 8)
        high = sum(1 for k in samples if k >= 56)
        assert low > 5 * max(high, 1)

    def test_deterministic_given_rng(self):
        keys = ZipfKeys(n_keys=32, skew=1.1)
        a = [keys.sample(random.Random(5)) for _ in range(10)]
        b = [keys.sample(random.Random(5)) for _ in range(10)]
        assert a == b

    def test_an_empty_key_space_is_refused(self):
        with pytest.raises(ValueError, match="n_keys must be >= 1"):
            ZipfKeys(n_keys=0)
        assert ZipfKeys(n_keys=1).sample(random.Random(3)) == 0


class TestTypeDispatcher:
    def test_one_route_per_class_and_the_rest_to_the_default(self):
        """An app co-hosted with a membership agent claims its classes;
        claiming one twice is a wiring mistake, refused on the spot."""
        _, runtime = _runtime()
        got = []
        dispatcher = TypeDispatcher(runtime)
        dispatcher.set_default(lambda src, msg: got.append(("agent", msg)))
        dispatcher.add(lambda src, msg: got.append(("app", msg)), HttpRequest)
        with pytest.raises(ValueError, match="duplicate route for HttpRequest"):
            dispatcher.add(lambda src, msg: got.append(("other", msg)), HttpRequest)
        request = HttpRequest(sender=runtime.addr, request_id=1, key=3, deadline=9.0)
        dispatcher.dispatch(runtime.addr, request)
        dispatcher.dispatch(runtime.addr, "probe")
        assert got == [("app", request), ("agent", "probe")]


class TestAppScorecard:
    def test_latency_series_buckets_by_intended_time(self):
        # A response that comes back late is charged to the bucket the
        # request was *scheduled* in — stalls can't shift load between
        # buckets (the other half of the coordinated-omission fix).
        card = AppScorecard()
        card.record_offered()
        card.record_success(intended=0.5, latency=3.0)  # answered at 3.5
        series = card.latency_series(0.0, 2.0, bucket=1.0)
        assert len(series) == 2
        t0, p50, p99, mx = series[0]
        assert t0 == 0.0 and p50 == pytest.approx(3.0)
        assert series[1][1] is None  # nothing scheduled in [1, 2)

    def test_report_counts_and_percentiles(self):
        card = AppScorecard(fault_start=5.0)
        for i in range(10):
            card.record_offered()
            card.record_success(intended=float(i), latency=0.010 * (i + 1))
        card.record_offered()
        card.record_deadline()
        report = card.report(0.0, 11.0)
        assert report["offered"] == 11
        assert report["completed"] == 10
        assert report["deadline_exceeded"] == 1
        assert report["success_rate"] == pytest.approx(10 / 11)
        assert report["latency_max"] == pytest.approx(0.100)
        assert report["latency_p99_post_fault"] >= report["latency_p99_pre_fault"]

    def test_a_card_with_no_success_reports_no_tail(self):
        report = AppScorecard(fault_start=1.0).report(0.0, 2.0)
        assert report["latency_p99"] is None
        assert report["latency_p99_post_fault"] is None
        assert report["goodput_rps"] == 0.0 and report["errors"] == 0

    def test_series_count_only_requests_intended_inside_the_window(self):
        card = AppScorecard()
        for t in (0.5, 1.5, 2.5):
            card.record_success(intended=t, latency=0.1)
        assert card.goodput_series(1.0, 2.0) == [(1.0, 1.0)]
        assert [row[0] for row in card.latency_series(1.0, 2.0)] == [1.0]
        # An empty or inverted window has no bucket.
        assert card.goodput_series(2.0, 2.0) == [] == card.latency_series(2.0, 1.0)

    def test_breaker_transitions_counted(self):
        card = AppScorecard()
        dst = Endpoint("10.0.0.1", 1)
        card.record_breaker(dst, "closed", "open")
        card.record_breaker(dst, "open", "half_open")
        card.record_breaker(dst, "half_open", "closed")
        assert card.breaker_opens == 1
        assert card.breaker_closes == 1


class TestMessageSizing:
    def test_app_messages_registered_with_the_sizer(self):
        import dataclasses

        sample = {
            "sender": Endpoint("10.0.0.1", 1),
            "members": (Endpoint("10.0.0.2", 1),),
            "hint": None,
        }
        for cls in (
            HttpRequest,
            HttpResponse,
            TsRequest,
            TsResponse,
            NotSerializer,
            WriteRequest,
            WriteAck,
            ViewRequest,
            ViewResponse,
        ):
            assert cls in network_mod._SIZERS, cls.__name__
            kwargs = {
                f.name: sample[f.name]
                if f.name in sample
                else (f.default if f.default is not dataclasses.MISSING else 0)
                for f in dataclasses.fields(cls)
            }
            # Every registered sizer yields a positive wire size.
            assert network_mod._SIZERS[cls](cls(**kwargs)) > 0

    def test_app_traffic_shows_up_in_by_class_counters(self):
        engine = Engine()
        network = Network(engine, seed=0)
        a = SimRuntime(engine, network, Endpoint("10.0.0.1", 1), seed=0)
        b_ep = Endpoint("10.0.0.2", 1)
        SimRuntime(engine, network, b_ep, seed=0).attach(lambda src, msg: None)
        a.send(b_ep, HttpRequest(sender=a.addr, request_id=1, key=3, deadline=9.0))
        a.send(b_ep, TsRequest(sender=a.addr, txn_id=7, deadline=9.0))
        engine.run(until=1.0)
        assert network.class_counts.get("HttpRequest") == 1
        assert network.class_counts.get("TsRequest") == 1
        assert network.class_bytes.get("HttpRequest", 0) > 0


class TestAppExperimentsSmall:
    def test_service_discovery_fault_free_small(self):
        result = service_discovery_experiment(
            "rapid", 6, profile=None, seed=3, fault_at=2.0, observe_for=6.0,
            app_config={"request_rate": 50.0},
        )
        assert result["settled"] is True
        assert result["profile"] == "none"
        assert result["offered"] == 400
        assert result["success_rate"] == 1.0
        assert result["deadline_exceeded"] == 0
        assert result["latency_p99"] < 0.5
        # Fault-free: the view never moves off the configured list.
        assert result["reloads"] == 0
        # App traffic is sized and attributed per class.
        assert result["harness"].network.class_counts.get("HttpRequest", 0) > 0

    def test_txn_platform_fault_free_small(self):
        result = txn_platform_experiment(
            "rapid", 5, profile=None, seed=3, fault_at=2.0, observe_for=6.0,
            app_config={"txn_rate": 25.0},
        )
        assert result["settled"] is True
        assert result["offered"] == 400  # two clients x 25 txn/s x 8 s
        assert result["success_rate"] == 1.0
        assert result["failovers"] == 0
        assert result["latency_p99"] < 0.5
        assert result["harness"].network.class_counts.get("WriteRequest", 0) > 0


#: The app-tier fault matrix the slow gap test serves traffic through.
SERVED_PROFILES = ("flip_flop", "blackhole", "slow_process", "rack_crash")


@pytest.mark.slow
class TestServedTrafficGap:
    def test_rapid_bounded_everywhere_baseline_degraded_on_blackhole(self):
        # Rapid, every profile: p99 stays inside the transaction deadline,
        # goodput holds, and client retries stay bounded — the resilience
        # tier never amplifies a fault into a retry storm.
        rapid = {}
        for profile in SERVED_PROFILES:
            result = txn_platform_experiment(
                "rapid", 16, profile=profile, seed=1,
                fault_at=10.0, observe_for=40.0,
            )
            rapid[profile] = result
            assert result["settled"] is True, profile
            assert result["success_rate"] >= 0.95, (profile, result)
            assert result["latency_p99"] < 5.0, (profile, result)
            assert result["retries_per_request"] < 2.0, (profile, result)
        # The blackhole (Figure 12) is the headline: Rapid's view never
        # moves, so the serializer never fails over and the tail is flat.
        assert rapid["blackhole"]["failovers"] == 0
        assert rapid["blackhole"]["latency_p99_post_fault"] < 0.1

        # The all-to-all gossip FD under the identical blackhole: the
        # serializer flaps in and out of the view, each flap a failover
        # with its reconfiguration pause — a measurably degraded tail.
        baseline = txn_platform_experiment(
            "gossip-fd", 16, profile="blackhole", seed=1,
            fault_at=10.0, observe_for=40.0,
        )
        assert baseline["failovers"] >= 2
        assert (
            baseline["latency_p99_post_fault"]
            > 10 * rapid["blackhole"]["latency_p99_post_fault"]
        )
        # Degraded, but never unbounded: deadlines + backoff keep the
        # baseline's client retry volume finite too.
        assert baseline["retries_per_request"] < 2.0

    def test_service_discovery_single_reload_under_flip_flop(self):
        result = service_discovery_experiment(
            "rapid", 16, profile="flip_flop", seed=2,
            fault_at=5.0, observe_for=25.0,
        )
        assert result["success_rate"] == 1.0
        assert result["mem_flap_events"] == 0
        # One reload for the initial view + one for the eviction: Rapid's
        # multi-node view change arrives as a single configuration.
        assert result["reloads"] <= 2
        assert result["latency_p99"] < 1.0


# =====================================================================
# The app tier's fault paths, one small cluster each (no membership:
# views are handed to the apps directly, as their agents would)
# =====================================================================


def _dispatcher(engine, network, ep, seed=0):
    return TypeDispatcher(SimRuntime(engine, network, ep, seed=seed))


class TestLoadBalancer:
    BACKENDS = tuple(Endpoint(f"10.2.0.{i}", 1) for i in range(3))
    CLIENT = Endpoint("10.3.0.1", 1)

    def _lb(self, backends=BACKENDS):
        engine = Engine()
        network = Network(engine, seed=0)
        dispatcher = _dispatcher(engine, network, Endpoint("10.9.9.9", 1))
        stats = AppScorecard()
        lb = LoadBalancer(dispatcher, backends, stats)
        return engine, network, dispatcher, lb, stats

    def test_view_changes_during_a_reload_get_one_follow_up_reload(self):
        engine, _, _, lb, stats = self._lb()
        a, b, c = self.BACKENDS
        lb.on_view_change([a, b])  # reload 1 writes (a, b)
        engine.run(until=0.5)
        lb.on_view_change([a])  # both land while reload 1 runs
        lb.on_view_change([a, c])
        engine.run(until=5.0)
        assert lb.configured == (a, c)
        assert lb.reloads == 2 == stats.reconfigurations

    def test_a_reload_that_ends_on_the_desired_list_needs_no_follow_up(self):
        engine, _, _, lb, _ = self._lb()
        a, b, _c = self.BACKENDS
        lb.on_view_change([a, b])
        engine.run(until=0.5)
        lb.on_view_change([a])
        lb.on_view_change([a, b])  # back to what reload 1 is writing
        engine.run(until=5.0)
        assert lb.configured == (a, b) and lb.reloads == 1

    @pytest.mark.parametrize("backends", [(), BACKENDS], ids=["none", "all-open"])
    def test_a_request_no_backend_can_take_is_shed_not_sent(self, backends):
        engine, network, dispatcher, lb, _ = self._lb(backends)
        for backend in backends:
            for _ in range(lb.config.breaker_failures):
                lb.breakers.record_failure(backend, 0.0)
        dispatcher.dispatch(
            self.CLIENT, HttpRequest(sender=self.CLIENT, request_id=1, deadline=1.0)
        )
        engine.run(until=2.0)
        assert "HttpRequest" not in network.class_counts

    def test_a_client_retry_of_a_request_in_flight_is_not_forwarded_again(self):
        engine, network, dispatcher, _, _ = self._lb()
        request = HttpRequest(sender=self.CLIENT, request_id=7, deadline=0.5)
        dispatcher.dispatch(self.CLIENT, request)
        dispatcher.dispatch(self.CLIENT, request)
        engine.run(until=0.1)
        assert network.class_counts["HttpRequest"] == 1


class TestWorkloadGenerator:
    @pytest.mark.parametrize(
        "attempt_timeout, outcome",
        [(2.0, "deadline_exceeded"), (1.0, "exhausted")],
    )
    def test_a_silent_load_balancer_ends_each_request_one_way(
        self, attempt_timeout, outcome
    ):
        """Two 2 s attempts overrun the 4 s deadline; two 1 s attempts
        run out first."""
        engine, runtime = _runtime()
        stats = AppScorecard()
        config = ServiceDiscoveryConfig(client_attempt_timeout=attempt_timeout)
        client = WorkloadGenerator(runtime, Endpoint("10.2.0.9", 1), stats, config)
        client.start(duration=0.05)
        engine.run(until=10.0)
        assert stats.offered > 0 and stats.completed == 0
        assert getattr(stats, outcome) == stats.offered


class TestTxnPlatformFailover:
    SERVERS = tuple(Endpoint(f"10.4.0.{i}", 1) for i in range(3))

    def _platform(self, config, servers=SERVERS):
        engine = Engine()
        network = Network(engine, seed=0)
        stats = AppScorecard()
        data = [
            DataServer(_dispatcher(engine, network, ep, seed=i), servers, config, stats)
            for i, ep in enumerate(servers)
        ]
        runtime = SimRuntime(engine, network, Endpoint("10.5.0.1", 1), seed=9)
        client = TxnClient(runtime, servers, stats, config)
        return engine, network, data, client, stats

    def test_a_redirected_client_is_served_once_the_new_serializer_resumes(self):
        """s0 leaves the view but still answers: it redirects the client to
        s1, which queues the timestamp requests through its failover
        pause and then serves them."""
        config = TxnPlatformConfig(failover_pause=0.75)
        engine, network, data, client, stats = self._platform(config)
        s0, s1, s2 = self.SERVERS
        for server in data:
            server.on_view_change([s1, s2])
        client.start(duration=0.1)
        engine.run(until=3.0)
        client.stop()
        engine.run(until=6.0)  # a view tick after stop() sends nothing
        assert network.class_counts["NotSerializer"] > 0
        assert stats.offered > 0 and stats.completed == stats.offered
        assert stats.reconfigurations == 1  # recorded by s1 alone

    def test_queued_requests_past_their_deadline_are_dropped_at_the_drain(self):
        config = TxnPlatformConfig(failover_pause=0.75, txn_deadline=0.7)
        engine, network, data, client, stats = self._platform(config)
        s0, s1, s2 = self.SERVERS
        for server in data:
            server.on_view_change([s1, s2])
        client.start(duration=0.01)
        engine.run(until=3.0)
        assert stats.offered == stats.deadline_exceeded == 1
        assert "TsResponse" not in network.class_counts

    def test_a_server_that_loses_the_role_in_its_pause_serves_nothing(self):
        engine, network, data, _, _ = self._platform(TxnPlatformConfig(failover_pause=1.0))
        s0, s1, s2 = self.SERVERS
        data[1].on_view_change([s1, s2])
        sender = SimRuntime(engine, network, Endpoint("10.5.0.2", 1))
        sender.send(s1, TsRequest(sender=sender.addr, txn_id=1))
        engine.run(until=0.5)
        data[1].on_view_change([s0, s1, s2])  # s0 is back before the pause ends
        engine.run(until=2.0)
        assert "TsResponse" not in network.class_counts

    def test_writes_no_replica_acks_in_time_fail_their_transaction(self):
        """One server, too slow to ack a write: the write's attempts time
        out until its breaker opens and the call is shed to its deadline;
        the first failed write fails the transaction and the second one's
        end changes nothing."""
        config = TxnPlatformConfig(write_service_time=100.0, txn_deadline=3.0)
        engine, _, _, client, stats = self._platform(config, servers=self.SERVERS[:1])
        client.start(duration=0.01)
        engine.run(until=10.0)
        assert stats.offered == stats.deadline_exceeded == 1
        assert stats.attempt_timeouts == 4 and stats.breaker_opens == 1

    def test_a_transaction_no_server_answers_runs_out_of_attempts(self):
        config = TxnPlatformConfig(breaker_failures=10)  # no breaker sheds
        engine = Engine()
        runtime = SimRuntime(engine, Network(engine, seed=0), Endpoint("10.5.0.1", 1))
        stats = AppScorecard()
        client = TxnClient(runtime, self.SERVERS, stats, config)
        client.start(duration=0.01)
        engine.run(until=10.0)
        assert stats.offered == stats.exhausted == 1
        assert stats.attempt_timeouts == config.max_attempts

    def test_a_client_whose_view_holds_no_server_sheds(self):
        """A view reply naming no server empties the client's candidates:
        writes and later timestamp requests find no target and are shed."""
        config = TxnPlatformConfig(txn_deadline=0.5)
        engine, network, _, client, stats = self._platform(config)
        stranger = SimRuntime(engine, network, Endpoint("10.5.0.3", 1))
        client.start(duration=0.1)
        stranger.send(client.addr, ViewResponse(sender=stranger.addr, members=()))
        engine.run(until=0.9)  # before the first view tick
        assert stats.offered > 0 and stats.completed == 0
        assert stats.deadline_exceeded == stats.offered
        assert network.class_counts["TsRequest"] == 1
        assert "WriteRequest" not in network.class_counts
