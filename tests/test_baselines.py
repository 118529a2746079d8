"""The baselines' fault paths: what the paper's comparison rests on.

Section 7 argues against memberlist, ZooKeeper and Akka from how they
behave under faults, so each baseline's fault-handling rule is run here
once through a public path, in a small simulated cluster with an exact
fault: a SWIM member refutes a suspicion about itself and a probe is
answered through a relay; a ZooKeeper client whose session expired, or
whose connect was lost, registers again; an Akka member comes back from
UNREACHABLE, and one that stays silent is downed.
"""

from repro.baselines import akka, swim, zookeeper
from repro.baselines.zookeeper import ZkClient, build_ensemble
from repro.experiments.harness import harness_for
from repro.sim.cluster import endpoint_for
from repro.sim.engine import Engine
from repro.sim.faults import Delay, Loss
from repro.sim.network import Network
from repro.sim.process import SimRuntime


def _converged(system: str, n: int, seed: int = 1):
    harness = harness_for(system, seed=seed)
    endpoints = harness.bootstrap(n, seed_delay=1.0, stagger=0.5)
    assert harness.run_until_converged(n, timeout=60.0) is not None
    return harness, endpoints


class TestSwim:
    def test_a_member_refutes_a_suspicion_about_itself(self):
        """Acks slower than a protocol period make a healthy member
        SUSPECT; it hears the rumour and outbids it with a higher
        incarnation, which every peer then takes as ALIVE."""
        harness, endpoints = _converged("memberlist", 5)
        victim = endpoints[2]
        now = harness.engine.now
        harness.network.add_rule(
            Delay(src=frozenset([victim]), delay=1.5, start=now, end=now + 6.0)
        )
        harness.run_for(20.0)
        agent = harness.agents[victim]
        assert agent.incarnation >= 1
        for ep in endpoints:
            member = harness.agents[ep].members[victim]
            assert (member.status, member.incarnation) == (swim.ALIVE, agent.incarnation)

    def test_an_ack_late_for_the_ping_but_early_for_the_relay_clears_the_probe(self):
        """A direct ack arriving after the ping timeout but before the
        indirect round ends still counts: nobody is suspected."""
        harness, endpoints = _converged("memberlist", 5)
        victim = endpoints[1]
        now = harness.engine.now
        late = swim.PROBE_TIMEOUT + 0.2
        assert late < swim.PROTOCOL_PERIOD
        harness.network.add_rule(
            Delay(src=frozenset([victim]), delay=late, start=now, end=now + 10.0)
        )
        harness.run_for(15.0)
        assert harness.agents[victim].incarnation == 0
        assert all(harness.agents[ep].view() == tuple(sorted(endpoints)) for ep in endpoints)

    def test_a_probe_the_observer_cannot_deliver_is_answered_through_a_relay(self):
        """One broken link: the observer's ping-req makes peers ping the
        target for it, and their indirect acks keep the target ALIVE."""
        harness, endpoints = _converged("memberlist", 5)
        observer, target = endpoints[0], endpoints[3]
        harness.network.add_rule(
            Loss(src=frozenset([observer]), dst=frozenset([target]), both_ways=True)
        )
        harness.run_for(20.0)
        assert harness.agents[observer].members[target].status == swim.ALIVE
        assert harness.agents[target].incarnation == 0

    def test_a_late_joiner_does_not_learn_a_member_from_its_obituary(self):
        """At ten members a joiner learns more updates at once than one
        message piggybacks; a member that died before it joined is never
        added to its table."""
        harness, endpoints = _converged("memberlist", 10)
        dead = endpoints[4]
        harness.crash([dead])
        harness.run_for(30.0)
        assert all(
            harness.agents[ep].members[dead].status == swim.DEAD
            for ep in endpoints
            if ep != dead
        )
        late = endpoint_for(10)
        harness.add_node(late, seeds=(endpoints[0],))
        harness.run_for(10.0)
        members = harness.agents[late].members
        assert dead not in members
        assert len(members) == 10  # the nine survivors and itself


class TestAkka:
    def test_an_unreachable_member_that_comes_back_is_up_again(self):
        """A member cut off for less than the auto-down delay is marked
        UNREACHABLE, refutes that claim about itself once it hears it,
        and ends UP everywhere."""
        harness, endpoints = _converged("akka", 5)
        victim = endpoints[2]
        harness.network.crash(victim)
        harness.run_for(akka.AUTO_DOWN_AFTER / 2)
        observers = [ep for ep in endpoints if ep != victim]
        assert any(
            harness.agents[ep].state[victim][0] == akka.UNREACHABLE for ep in observers
        )
        harness.network.recover(victim)
        harness.run_for(20.0)
        for ep in endpoints:
            assert harness.agents[ep].state[victim][0] == akka.UP
            assert harness.agents[ep].view() == tuple(sorted(endpoints))

    def test_a_member_unreachable_past_the_auto_down_delay_is_removed(self):
        harness, endpoints = _converged("akka", 5)
        victim = endpoints[2]
        harness.crash([victim])
        harness.run_for(akka.AUTO_DOWN_AFTER + 15.0)
        survivors = [ep for ep in endpoints if ep != victim]
        for ep in survivors:
            assert harness.agents[ep].state[victim][0] == akka.REMOVED
            assert harness.agents[ep].view() == tuple(survivors)


def _zk(servers: int):
    engine = Engine()
    network = Network(engine, seed=1)
    ensemble = build_ensemble(
        SimRuntime(engine, network, endpoint_for(100 + i), seed=i) for i in range(servers)
    )
    runtime = SimRuntime(engine, network, endpoint_for(0), seed=7)
    client = ZkClient(runtime, [server.addr for server in ensemble])
    return engine, network, ensemble, client


class TestZooKeeper:
    def test_a_client_whose_session_expired_registers_again(self):
        engine, network, ensemble, client = _zk(3)
        client.start()
        engine.run(until=5.0)
        first = client.session_id
        assert first is not None and client.view() == (client.addr,)
        network.crash(client.addr)
        engine.run(until=5.0 + zookeeper.SESSION_TIMEOUT + 4.0)
        leader = ensemble[0]
        assert first not in leader.sessions and client.addr not in leader.children
        network.recover(client.addr)
        engine.run(until=30.0)
        assert client.session_id not in (None, first)
        assert leader.children[client.addr] == client.session_id
        assert client.view() == (client.addr,)

    def test_a_client_whose_connect_was_lost_connects_again(self):
        engine, network, ensemble, client = _zk(3)
        network.crash(client.addr)
        client.start()
        engine.run(until=zookeeper.SESSION_TIMEOUT / 2)
        assert client.session_id is None
        network.recover(client.addr)
        engine.run(until=zookeeper.SESSION_TIMEOUT + 5.0)
        assert client.session_id is not None
        assert client.view() == (client.addr,)

    def test_a_one_server_ensemble_commits_on_its_own_vote(self):
        engine, _, ensemble, client = _zk(1)
        client.start()
        engine.run(until=10.0)
        assert ensemble[0].children == {client.addr: client.session_id}
        assert client.view() == (client.addr,)
